"""Shard checkpoint guarantees: the supervisor restores each crashed
shard from its newest in-memory checkpoint (or from ``reset()`` when it
has none) and counts what it kept, and a shard's state restores to an
equivalent shard — the substrate the supervisor's crash recovery stands
on."""

from repro.stream import (
    DeadLetterQueue,
    ReachabilityEvent,
    ShardSupervisor,
    StreamShard,
    SupervisionConfig,
)

from .test_supervise import ScriptedPlan
from .test_window import A, B, C, asn_of


def reach(src, dst, reached=True, tick=0, seq=0):
    return ReachabilityEvent(tick=tick, seq=seq, src=src, dst=dst, reached=reached)


def _supervised(plan, **config):
    shards = [
        StreamShard(i, asn_of, open_after=2, close_after=2) for i in range(2)
    ]
    supervisor = ShardSupervisor(
        shards,
        config=SupervisionConfig(**config),
        plan=plan,
        dead_letters=DeadLetterQueue(),
    )
    return supervisor, shards


class TestInMemoryStore:
    def test_latest_tracks_the_newest_per_shard(self):
        """A restart restores the newest checkpoint: the events offered
        after it, kept out of the replay tail here, are gone."""
        supervisor, shards = _supervised(ScriptedPlan(crashes={(0, 5)}))
        shard = shards[0]
        shard.offer(reach(A, B, reached=False, tick=1, seq=0))
        supervisor.end_tick(2)
        shard.offer(reach(A, C, tick=3, seq=1))
        supervisor.end_tick(4)
        newest = shard.state()
        shard.offer(reach(B, C, tick=5, seq=2))
        supervisor.end_tick(5)  # shard 0 crashes
        assert supervisor.status(0) == "crashed"
        supervisor.begin_tick(6)
        assert supervisor.status(0) == "running"
        assert shard.state() == newest
        assert shard.events_offered == 2

    def test_unknown_shard_has_no_checkpoint(self):
        """A shard that crashes before its first checkpoint restarts from
        ``reset()`` and its replay tail alone."""
        supervisor, shards = _supervised(ScriptedPlan(crashes={(0, 1)}))
        shard = shards[0]
        shard.offer(reach(A, B, reached=False, tick=1, seq=0))
        supervisor.end_tick(1)
        supervisor.begin_tick(2)
        assert supervisor.status(0) == "running"
        pristine = StreamShard(0, asn_of, open_after=2, close_after=2)
        assert shard.state() == pristine.state()
        assert supervisor.counters()["shards_checkpointed"] == 0

    def test_counters(self):
        """Every checkpoint of a running shard counts; a dark shard is
        not checkpointed."""
        supervisor, _shards = _supervised(
            ScriptedPlan(crashes={(1, 3)}), restart_after=10
        )
        for tick in (2, 3, 4):
            supervisor.end_tick(tick)
        counters = supervisor.counters()
        assert counters["checkpoints_saved"] == 3
        assert counters["shards_checkpointed"] == 2


class TestShardStateRoundTrip:
    def _loaded_shard(self):
        shard = StreamShard(0, asn_of, open_after=2, close_after=2)
        events = [
            (A, B, False),
            (A, B, False),  # (A, B) alarms
            (A, C, True),
            (B, C, False),
        ]
        for seq, (src, dst, ok) in enumerate(events):
            assert shard.offer(reach(src, dst, reached=ok, tick=1, seq=seq))
        return shard

    def test_restore_rebuilds_alarms_windows_and_accounting(self):
        shard = self._loaded_shard()
        snapshot = shard.state()

        other = StreamShard(0, asn_of, open_after=2, close_after=2)
        other.restore_state(snapshot)
        assert other.alarms.alarmed_pairs() == shard.alarms.alarmed_pairs()
        assert other.alarms.pairs_tracked() == shard.alarms.pairs_tracked()
        assert other.events_offered == shard.events_offered
        assert other.events_admitted == shard.events_admitted
        assert other.window.counters() == shard.window.counters()
        assert other.ingestor.counters() == shard.ingestor.counters()

    def test_restored_shard_continues_identically(self):
        """The checkpoint contract: restore + same tail ⇒ same state."""
        shard = self._loaded_shard()
        other = StreamShard(0, asn_of, open_after=2, close_after=2)
        other.restore_state(shard.state())
        tail = [reach(B, C, reached=False, tick=2, seq=9)]
        for event in tail:
            shard.offer(event)
            other.offer(event)
        # The second consecutive failure alarms (B, C) on both.
        assert (B, C) in shard.alarms.alarmed_pairs()
        assert other.alarms.alarmed_pairs() == shard.alarms.alarmed_pairs()
