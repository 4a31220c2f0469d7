"""Checkpoint-store guarantees: durable round trips, fingerprint
guarding, torn-tail tolerance, and shard state restore equivalence —
the substrate the supervisor's crash recovery stands on."""

import copyreg
import pickle

import pytest

from repro.core.nd_edge import build_edge_inputs
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, ProbePath
from repro.errors import CheckpointError
from repro.stream import CheckpointStore, ReachabilityEvent, StreamShard
from repro.stream.checkpoint import ShardCheckpoint

from .test_window import A, B, C, asn_of, probe

FINGERPRINT = {"seed": 3, "shards": 2, "chaos_rate": 0.1}


def reach(src, dst, reached=True, tick=0, seq=0):
    return ReachabilityEvent(tick=tick, seq=seq, src=src, dst=dst, reached=reached)


class TestInMemoryStore:
    def test_latest_tracks_the_newest_per_shard(self):
        store = CheckpointStore()
        store.save(0, 2, {"n": 1})
        store.save(1, 2, {"n": 2})
        newest = store.save(0, 4, {"n": 3})
        assert store.latest(0) is newest
        assert store.latest(0).tick == 4
        assert store.latest(1).state == {"n": 2}
        assert set(store.latest()) == {0, 1}

    def test_unknown_shard_has_no_checkpoint(self):
        store = CheckpointStore()
        assert store.latest(7) is None
        assert store.latest() == {}

    def test_counters(self):
        store = CheckpointStore()
        store.save(0, 2, {})
        store.save(0, 4, {})
        store.save(1, 4, {})
        assert store.counters() == {
            "checkpoints_saved": 3,
            "shards_checkpointed": 2,
        }


class TestDurableStore:
    def test_round_trip_restores_the_latest_per_shard(self, tmp_path):
        path = tmp_path / "shards.ckpt"
        store = CheckpointStore(path, FINGERPRINT)
        store.save(0, 2, {"tick": 2})
        store.save(0, 4, {"tick": 4})
        store.save(1, 4, {"pairs": [(A, B)]})

        reloaded = CheckpointStore(path, FINGERPRINT)
        assert reloaded.latest(0).tick == 4
        assert reloaded.latest(0).state == {"tick": 4}
        assert reloaded.latest(1).state == {"pairs": [(A, B)]}
        # Loaded checkpoints are history, not new saves.
        assert reloaded.counters()["checkpoints_saved"] == 0
        assert reloaded.counters()["shards_checkpointed"] == 2

    def test_fingerprint_mismatch_is_a_typed_error(self, tmp_path):
        """One run's checkpoints must never seed another run's recovery."""
        path = tmp_path / "shards.ckpt"
        CheckpointStore(path, FINGERPRINT).save(0, 2, {})
        with pytest.raises(CheckpointError):
            CheckpointStore(path, dict(FINGERPRINT, seed=999))

    def test_torn_trailing_record_is_dropped(self, tmp_path):
        """A crash mid-append loses at most the checkpoint being
        written; every earlier record still loads."""
        path = tmp_path / "shards.ckpt"
        store = CheckpointStore(path, FINGERPRINT)
        store.save(0, 2, {"tick": 2})
        store.save(0, 4, {"tick": 4})
        with open(path, "r+b") as handle:
            handle.seek(0, 2)
            handle.truncate(handle.tell() - 7)

        reloaded = CheckpointStore(path, FINGERPRINT)
        assert reloaded.latest(0).tick == 2

    def test_unreadable_header_is_a_typed_error(self, tmp_path):
        """As for the run journal: appending to a file with no readable
        header would never make it loadable, so the store refuses it."""
        path = tmp_path / "not-a-checkpoint"
        path.write_bytes(b"definitely not pickle")
        with pytest.raises(CheckpointError, match="no readable"):
            CheckpointStore(path, FINGERPRINT)

    def test_empty_file_is_a_fresh_store(self, tmp_path):
        """A crash before the header leaves an empty file; the first
        save writes the header, so the store reloads."""
        path = tmp_path / "shards.ckpt"
        path.write_bytes(b"")
        store = CheckpointStore(path, FINGERPRINT)
        assert store.latest() == {}
        store.save(0, 2, {"tick": 2})
        assert CheckpointStore(path, FINGERPRINT).latest(0).tick == 2


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

    def test_checkpointed_state_survives_disk(self, tmp_path):
        shard = self._loaded_shard()
        path = tmp_path / "shards.ckpt"
        CheckpointStore(path, FINGERPRINT).save(0, 1, shard.state())

        restored = CheckpointStore(path, FINGERPRINT).latest(0)
        other = StreamShard(0, asn_of, open_after=2, close_after=2)
        other.restore_state(restored.state)
        assert other.alarms.alarmed_pairs() == shard.alarms.alarmed_pairs()


class _ParentFormatPickler(pickle.Pickler):
    """Pickles a :class:`ProbePath` the way it was pickled before paths
    dropped their memos: the plain instance dict with a warm links memo
    and no token memo slot (byte-identical to that code's output)."""

    def reducer_override(self, obj):
        if type(obj) is ProbePath:
            state = {
                name: getattr(obj, name)
                for name in ("src", "dst", "hops", "reached", "epoch")
            }
            state["_links_memo"] = obj.links()
            return copyreg.__newobj__, (ProbePath,), state
        return NotImplemented


class TestCheckpointFormat:
    def _probed_shard(self):
        shard = StreamShard(0, asn_of, open_after=2, close_after=2)
        for seq, (src, dst) in enumerate(((A, B), (A, C), (B, C))):
            shard.offer(probe(src, dst, EPOCH_PRE, tick=1, seq=2 * seq))
            shard.offer(
                probe(src, dst, EPOCH_POST, reached=False, tick=1, seq=2 * seq + 1)
            )
        return shard

    def test_checkpoints_carry_no_memos(self):
        shard = self._probed_shard()
        snapshot = shard.window.snapshot(asn_of)
        cold = pickle.dumps(shard.state())
        build_edge_inputs(snapshot)  # warms the window's paths
        assert any(p.token_memo() for p in snapshot.before.paths())
        assert pickle.dumps(shard.state()) == cold

    def test_a_checkpoint_in_the_parent_format_still_restores(self, tmp_path):
        shard = self._probed_shard()
        path = tmp_path / "parent.ckpt"
        with open(path, "wb") as handle:
            _ParentFormatPickler(handle).dump(
                {"format": "repro-shard-checkpoint-v2", "fingerprint": FINGERPRINT}
            )
            _ParentFormatPickler(handle).dump(
                ShardCheckpoint(shard=0, tick=1, state=shard.state())
            )

        restored = CheckpointStore(path, FINGERPRINT).latest(0)
        other = StreamShard(0, asn_of, open_after=2, close_after=2)
        other.restore_state(restored.state)
        assert other.window.counters() == shard.window.counters()
        want = build_edge_inputs(shard.window.snapshot(asn_of))
        got = build_edge_inputs(other.window.snapshot(asn_of))
        assert got.failure_sets == want.failure_sets
        assert got.working_excluded == want.working_excluded
        assert got.graph.tokens() == want.graph.tokens()
