"""Supervision-layer guarantees: dead-letter provenance round trips and
typed refusal of malformed entries, darkness buffering with bounded
memory, stale-alarm holds, and the headline recovery contract — a
scripted shard crash or stall heals to final verdicts byte-identical to
the undisturbed run, and a crash of ``k`` ticks ends exactly where a
``k``-tick stall does."""

import json
from dataclasses import replace

import pytest

from repro.errors import StreamError, SupervisionError
from repro.stream import (
    DeadLetterQueue,
    ReachabilityEvent,
    ReplayConfig,
    ShardSupervisor,
    StreamEngine,
    StreamShard,
    SupervisionConfig,
    load_dead_letters,
    make_replay_setup,
    run_replay,
)
from repro.stream.replay import build_event_log

from .test_window import A, B, C, asn_of

SETUP_ARGS = dict(seed=11, n_sensors=6)
CONFIG = ReplayConfig(
    kind="link-1",
    episodes=2,
    incident_rounds=2,
    recovery_rounds=2,
    seed=11,
)
CORRUPT_CONFIG = replace(CONFIG, fault_rate=0.2, corrupt=True)
#: The crash and stall tallies: the only counters a crash and a stall
#: of the same length may disagree on.
DARKNESS_TALLIES = ("shard_crashes", "shard_stalls")


def reach(src, dst, reached=True, tick=0, seq=0):
    return ReachabilityEvent(tick=tick, seq=seq, src=src, dst=dst, reached=reached)


class ScriptedPlan:
    """Duck-typed stand-in for FaultPlan's chaos surface: failures fire
    exactly where the test scripts them, nowhere else."""

    def __init__(self, crashes=(), stalls=None, slow=()):
        self.crashes = set(crashes)  # {(shard, tick)}
        self.stalls = dict(stalls or {})  # {(shard, tick): dark_ticks}
        self.slow = set(slow)  # {(shard, tick)}

    def shard_crashes(self, shard, tick):
        return (shard, tick) in self.crashes

    def shard_stall_ticks(self, shard, tick):
        return self.stalls.get((shard, tick), 0)

    def shard_slow(self, shard, tick):
        return (shard, tick) in self.slow


class TestSupervisionConfig:
    def test_rejects_non_positive_tunables(self):
        with pytest.raises(StreamError):
            SupervisionConfig(restart_after=0)
        with pytest.raises(StreamError):
            SupervisionConfig(buffer_limit=-1)

    def test_zero_buffer_limit_is_legal(self):
        assert SupervisionConfig(buffer_limit=0).buffer_limit == 0


class TestDeadLetterQueue:
    def test_in_memory_entries_carry_provenance(self):
        dlq = DeadLetterQueue()
        dlq.put_event(reach(A, B, tick=3, seq=9), reason="overflow", shard=1)
        dlq.put_event(reach(A, C, tick=4, seq=10), reason="overflow")
        assert len(dlq) == 2
        event_entry, unsharded = dlq.entries
        assert event_entry["kind"] == "event"
        assert event_entry["reason"] == "overflow"
        assert event_entry["shard"] == 1
        assert event_entry["tick"] == 3
        assert event_entry["event"]["src"] == A
        assert unsharded["shard"] is None
        assert unsharded["tick"] == 4

    def test_journal_round_trip(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        dlq = DeadLetterQueue(path)
        dlq.put_event(reach(A, B, tick=1), reason="overflow", shard=0)
        dlq.put_event(reach(A, C, tick=4, seq=1), reason="overflow")
        dlq.close()
        assert load_dead_letters(path) == dlq.entries

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        path = tmp_path / "dead.jsonl"
        dlq = DeadLetterQueue(path)
        dlq.put_event(reach(A, B), reason="overflow", shard=0)
        dlq.close()
        with open(path, "a") as handle:
            handle.write('{"kind": "ev')  # crash mid-write
        assert load_dead_letters(path) == dlq.entries

    def test_foreign_file_is_a_typed_error(self, tmp_path):
        path = tmp_path / "not-dlq"
        path.write_text("not json at all\n")
        with pytest.raises(SupervisionError):
            load_dead_letters(path)
        path.write_text(json.dumps({"format": "something-else"}) + "\n")
        with pytest.raises(SupervisionError):
            load_dead_letters(path)

    def _journal_with(self, tmp_path, line):
        """A dead-letter journal of one good entry followed by ``line``."""
        path = tmp_path / "dead.jsonl"
        dlq = DeadLetterQueue(path)
        dlq.put_event(reach(A, B, tick=1), reason="overflow", shard=0)
        dlq.close()
        with open(path, "a") as handle:
            handle.write(json.dumps(line) + "\n")
        return path

    def _refused(self, path):
        with pytest.raises(SupervisionError) as error:
            load_dead_letters(path)
        assert str(path) in str(error.value)
        assert "entry 1" in str(error.value)

    def test_an_episode_entry_of_an_older_journal_is_refused(self, tmp_path):
        """Journals once also dead-lettered episode transitions; those
        entries are refused, not mis-rendered as events."""
        self._refused(
            self._journal_with(
                tmp_path,
                {
                    "kind": "episode",
                    "reason": "episode-strikes",
                    "shard": 0,
                    "tick": 4,
                    "episode_id": 2,
                    "transition": "update",
                    "pairs": [[A, B]],
                },
            )
        )

    def test_a_non_dict_entry_is_refused(self, tmp_path):
        self._refused(self._journal_with(tmp_path, [1, 2]))

    def test_an_event_entry_without_its_event_is_refused(self, tmp_path):
        self._refused(
            self._journal_with(
                tmp_path,
                {"kind": "event", "reason": "overflow", "shard": 0, "tick": 1},
            )
        )


class TestShardSupervisorUnits:
    def _supervisor(self, plan=None, **config):
        shards = [
            StreamShard(i, asn_of, open_after=2, close_after=2)
            for i in range(2)
        ]
        dlq = DeadLetterQueue()
        supervisor = ShardSupervisor(
            shards,
            config=SupervisionConfig(**config),
            plan=plan,
            dead_letters=dlq,
        )
        return supervisor, shards, dlq

    def test_buffer_overflow_dead_letters_with_provenance(self):
        supervisor, _shards, dlq = self._supervisor(buffer_limit=1)
        supervisor._status[0] = "crashed"
        supervisor._darkened_at[0] = 0
        supervisor.buffer_event(0, "pair", reach(A, B, tick=1, seq=0))
        supervisor.buffer_event(0, "pair", reach(A, C, tick=1, seq=1))
        assert supervisor.events_buffered == 1
        assert supervisor.events_dead_lettered == 1
        assert len(dlq) == 1
        assert dlq.entries[0]["reason"] == "dark-shard-buffer-overflow"
        assert dlq.entries[0]["shard"] == 0

    def test_dark_shard_serves_the_stale_alarm_hold(self):
        """An open episode must not flap closed just because its shard
        went dark — the merger keeps seeing the last-known alarms."""
        supervisor, shards, _dlq = self._supervisor()
        shard = shards[0]
        shard.offer(reach(A, B, reached=False, tick=1, seq=0))
        shard.offer(reach(A, B, reached=False, tick=2, seq=1))
        assert supervisor.alarm_view(0, 2) == ((A, B),)
        supervisor._status[0] = "crashed"
        supervisor._darkened_at[0] = 2
        assert supervisor.alarm_view(0, 3) == ((A, B),)
        assert supervisor.ticks_dark == 1

    def test_slow_shard_serves_last_ticks_view(self):
        supervisor, shards, _dlq = self._supervisor(
            plan=ScriptedPlan(slow={(0, 5)})
        )
        shard = shards[0]
        shard.offer(reach(A, B, reached=False, tick=3, seq=0))
        shard.offer(reach(A, B, reached=False, tick=4, seq=1))
        assert supervisor.alarm_view(0, 4) == ((A, B),)
        # The pair recovers, but the slow shard's tick-5 output is late:
        # the merger still sees the held tick-4 view.
        shard.offer(reach(A, B, reached=True, tick=5, seq=2))
        shard.offer(reach(A, B, reached=True, tick=5, seq=3))
        assert supervisor.alarm_view(0, 5) == ((A, B),)
        assert supervisor.slow_ticks == 1
        assert supervisor.alarm_view(0, 6) == ()

    def test_stall_recovery_replays_the_darkness_buffer(self):
        supervisor, shards, _dlq = self._supervisor(
            plan=ScriptedPlan(stalls={(0, 3): 2})
        )
        shard = shards[0]
        shard.offer(reach(A, B, reached=False, tick=2, seq=0))
        supervisor.end_tick(3)  # stall fires: dark for 2 ticks
        assert supervisor.status(0) == "stalled"
        supervisor.buffer_event(0, "pair", reach(A, B, reached=False, tick=4, seq=1))
        assert supervisor.begin_tick(4) == 0  # still dark
        admitted = supervisor.begin_tick(5)
        assert admitted == 1
        assert supervisor.status(0) == "running"
        # The buffered second failure opened the pair's alarm on replay.
        assert shard.alarms.alarmed_pairs() == ((A, B),)
        assert supervisor.recoveries == 1
        assert supervisor.ticks_to_recover == [2]
        assert supervisor.episodes_delayed == 1


class TestDarkShardOffer:
    def test_dead_lettered_event_is_not_reported_admitted(self):
        """A full darkness buffer dead-letters the event: ``offer`` must
        say so, matching the admission and dead-letter counters."""
        engine = StreamEngine(
            asn_of=asn_of,
            diagnosers={},
            supervision=SupervisionConfig(buffer_limit=0),
        )
        engine.supervisor._status[0] = "crashed"
        engine.supervisor._darkened_at[0] = 0
        assert engine.offer(reach(A, B, reached=False, tick=1, seq=0)) is False
        counters = engine.counters()
        assert counters["events_admitted"] == 0
        assert counters["events_dead_lettered"] == 1
        engine.close()


@pytest.fixture(scope="module")
def golden_log():
    setup = make_replay_setup(**SETUP_ARGS)
    return setup, build_event_log(setup, CONFIG)


@pytest.fixture(scope="module")
def corrupt_log():
    """The golden deployment streaming a corrupted log, so screening
    quarantines events on every shard."""
    setup = make_replay_setup(**SETUP_ARGS)
    return setup, build_event_log(setup, CORRUPT_CONFIG)


def _engine_kwargs(setup):
    return dict(
        asn_of=setup.session.sim.mapper.asn_of,
        diagnosers=setup.diagnosers,
        asx=setup.asx,
    )


class TestScriptedRecovery:
    """The headline contract, on one golden log shared by every run."""

    def _undisturbed(self, golden_log):
        setup, log = golden_log
        return run_replay(
            log, StreamEngine(shards=2, **_engine_kwargs(setup))
        )

    def _supervised(self, golden_log, plan, **config):
        setup, log = golden_log
        engine = StreamEngine(
            shards=2,
            plan=plan,
            supervision=SupervisionConfig(**config),
            **_engine_kwargs(setup),
        )
        return run_replay(log, engine), engine

    def test_crash_recovery_is_byte_identical(self, golden_log):
        """A one-tick crash on any shard at any tick, the end-of-stream
        grace tick included, heals to the undisturbed verdicts."""
        baseline = self._undisturbed(golden_log)
        assert baseline  # the golden scenario diagnosed something
        last_tick = golden_log[1].last_tick
        for shard in (0, 1):
            for tick in range(last_tick + 2):
                case = f"crash of shard {shard} at tick {tick}"
                reports, engine = self._supervised(
                    golden_log,
                    ScriptedPlan(crashes={(shard, tick)}),
                    restart_after=1,
                )
                stats = engine.supervision_stats()
                assert stats["counters"]["shard_crashes"] == 1, case
                assert stats["counters"]["recoveries"] == 1, case
                # A crash on the grace tick is recovered by the flush
                # that closes the same tick.
                assert stats["ticks_to_recover"] == [
                    1 if tick <= last_tick else 0
                ], case
                assert stats["incidents"] == [
                    {"kind": "shard-crash", "shard": shard, "tick": tick}
                ], case
                assert reports == baseline, case

    def test_stall_recovery_is_byte_identical(self, golden_log):
        """A one-tick stall refolds its darkness buffer before the next
        merge, so no verdict may shift by even a tick."""
        baseline = self._undisturbed(golden_log)
        reports, engine = self._supervised(
            golden_log, ScriptedPlan(stalls={(1, 2): 1})
        )
        stats = engine.supervision_stats()
        assert stats["counters"]["shard_stalls"] == 1
        assert stats["counters"]["recoveries"] == 1
        assert reports == baseline

    def test_long_darkness_degrades_accountedly(self, golden_log):
        """Darkness past the refold window may move verdicts — but only
        with the loss showing up in the degradation counters."""
        baseline = self._undisturbed(golden_log)
        reports, engine = self._supervised(
            golden_log, ScriptedPlan(stalls={(1, 2): 2})
        )
        stats = engine.supervision_stats()
        assert stats["counters"]["recoveries"] == 1
        if reports != baseline:
            counters = stats["counters"]
            assert (
                counters["ticks_dark"] > 0
                or counters["episodes_delayed"] > 0
                or counters["pairs_uncovered"] > 0
            )

    def test_supervision_without_chaos_is_transparent(self, golden_log):
        """No plan, no incidents: the supervised engine is report- and
        counter-identical to the plain sharded engine."""
        setup, log = golden_log
        baseline = self._undisturbed(golden_log)
        plain = StreamEngine(shards=2, **_engine_kwargs(setup))
        run_replay(log, plain)
        reports, engine = self._supervised(golden_log, None)
        assert reports == baseline
        stats = engine.supervision_stats()
        assert stats["incidents"] == []
        assert stats["counters"]["recoveries"] == 0
        assert engine.counters()["events_admitted"] == (
            plain.counters()["events_admitted"]
        )


def _darkened_outputs(log_fixture, plan, **config):
    """Everything a supervised replay reports, bar the crash and stall
    tallies."""
    setup, log = log_fixture
    engine = StreamEngine(
        shards=2,
        plan=plan,
        supervision=SupervisionConfig(**config),
        **_engine_kwargs(setup),
    )
    reports = run_replay(log, engine)
    counters = engine.counters()
    for key in DARKNESS_TALLIES:
        del counters[key]
    return (
        reports,
        engine.ingest_counters(),
        engine.window_counters(),
        engine.detector_counters(),
        counters,
    )


class TestCrashIsAStall:
    """A crashed shard keeps its state: dark for ``restart_after``
    ticks, it ends exactly where a stall of that many ticks does, on a
    corrupted log whose quarantines land on every shard."""

    @pytest.mark.parametrize(
        "shard, tick, ticks",
        [
            pytest.param(
                shard, tick, ticks, id=f"shard{shard}-tick{tick}-k{ticks}"
            )
            for shard in (0, 1)
            for tick in range(11)
            for ticks in (1, 2, 3)
        ],
    )
    def test_crash_equals_a_stall_of_the_same_length(
        self, corrupt_log, shard, tick, ticks
    ):
        crashed = _darkened_outputs(
            corrupt_log,
            ScriptedPlan(crashes={(shard, tick)}),
            restart_after=ticks,
        )
        stalled = _darkened_outputs(
            corrupt_log, ScriptedPlan(stalls={(shard, tick): ticks})
        )
        assert crashed[-1]["recoveries"] == 1
        assert crashed == stalled
