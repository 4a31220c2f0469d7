"""Replay-level guarantees: bit-identical determinism (serial ==
parallel == rerun), batch parity on an eviction-free window, journal
resume interop, the no-wall-clock-sleep rule, and the engine protocol
:func:`run_replay` drives.

Every run builds a fresh :func:`make_replay_setup` with identical
arguments — the scenario sampler is stateful, so reproducing a stream
means reproducing the deployment it was recorded against (the same
contract batch resume relies on).
"""

import time

import pytest

from repro.errors import ReproError
from repro.measurement.collector import (
    collect_control_plane,
    make_lg_lookup,
    take_snapshot,
)
from repro.stream import (
    OPEN,
    ReplayConfig,
    build_event_log,
    load_event_log,
    make_replay_setup,
    run_replay,
    run_stream_replay,
    save_event_log,
)
from repro.stream.engine import _summarise

SETUP_ARGS = dict(seed=3, n_sensors=6)
CONFIG = ReplayConfig(
    kind="link-1",
    episodes=2,
    incident_rounds=2,
    recovery_rounds=2,
    fault_rate=0.1,
    seed=3,
)


class TestDeterminism:
    def test_rerun_and_parallel_are_bit_identical(self):
        serial = run_stream_replay(make_replay_setup(**SETUP_ARGS), CONFIG)
        rerun = run_stream_replay(make_replay_setup(**SETUP_ARGS), CONFIG)
        parallel = run_stream_replay(
            make_replay_setup(**SETUP_ARGS), CONFIG, workers=2
        )
        assert serial.reports  # the replay actually diagnosed something
        assert serial.reports == rerun.reports
        assert serial.reports == parallel.reports
        assert serial.episodes == rerun.episodes

    def test_event_log_round_trips_through_disk(self, tmp_path):
        setup = make_replay_setup(**SETUP_ARGS)
        log = build_event_log(setup, CONFIG)
        path = tmp_path / "replay.jsonl"
        save_event_log(log.events, path)
        assert load_event_log(path) == log.events


class TestBatchParity:
    def test_streaming_open_diagnosis_equals_batch(self):
        """Golden parity: with no in-window eviction the open report's
        verdicts are exactly what the batch diagnosers say about a batch
        snapshot of the same round."""
        args = dict(seed=5, n_sensors=6)
        config = ReplayConfig(
            kind="link-1",
            episodes=1,
            incident_rounds=1,
            recovery_rounds=2,
            fault_rate=0.0,
            seed=5,
        )
        result = run_stream_replay(
            make_replay_setup(**args),
            config,
            open_after=1,
            close_after=1,
            window_width=6,  # wider than the whole replay: nothing evicts
        )
        open_report = next(r for r in result.reports if r.trigger == OPEN)
        assert open_report.diagnoses

        # Rebuild the identical deployment and replay the sampler to get
        # the same scenario, then measure it the batch way.
        batch = make_replay_setup(**args)
        session = batch.session
        scenario = session.sampler.sample(config.kind)
        snapshot = take_snapshot(
            session.sim, session.sensors, session.base_state, scenario.after_state
        )
        control = collect_control_plane(
            session.sim, batch.asx, session.base_state, scenario.after_state
        )
        for verdict in open_report.diagnoses:
            expected = _summarise(
                batch.diagnosers[verdict.algorithm].diagnose(
                    snapshot, control=control, lg_lookup=None
                )
            )
            assert verdict == expected


class TestJournalInterop:
    def test_resume_reuses_reports_bit_identically(self, tmp_path):
        from repro.experiments.journal import RunJournal

        fingerprint = {"format": "repro-stream-journal", "config": CONFIG}
        journal = RunJournal(tmp_path / "stream.journal", fingerprint)
        first = run_stream_replay(
            make_replay_setup(**SETUP_ARGS), CONFIG, journal=journal
        )
        assert first.reports
        cached = journal.load_completed()
        assert sorted(cached) == [r.report_index for r in first.reports]

        resumed = run_stream_replay(
            make_replay_setup(**SETUP_ARGS), CONFIG, cached_reports=cached
        )
        assert resumed.reports == first.reports
        assert resumed.engine_counters["reports_reused"] == len(first.reports)

    def test_foreign_journal_refuses_to_resume(self, tmp_path):
        from repro.experiments.journal import RunJournal

        from repro.stream import EpisodeReport

        path = tmp_path / "stream.journal"
        report = EpisodeReport(
            report_index=0,
            episode_id=0,
            trigger=OPEN,
            tick=1,
            diagnosed_at=1,
            pairs=(),
            diagnoses=(),
        )
        RunJournal(path, {"seed": 1}).append(report)
        with pytest.raises(ReproError):
            RunJournal(path, {"seed": 2}).load_completed()


class TestNoWallClockSleep:
    def test_replay_with_lg_retries_never_sleeps(self, monkeypatch):
        """The LG retry backoff is injectable and defaults to *no* sleep:
        a faulty replay with nd-lg in the mix must finish without ever
        touching ``time.sleep``."""

        def forbidden(_seconds):
            raise AssertionError("wall-clock sleep inside the test suite")

        monkeypatch.setattr(time, "sleep", forbidden)
        setup = make_replay_setup(
            seed=7, n_sensors=5, algorithms=("nd-edge", "nd-lg")
        )
        config = ReplayConfig(
            kind="link-1",
            episodes=1,
            incident_rounds=1,
            recovery_rounds=1,
            fault_rate=0.3,
            seed=7,
        )
        result = run_stream_replay(setup, config)
        assert result.events_total > 0

    def test_lg_lookup_retry_path_never_sleeps(self, monkeypatch):
        from repro.faults import FaultConfig, FaultPlan

        def forbidden(_seconds):
            raise AssertionError("wall-clock sleep inside the test suite")

        monkeypatch.setattr(time, "sleep", forbidden)
        setup = make_replay_setup(seed=11, n_sensors=4, algorithms=("nd-lg",))
        session = setup.session
        scenario = session.sampler.sample("link-1")
        plan = FaultPlan("11/lg-retries", FaultConfig.uniform(0.5))
        lookup = make_lg_lookup(
            session.sim,
            setup.lg_service,
            session.base_state,
            scenario.after_state,
            asx=setup.asx,
            faults=plan,
        )
        destination = session.sensors[0].address
        for autsys in list(session.net.ases())[:10]:
            lookup(autsys.asn, destination, "post")


class _SpyEngine:
    """Minimal engine-protocol double recording what the driver does."""

    def __init__(self):
        self.offered = []
        self.advanced = []
        self.reports = []
        self.on_report = None
        self.lg_lookup = None

    def offer(self, event):
        self.offered.append(event)
        return True

    def advance(self, tick):
        self.advanced.append(tick)
        return []

    def drain(self, _now):
        return []

    def flush(self, _now):
        return []

    def close(self):
        pass


class TestRunReplayProtocol:
    def test_run_replay_drives_any_engine_protocol_object(self):
        """run_replay only needs the engine protocol; the spy suffices."""
        engine = _SpyEngine()
        setup = make_replay_setup(seed=3, n_sensors=4)
        log = build_event_log(
            setup,
            ReplayConfig(
                kind="link-1",
                episodes=1,
                incident_rounds=1,
                recovery_rounds=1,
                seed=3,
            ),
        )
        reports = run_replay(log, engine)
        assert reports == []
        assert len(engine.offered) == len(log.events)
        assert engine.advanced == list(range(log.last_tick + 2))
