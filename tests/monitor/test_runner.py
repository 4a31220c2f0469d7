"""End-to-end monitoring runs: determinism, resume, scoring acceptance.

The headline guarantees of the flight recorder live here:

* a scenario run is a pure function of ``(seed, config)`` — serial,
  ``shards=4``, chaos-injected and journal-resumed runs are
  bit-identical, down to the rendered report lines;
* the blocked-vs-failed classifier scores >= 0.9 precision AND recall
  against the seeded ground truth on every trouble scenario.
"""

import pytest

from repro.errors import MonitorError
from repro.experiments.journal import RunJournal
from repro.monitor import render_monitor_report, run_monitor, scenario
from repro.stream.replay import make_replay_setup


def deterministic_lines(result):
    """The seeded half of the report (the ``-- monitor`` block is wall clock)."""
    return [
        line
        for line in render_monitor_report(result).splitlines()
        if line.startswith("  report ")
    ]


def outcome(result):
    """Every seeded product of a run, for bit-identity comparison."""
    return (
        result.reports,
        result.recorder.intervals,
        [i.verdict for i in result.recorder.intervals],
        result.detection,
        result.classifier,
        result.quality,
        result.schedule.outages,
        result.events_total,
        result.observations_skipped,
        deterministic_lines(result),
    )


class TestBitIdentity:
    def test_sharded_worker_run_matches_serial(self, monitor_setup):
        config = scenario("mixed-ops", 600)
        serial = run_monitor(monitor_setup, config, seed=3)
        sharded = run_monitor(monitor_setup, config, seed=3, shards=4)
        assert outcome(sharded) == outcome(serial)
        assert serial.recorder.intervals  # the comparison must be non-vacuous
        assert sharded.shard_stats is not None

    def test_journalled_resume_matches_serial(self, monitor_setup, tmp_path):
        config = scenario("flaky-core", 600)
        fingerprint = {"format": "repro-monitor-journal", "scenario": "flaky-core"}
        journal = RunJournal(tmp_path / "monitor.journal", fingerprint)
        first = run_monitor(monitor_setup, config, seed=11, journal=journal)
        assert first.reports

        cached = RunJournal(
            tmp_path / "monitor.journal", fingerprint
        ).load_completed()
        assert sorted(cached) == [r.report_index for r in first.reports]
        resumed = run_monitor(
            monitor_setup, config, seed=11,
            shards=4, cached_reports=cached,
        )
        assert outcome(resumed) == outcome(first)
        assert resumed.engine_counters["reports_reused"] == len(first.reports)

    def test_chaos_injection_is_deterministic(self, monitor_setup):
        config = scenario("flaky-core", 400)
        runs = [
            run_monitor(
                monitor_setup, config, seed=5, shards=2, chaos_rate=0.05
            )
            for _ in range(2)
        ]
        assert outcome(runs[0]) == outcome(runs[1])
        assert runs[0].supervision is not None


class TestScoringAcceptance:
    @pytest.mark.parametrize(
        "name", ["flaky-core", "srlg-storm", "blocked-as", "mixed-ops"]
    )
    def test_classifier_beats_point_nine_on_every_trouble_scenario(
        self, monitor_setup, name
    ):
        result = run_monitor(monitor_setup, scenario(name, 1200), seed=5)
        assert result.recorder.intervals, f"{name} produced nothing to score"
        score = result.classifier
        assert score.scored > 0
        assert score.precision_blocked >= 0.9
        assert score.recall_blocked >= 0.9
        assert score.precision_failed >= 0.9
        assert score.recall_failed >= 0.9

    def test_blocked_scenario_actually_exercises_the_blocked_class(
        self, monitor_setup
    ):
        result = run_monitor(monitor_setup, scenario("blocked-as", 1200), seed=5)
        assert result.classifier.tp > 0  # true blocked verdicts exist
        assert result.lg_queries > 0

    def test_detection_finds_the_scheduled_outages(self, monitor_setup):
        result = run_monitor(monitor_setup, scenario("flaky-core", 1200), seed=5)
        assert result.detection.outages_total > 0
        assert result.detection.detected_fraction >= 0.9
        # Confirmation takes open_after consecutive failures, so latency
        # is at least open_after - 1 and should stay near it.
        assert result.detection.latency_mean >= result.config.open_after - 1

    def test_steady_scenario_is_perfectly_quiet(self, monitor_setup):
        result = run_monitor(monitor_setup, scenario("steady", 400), seed=5)
        assert result.schedule.outages == ()
        assert result.recorder.intervals == []
        assert result.detection.false_alarms == 0
        assert all(q.availability == 1.0 for q in result.quality)


class TestRunMechanics:
    def test_diurnal_cycle_thins_the_probe_load(self, monitor_setup):
        result = run_monitor(
            monitor_setup, scenario("diurnal-noise", 300), seed=5
        )
        assert result.observations_skipped > 0
        full = run_monitor(monitor_setup, scenario("steady", 300), seed=5)
        assert result.events_total < full.events_total

    def test_run_accounting_is_sane(self, monitor_setup):
        result = run_monitor(monitor_setup, scenario("steady", 200), seed=5)
        assert result.pairs_monitored > 0
        assert result.events_per_second > 0
        assert result.engine_counters["events_offered"] == result.events_total

    def test_monitoring_requires_a_looking_glass(self):
        blind = make_replay_setup(seed=7, n_stub=10, algorithms=("tomo",))
        with pytest.raises(MonitorError, match="Looking Glass"):
            run_monitor(blind, scenario("steady", 50))
