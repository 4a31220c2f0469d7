"""Ensemble verdicts in the streaming engine: the golden-parity contract
(`shards=4` bit-identical to serial, including journalled
resume) with ``ensemble`` among the per-episode diagnosers, plus the
engine's verdict counters."""

import pytest

from repro.experiments.journal import RunJournal
from repro.stream import ReplayConfig, make_replay_setup, run_stream_replay

SETUP_ARGS = dict(seed=3, n_sensors=6, algorithms=("nd-edge", "ensemble"))
CONFIG = ReplayConfig(
    kind="link-1",
    episodes=2,
    incident_rounds=2,
    recovery_rounds=2,
    fault_rate=0.1,
    seed=3,
)


@pytest.fixture(scope="module")
def serial_result():
    return run_stream_replay(make_replay_setup(**SETUP_ARGS), CONFIG)


class TestEnsembleStreaming:
    def test_replay_produces_verdicts(self, serial_result):
        diagnosed = [
            d
            for report in serial_result.reports
            for d in report.diagnoses
            if d.algorithm == "ensemble" and not d.error
        ]
        assert diagnosed  # the scenario exercised the ensemble
        for diagnosis in diagnosed:
            assert diagnosis.verdict in ("agree", "partial", "conflict")

    def test_non_ensemble_diagnoses_have_no_verdict(self, serial_result):
        for report in serial_result.reports:
            for diagnosis in report.diagnoses:
                if diagnosis.algorithm != "ensemble":
                    assert diagnosis.verdict is None

    def test_engine_counters_tally_the_verdicts(self, serial_result):
        counters = serial_result.engine_counters
        live = [
            d.verdict
            for report in serial_result.reports
            for d in report.diagnoses
            if d.verdict is not None
        ]
        assert counters["ensemble_agree"] == live.count("agree")
        assert counters["ensemble_partial"] == live.count("partial")
        assert counters["ensemble_conflict"] == live.count("conflict")
        assert sum(
            counters[k]
            for k in ("ensemble_agree", "ensemble_partial", "ensemble_conflict")
        ) == len(live)

    def test_sharded_parallel_replay_is_bit_identical(self, serial_result):
        sharded = run_stream_replay(
            make_replay_setup(**SETUP_ARGS), CONFIG, shards=4
        )
        assert sharded.reports == serial_result.reports
        assert sharded.episodes == serial_result.episodes
        for key in ("ensemble_agree", "ensemble_partial", "ensemble_conflict"):
            assert sharded.engine_counters[key] == serial_result.engine_counters[key]

    def test_journal_resume_preserves_verdicts(self, tmp_path, serial_result):
        """An interrupted serial run resumes sharded with every
        completed report (verdict fields included) reused bit-identically."""
        fingerprint = {"format": "repro-stream-journal", "config": CONFIG}
        journal = RunJournal(tmp_path / "stream.journal", fingerprint)
        first = run_stream_replay(
            make_replay_setup(**SETUP_ARGS), CONFIG, journal=journal
        )
        assert first.reports == serial_result.reports
        cached = journal.load_completed()
        resumed = run_stream_replay(
            make_replay_setup(**SETUP_ARGS),
            CONFIG,
            shards=4,
            cached_reports=cached,
        )
        assert resumed.reports == first.reports
        assert resumed.engine_counters["reports_reused"] == len(first.reports)
        reused_verdicts = [
            d.verdict
            for report in resumed.reports
            for d in report.diagnoses
            if d.algorithm == "ensemble" and not d.error
        ]
        assert reused_verdicts
        assert all(v in ("agree", "partial", "conflict") for v in reused_verdicts)


class TestEnsembleStreamCli:
    def test_stream_accepts_the_diagnosers_alias(self, capsys):
        from repro.__main__ import main as repro_main

        code = repro_main(
            [
                "stream",
                "--kind",
                "link-1",
                "--episodes",
                "1",
                "--sensors",
                "5",
                "--seed",
                "4",
                "--diagnosers",
                "nd-edge",
                "ensemble",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ensemble verdicts:" in out
        assert "[agree]" in out or "[partial]" in out or "[conflict]" in out
