"""The acceptance contract for the self-healing layer: a seeded chaos
replay (shard crashes + stalls + slow shards) completes with zero
unhandled exceptions and no failed diagnosis, accounts every offered
event exactly once, and re-running the same seed is bit-identical —
including the full incident schedule and every recovery."""

from dataclasses import replace

import pytest

from repro.__main__ import main as repro_main
from repro.stream import (
    ReplayConfig,
    build_event_log,
    make_replay_setup,
    run_replay,
    run_stream_replay,
)
from repro.stream.replay import build_engine

SETUP_ARGS = dict(seed=7, n_sensors=6)
CHAOS_CONFIG = ReplayConfig(
    kind="link-1",
    episodes=2,
    incident_rounds=2,
    recovery_rounds=2,
    seed=7,
    chaos_rate=0.15,
)
#: The same chaos over a corrupted log: screening quarantines events on
#: shards that then crash.
CORRUPT_CHAOS_CONFIG = replace(CHAOS_CONFIG, fault_rate=0.2, corrupt=True)


def _chaos_run(config=CHAOS_CONFIG, **kwargs):
    # A fresh setup per run: the session sampler is stateful, so two
    # runs over ONE setup would stream different scenarios.
    return run_stream_replay(make_replay_setup(**SETUP_ARGS), config, **kwargs)


@pytest.fixture(scope="module")
def chaos_result():
    return _chaos_run()


@pytest.fixture(scope="module")
def corrupt_chaos_result():
    return _chaos_run(CORRUPT_CHAOS_CONFIG)


class TestChaosCompletion:
    def test_chaos_replay_completes_and_reports(self, chaos_result):
        """Crashes and stalls both fire on this seed — and the run still
        finishes every injected episode with every diagnosis intact:
        shard chaos delays inputs, it never fails a diagnoser."""
        assert chaos_result.supervision is not None
        counters = chaos_result.supervision["counters"]
        assert counters["shard_crashes"] > 0
        assert counters["shard_stalls"] > 0
        assert counters["recoveries"] == (
            counters["shard_crashes"] + counters["shard_stalls"]
        )
        assert chaos_result.reports  # verdicts were still produced
        assert chaos_result.engine_counters["diagnoses_failed"] == 0
        assert all(
            diagnosis.error is None
            for report in chaos_result.reports
            for diagnosis in report.diagnoses
        )

    @pytest.mark.parametrize(
        "config, run",
        [
            pytest.param(CHAOS_CONFIG, "chaos_result", id="clean"),
            pytest.param(CORRUPT_CHAOS_CONFIG, "corrupt_chaos_result", id="corrupt"),
        ],
    )
    def test_every_offered_event_is_accounted_exactly_once(
        self, request, config, run
    ):
        """offered == admitted + shed + rejected + quarantined +
        dead-lettered: chaos may delay or park events, never lose one
        silently.  Every event is screened exactly once, as in the
        chaos-free run of the same log."""
        result = request.getfixturevalue(run)
        engine = result.engine_counters
        ingest = result.ingest_counters
        assert engine["events_offered"] == (
            engine["events_admitted"]
            + engine["admission_shed"]
            + engine["admission_rejected_unknown"]
            + ingest["events_quarantined"]
            + engine["events_dead_lettered"]
        )
        calm = _chaos_run(replace(config, chaos_rate=0.0))
        assert calm.supervision is None
        assert ingest == calm.ingest_counters

    def test_recoveries_leave_nothing_dark_at_flush(self):
        """Every shard that crashed or stalled is running again once the
        stream is flushed, on the clean and on the corrupted log."""
        for config in (CHAOS_CONFIG, CORRUPT_CHAOS_CONFIG):
            setup = make_replay_setup(**SETUP_ARGS)
            engine = build_engine(
                dict(
                    asn_of=setup.session.sim.mapper.asn_of,
                    diagnosers=setup.diagnosers,
                    asx=setup.asx,
                ),
                seed=config.seed,
                chaos_rate=config.chaos_rate,
            )
            run_replay(build_event_log(setup, config), engine)
            supervision = engine.supervision_stats()
            counters = supervision["counters"]
            assert counters["shard_crashes"] > 0 and counters["shard_stalls"] > 0
            recoveries = supervision["ticks_to_recover"]
            assert len(recoveries) == counters["recoveries"]
            assert all(ticks >= 0 for ticks in recoveries)
            assert supervision["dead_letters"] == (
                counters["events_dead_lettered"]
            )
            assert [
                engine.supervisor.status(shard.index) for shard in engine.shards
            ] == ["running"] * len(engine.shards), config


class TestChaosDeterminism:
    def test_same_seed_is_bit_identical(self, chaos_result):
        again = _chaos_run()
        assert again.reports == chaos_result.reports
        assert again.episodes == chaos_result.episodes
        # The whole supervision record replays: incident schedule,
        # recovery times, dead letters.
        assert again.supervision == chaos_result.supervision
        assert again.engine_counters == chaos_result.engine_counters
        assert again.ingest_counters == chaos_result.ingest_counters

    def test_chaos_rate_zero_never_supervises_by_accident(self):
        config = ReplayConfig(
            kind="link-1",
            episodes=1,
            incident_rounds=1,
            recovery_rounds=1,
            seed=7,
        )
        result = run_stream_replay(make_replay_setup(**SETUP_ARGS), config)
        assert result.supervision is None


class TestChaosCli:
    FAST_ARGS = [
        "stream",
        "--kind",
        "link-1",
        "--episodes",
        "1",
        "--sensors",
        "5",
        "--seed",
        "4",
    ]

    def test_chaos_flag_renders_the_supervision_block(self, capsys):
        assert repro_main(self.FAST_ARGS + ["--chaos", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "chaos=0.15" in out
        assert "supervision:" in out
        assert "recoveries=" in out

    def test_dlq_journal_is_written_and_inspectable(self, tmp_path, capsys):
        dlq = tmp_path / "dead.jsonl"
        assert (
            repro_main(self.FAST_ARGS + ["--dlq", str(dlq)]) == 0
        )
        capsys.readouterr()
        assert dlq.exists()
        code = repro_main(
            self.FAST_ARGS + ["--dlq", str(dlq), "--dlq-inspect"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dead letters" in out

    def test_dlq_inspect_without_path_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(self.FAST_ARGS + ["--dlq-inspect"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "--dlq-inspect needs --dlq" in captured.err
        assert captured.out == ""

    def test_dlq_inspect_refuses_a_malformed_entry(self, tmp_path, capsys):
        """Valid JSON of the wrong shape is a typed error: one ``error:``
        line and exit 2, not a traceback."""
        dlq = tmp_path / "dead.jsonl"
        dlq.write_text('{"format": "repro-dlq-v1"}\n[1, 2]\n')
        code = repro_main(
            self.FAST_ARGS + ["--dlq", str(dlq), "--dlq-inspect"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "entry 0" in captured.err
