"""CLI tests for ``python -m repro monitor``: listing, runs, resume, exit
codes — and the SIGINT contract, which needs a real subprocess because
the in-process harness cannot deliver a genuine interrupt."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.__main__ import main as repro_main

FAST_ARGS = [
    "monitor",
    "--scenario",
    "flaky-core",
    "--ticks",
    "300",
    "--seed",
    "4",
    "--stubs",
    "20",
]


class TestMonitorCli:
    def test_list_scenarios(self, capsys):
        assert repro_main(["monitor", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "steady" in out
        assert "mixed-ops" in out
        assert "blocked-as" in out

    def test_run_renders_the_flight_recorder_report(self, capsys):
        assert repro_main(FAST_ARGS) == 0
        out = capsys.readouterr().out
        assert "=== monitor flaky-core (300 ticks, seed 4) ===" in out
        assert "  report scenario flaky-core" in out
        assert "  report timeline [" in out
        assert "  report intervals" in out
        assert "flaps=" in out
        assert "  report detection" in out
        assert "  report classifier" in out
        assert "-- monitor" in out

    def test_sharded_run_matches_serial_reports(self, capsys):
        assert repro_main(FAST_ARGS) == 0
        serial = capsys.readouterr().out
        assert repro_main(FAST_ARGS + ["--shards", "4"]) == 0
        sharded = capsys.readouterr().out

        def seeded(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith("  report ")
            ]

        assert seeded(serial) == seeded(sharded)

    def test_resume_reuses_journaled_reports(self, tmp_path, capsys):
        journal = tmp_path / "monitor.journal"
        args = FAST_ARGS + ["--journal", str(journal)]
        assert repro_main(args) == 0
        first = capsys.readouterr().out
        assert repro_main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "reused=0" in first
        assert "reused=0" not in resumed

        def seeded(text):
            return [
                line
                for line in text.splitlines()
                if line.startswith("  report ")
            ]

        assert seeded(first) == seeded(resumed)

    def test_resume_refuses_a_journal_of_another_deployment(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "monitor.journal"
        args = FAST_ARGS + ["--journal", str(journal)]
        assert repro_main(args + ["--sensors", "5"]) == 0
        capsys.readouterr()
        assert repro_main(args + ["--sensors", "7", "--resume"]) == 2
        captured = capsys.readouterr()
        assert "reused=" not in captured.out
        assert captured.err.startswith("error: ")
        assert "different run" in captured.err

    def test_a_chaos_journal_without_the_chaos_modes_is_refused(
        self, tmp_path, capsys
    ):
        """As for stream: a chaos run's fingerprint names the chaos
        modes, and a journal holding only the rate is refused."""
        import pickle

        journal = tmp_path / "monitor.journal"
        args = FAST_ARGS + ["--chaos", "0.05", "--journal", str(journal)]
        assert repro_main(args) == 0
        capsys.readouterr()
        with open(journal, "rb") as handle:
            header = pickle.load(handle)
            records = handle.read()
        del header["fingerprint"]["chaos_modes"]
        journal.write_bytes(pickle.dumps(header) + records)
        written = journal.read_bytes()
        assert repro_main(args + ["--resume"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "different run" in captured.err
        assert journal.read_bytes() == written

    def test_resume_without_journal_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(FAST_ARGS + ["--resume"])
        assert exit_info.value.code == 2
        assert "--resume needs --journal" in capsys.readouterr().err

    def test_unknown_scenario_exits_2_with_one_line_stderr(self, capsys):
        code = repro_main(["monitor", "--scenario", "no-such-thing"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "unknown scenario" in err

    def test_bad_retention_exits_2(self, capsys):
        code = repro_main(FAST_ARGS + ["--retention", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "retention" in err


@pytest.mark.slow
class TestSigint:
    def test_sigint_checkpoints_and_exits_130(self, tmp_path):
        journal = tmp_path / "monitor.journal"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "monitor",
                "--scenario",
                "mixed-ops",
                "--ticks",
                "200000",
                "--journal",
                str(journal),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            # Give it time to get past setup and into the run, then interrupt.
            time.sleep(15)
            process.send_signal(signal.SIGINT)
            _, err = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 130
        assert "interrupted" in err
        assert "--resume" in err
