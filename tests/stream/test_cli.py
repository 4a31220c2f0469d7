"""CLI tests for ``python -m repro stream``: happy path, resume, and the
exit-code contract for typed stream errors and usage errors."""

import pytest

from repro.__main__ import main as repro_main

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


class TestStreamCli:
    def test_replay_renders_reports_and_stats(self, capsys):
        assert repro_main(FAST_ARGS) == 0
        out = capsys.readouterr().out
        assert "stream replay @ fault rate 0" in out
        assert "injected episode 0:" in out
        assert "-- stream replay" in out
        assert "latency (ticks):" in out

    def test_corrupt_replay_quarantines_without_crashing(self, capsys):
        code = repro_main(
            FAST_ARGS
            + ["--rates", "0.1", "--corrupt", "--policy", "quarantine"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quarantined=" in out

    def test_saved_log_is_replayable(self, tmp_path):
        from repro.stream import load_event_log

        log = tmp_path / "events.jsonl"
        assert repro_main(FAST_ARGS + ["--save-log", str(log)]) == 0
        assert len(load_event_log(log)) > 0

    def test_resume_reuses_journaled_reports(self, tmp_path, capsys):
        journal = tmp_path / "stream.journal"
        args = FAST_ARGS + ["--journal", str(journal)]
        assert repro_main(args) == 0
        first = capsys.readouterr().out
        assert repro_main(args + ["--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "reused=0" in first
        assert "reused=0" not in resumed

    def test_stream_error_exits_2_with_one_line_stderr(self, capsys):
        code = repro_main(FAST_ARGS + ["--window", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "window width" in err

    def test_resume_refuses_a_journal_of_another_deployment(
        self, tmp_path, capsys
    ):
        """Diagnosers and sensors shape the reports, so a journal written
        with others must not be reprinted as this run's verdicts."""
        journal = tmp_path / "stream.journal"
        args = FAST_ARGS + ["--journal", str(journal)]
        assert repro_main(args) == 0
        capsys.readouterr()
        for changed in (["--algorithms", "nd-edge"], ["--sensors", "8"]):
            assert repro_main(args + changed + ["--resume"]) == 2
            captured = capsys.readouterr()
            assert "reused=" not in captured.out
            assert "different run" in captured.err

    def test_journal_mismatch_exits_2_with_one_error_line(
        self, tmp_path, capsys
    ):
        journal = tmp_path / "stream.journal"
        args = FAST_ARGS + ["--journal", str(journal)]
        assert repro_main(args) == 0
        capsys.readouterr()
        assert repro_main(args + ["--resume", "--policy", "strict"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_another_runs_journal_is_refused_before_the_replay(
        self, tmp_path, capsys
    ):
        """Without --resume too: a second run must not append its reports
        under the first run's header."""
        journal = tmp_path / "stream.journal"
        assert repro_main(FAST_ARGS + ["--journal", str(journal)]) == 0
        capsys.readouterr()
        written = (tmp_path / "stream.journal.rate0.0").read_bytes()
        other_seed = FAST_ARGS[:-1] + ["5", "--journal", str(journal)]
        assert repro_main(other_seed) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert (tmp_path / "stream.journal.rate0.0").read_bytes() == written

    def test_a_later_rates_foreign_journal_is_refused_before_any_replay(
        self, tmp_path, capsys
    ):
        """Every rate's journal is opened before the first replay: a
        foreign journal for the second rate must not let the first rate
        replay, print its reports or write its own journal."""
        journal = tmp_path / "stream.journal"
        base = FAST_ARGS[:-2] + ["--journal", str(journal)]
        assert repro_main(base + ["--rates", "0", "--seed", "0"]) == 0
        capsys.readouterr()
        written = (tmp_path / "stream.journal.rate0.0").read_bytes()
        code = repro_main(base + ["--rates", "0.5", "0", "--seed", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "different run" in captured.err
        assert not (tmp_path / "stream.journal.rate0.5").exists()
        assert (tmp_path / "stream.journal.rate0.0").read_bytes() == written


    def test_a_journal_from_before_tuple_tokens_is_refused(
        self, tmp_path, capsys, dataclass_era_record
    ):
        """A v1 journal (its reports' token frozensets pickled as
        dataclasses) is refused when opened, with or without --resume:
        one error line, exit 2, and the file keeps its bytes."""
        import pickle

        journal = tmp_path / "stream.journal"
        args = FAST_ARGS + ["--journal", str(journal)]
        assert repro_main(args) == 0
        capsys.readouterr()
        path = tmp_path / "stream.journal.rate0.0"
        with open(path, "rb") as handle:
            header = pickle.load(handle)
        header["format"] = "repro-run-journal-v1"
        path.write_bytes(pickle.dumps(header) + dataclass_era_record)
        written = path.read_bytes()
        for extra in ([], ["--resume"]):
            assert repro_main(args + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert len(captured.err.strip().splitlines()) == 1
            assert "is not a repro-run-journal-v2 journal" in captured.err
            assert path.read_bytes() == written

    def test_a_chaos_journal_without_the_chaos_modes_is_refused(
        self, tmp_path, capsys
    ):
        """A chaos run's fingerprint names the chaos modes, so a journal
        whose header holds only the chaos rate (written under another
        set of modes, its reports may carry their failures) is refused
        with or without --resume: one error line, exit 2, and the file
        keeps its bytes."""
        import pickle

        journal = tmp_path / "stream.journal"
        args = FAST_ARGS + ["--chaos", "0.15", "--journal", str(journal)]
        assert repro_main(args) == 0
        capsys.readouterr()
        path = tmp_path / "stream.journal.rate0.0"
        with open(path, "rb") as handle:
            header = pickle.load(handle)
            records = handle.read()
        del header["fingerprint"]["chaos_modes"]
        path.write_bytes(pickle.dumps(header) + records)
        written = path.read_bytes()
        for extra in ([], ["--resume"]):
            assert repro_main(args + extra) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert len(captured.err.strip().splitlines()) == 1
            assert "different run" in captured.err
            assert path.read_bytes() == written

    def test_a_journal_without_chaos_keeps_its_fingerprint(
        self, tmp_path, capsys
    ):
        """Runs without chaos fingerprint as before the chaos modes were
        added, so their journals still resume."""
        import pickle

        journal = tmp_path / "stream.journal"
        args = FAST_ARGS + ["--journal", str(journal)]
        assert repro_main(args) == 0
        capsys.readouterr()
        with open(tmp_path / "stream.journal.rate0.0", "rb") as handle:
            fingerprint = pickle.load(handle)["fingerprint"]
        assert sorted(fingerprint) == [
            "config", "format", "policy", "setup", "tenants", "window",
        ]
        assert repro_main(args + ["--resume"]) == 0
        assert "reused=0" not in capsys.readouterr().out


class TestStreamUsageErrors:
    """Flags whose prerequisite is missing are refused, not ignored."""

    def usage_error(self, capsys, extra):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(FAST_ARGS + extra)
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    def test_tenant_rate_without_tenants(self, capsys):
        err = self.usage_error(capsys, ["--tenant-rate", "1"])
        assert "--tenant-rate requires --tenants" in err

    def test_negative_tenants(self, capsys):
        err = self.usage_error(capsys, ["--tenants", "-3"])
        assert "--tenants must be >= 0" in err

    def test_resume_without_journal(self, capsys):
        err = self.usage_error(capsys, ["--resume"])
        assert "--resume needs --journal" in err

    def test_save_log_takes_one_rate(self, tmp_path, capsys):
        """Each rate replays its own log, so one path cannot hold several;
        one rate writes exactly the given path."""
        log = tmp_path / "events.jsonl"
        err = self.usage_error(
            capsys, ["--rates", "0", "0.5", "--save-log", str(log)]
        )
        assert "--save-log takes one --rates value" in err
        assert not log.exists()
        args = FAST_ARGS + ["--rates", "0.5", "--save-log", str(log)]
        assert repro_main(args) == 0
        assert sorted(tmp_path.iterdir()) == [log]

    def test_dlq_takes_one_rate(self, tmp_path, capsys):
        """Each rate's replay opens the dead-letter journal afresh, so one
        path cannot hold several rates; inspecting ignores --rates."""
        dlq = tmp_path / "dead.jsonl"
        err = self.usage_error(
            capsys, ["--rates", "0", "0.5", "--dlq", str(dlq)]
        )
        assert "--dlq takes one --rates value" in err
        assert not dlq.exists()
        assert repro_main(FAST_ARGS + ["--rates", "0.5", "--dlq", str(dlq)]) == 0
        assert sorted(tmp_path.iterdir()) == [dlq]
        capsys.readouterr()
        inspect = ["--rates", "0", "0.5", "--dlq", str(dlq), "--dlq-inspect"]
        assert repro_main(FAST_ARGS + inspect) == 0
        assert capsys.readouterr().out.startswith("=== dead letters (")
