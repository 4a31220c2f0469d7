"""Tests for the two command-line entry points."""

import json

import pytest

from repro.__main__ import main as repro_main
from repro.experiments.__main__ import main as figures_main


class TestTopLevelCli:
    def test_topology_command_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "topo.json"
        code = repro_main(
            [
                "topology",
                "--seed",
                "5",
                "--tier2",
                "3",
                "--stubs",
                "8",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["format"] == "repro-topology-v1"
        assert len(data["ases"]) == 14  # 3 cores + 3 tier-2 + 8 stubs
        assert "wrote" in capsys.readouterr().out

    def test_diagnose_command_reports_scores(self, capsys):
        code = repro_main(
            [
                "diagnose",
                "--kind",
                "link-1",
                "--sensors",
                "6",
                "--seed",
                "2",
                "--topo-seed",
                "200",
                "--algorithms",
                "tomo",
                "nd-edge",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ground truth:" in out
        assert "nd-edge" in out and "sensitivity=" in out

    def test_diagnose_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            repro_main(["diagnose", "--kind", "meteor"])


class TestFiguresCli:
    def test_single_figure_renders(self, capsys):
        code = figures_main(
            ["--figure", "5", "--placements", "1", "--failures", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "regenerated" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            figures_main(["--figure", "99"])


class TestReplayCli:
    def test_save_and_replay_roundtrip(self, tmp_path, capsys):
        archive = tmp_path / "case.json"
        code = repro_main(
            [
                "diagnose",
                "--kind",
                "link-1",
                "--sensors",
                "6",
                "--seed",
                "4",
                "--topo-seed",
                "210",
                "--save-scenario",
                str(archive),
            ]
        )
        assert code == 0
        assert archive.exists()
        capsys.readouterr()
        code = repro_main(["replay", str(archive), "--algorithms", "nd-edge"])
        assert code == 0
        out = capsys.readouterr().out
        assert "replaying:" in out
        assert "true-positives=" in out
        # The true link is marked in the replayed hypothesis listing.
        assert "**" in out

    def test_replay_rejects_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"format": "not-a-scenario"}')
        assert repro_main(["replay", str(bogus)]) == 2


class TestFiguresJsonExport:
    def test_json_out_writes_series_file(self, tmp_path, capsys):
        import json

        code = figures_main(
            [
                "--figure",
                "5",
                "--placements",
                "1",
                "--failures",
                "2",
                "--json-out",
                str(tmp_path),
            ]
        )
        assert code == 0
        data = json.loads((tmp_path / "fig5.json").read_text())
        assert data["figure_id"] == "fig5"
        assert data["series"]
        assert all("points" in s for s in data["series"])


class TestCorruptionCli:
    def test_corrupt_sweep_defaults_to_quarantine(self, capsys):
        code = repro_main(
            [
                "degradation",
                "--corrupt",
                "--rates",
                "0.2",
                "--placements",
                "1",
                "--failures",
                "2",
                "--sensors",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "corruption rate (validation=quarantine)" in out
        assert "corruption: hops forged=" in out
        assert "validation: violations=" in out

    def test_validation_flag_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            repro_main(["degradation", "--validation", "lenient"])

    def test_resume_without_journal_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            repro_main(["degradation", "--rates", "0", "--resume"])
        assert exit_info.value.code == 2
        assert "--resume needs --journal" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_strict_sweep_over_corrupt_data_exits_2(self, workers, capsys):
        """The first placement's strict check stops the sweep, in-process
        or in a worker, with its own one-line error."""
        code = repro_main(
            [
                "degradation", "--corrupt", "--validation", "strict",
                "--rates", "0.5", "--placements", "2", "--failures", "2",
                "--sensors", "6", "--workers", workers,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invariant 'trace-dup' violated by probe "
            "10.11.191.254->10.12.127.254 [pre]: hop 10 repeats 10.1.160.1"
        ]


class TestDegradationJournal:
    def test_interrupt_names_the_resume_command(self, monkeypatch, capsys):
        from repro.experiments.figures import degradation

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(degradation, "run", interrupt)
        code = repro_main(
            ["degradation", "--rates", "0", "--journal", "sweep.journal"]
        )
        assert code == 130
        assert (
            "resume with: python -m repro degradation ... "
            "--journal sweep.journal --resume"
        ) in capsys.readouterr().err

    def test_another_runs_journal_is_refused_before_the_batch(
        self, tmp_path, capsys
    ):
        """Without --resume too: a second sweep must not append its
        placements under the first sweep's header."""
        journal = tmp_path / "sweep"
        args = [
            "degradation", "--rates", "0", "--placements", "1",
            "--failures", "1", "--sensors", "6", "--journal", str(journal),
        ]
        assert repro_main(args + ["--seed", "1"]) == 0
        capsys.readouterr()
        written = (tmp_path / "sweep.rate0.00").read_bytes()
        assert repro_main(args + ["--seed", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "different run" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert (tmp_path / "sweep.rate0.00").read_bytes() == written


class TestTypedErrorsExitCleanly:
    """Both entry points catch the typed pipeline errors: one line on
    stderr, exit code 2, no traceback."""

    @pytest.mark.parametrize(
        "error_type", ["TopologyError", "ControlPlaneFeedError", "ValidationError"]
    )
    def test_top_level_cli(self, error_type, monkeypatch, capsys):
        import repro.__main__ as cli
        from repro import errors

        if error_type == "ValidationError":
            error = errors.ValidationError("trace-loop", "probe a->b [post]")
        else:
            error = getattr(errors, error_type)("injected for the test")

        def explode(args):
            raise error

        monkeypatch.setattr(cli, "_cmd_topology", explode)
        code = cli.main(["topology"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_figures_cli(self, monkeypatch, capsys):
        from repro import errors
        from repro.experiments.figures import FIGURES

        def explode(config):
            raise errors.ValidationError("feed-order", "igp message #3")

        monkeypatch.setitem(FIGURES, "5", explode)
        code = figures_main(["--figure", "5"])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: " in captured.err
        assert "feed-order" in captured.err

    def test_strict_validation_error_is_one_line(self, monkeypatch, capsys):
        """The rendered message names invariant and record, on one line."""
        from repro import errors

        error = errors.ValidationError(
            "trace-epoch", "probe 10.0.0.1->10.0.9.9 [post]", "stale tag"
        )
        assert "trace-epoch" in str(error)
        assert "\n" not in str(error)
