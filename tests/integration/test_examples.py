"""Smoke tests for the example scripts: each one runs end to end
in-process, and one line of its output is checked.
"""

import pathlib
import runpy
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name, argv=()):
    saved = sys.argv
    sys.argv = [str(EXAMPLES / name), *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = saved


class TestExamples:
    def test_quickstart_runs(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "ground truth:" in out
        assert "nd-bgpigp" in out

    def test_misconfiguration_example_runs(self, capsys):
        run_example("misconfiguration_diagnosis.py")
        out = capsys.readouterr().out
        assert "ND-edge hypothesis" in out
        assert "per-neighbour split" in out

    def test_blocked_traceroute_example_runs(self, capsys):
        run_example("blocked_traceroute_localization.py")
        out = capsys.readouterr().out.splitlines()
        verdict = next(line for line in out if line.startswith("nd-lg:"))
        assert verdict.endswith("-> FOUND")

    def test_placement_study_runs(self, capsys):
        run_example("placement_study.py")
        out = capsys.readouterr().out
        assert "largest confusable class" in out

    def test_isp_noc_workflow_runs(self, capsys):
        run_example("isp_noc_workflow.py")
        out = capsys.readouterr().out
        assert "[verdict] detected 2/2 failed links" in out

    def test_all_examples_present(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "misconfiguration_diagnosis.py",
            "blocked_traceroute_localization.py",
            "placement_study.py",
            "isp_noc_workflow.py",
        } <= names
