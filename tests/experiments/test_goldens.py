"""Golden-figure smoke tests.

Fig 6 and Fig 10 are rendered at a deliberately tiny scale and their
stable lines — series points and summary statistics, everything except
wall-clock accounting — are compared against checked-in goldens.  A
runner refactor (parallel backend, job restructuring, RNG plumbing) that
silently shifts any experimental result fails here first.

Regenerate after an *intentional* change of results::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/experiments/test_goldens.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.figures import fig6_tomo, fig10_bgpigp
from repro.experiments.figures.base import FigureConfig, FigureResult

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

#: Tiny but non-degenerate: one placement over the full 165-AS topology.
SMOKE_CONFIG = FigureConfig(
    seed=0, topo_seed=100, placements=1, failures_per_placement=3, n_sensors=8
)


def stable_lines(result: FigureResult) -> str:
    """The deterministic content of a figure result, one line per datum.

    Timings (``runner_stats``) and rendering cosmetics are excluded:
    this is the data a refactor must not move.
    """
    lines = [f"{result.figure_id}: {result.title}"]
    for series in result.series:
        for x, y in series.points:
            lines.append(f"series {series.name} {x:.9f} {y:.9f}")
    for name in sorted(result.summaries):
        summary = result.summaries[name]
        parts = " ".join(
            f"{key}={summary[key]:.9f}" for key in sorted(summary)
        )
        lines.append(f"summary {name} {parts}")
    return "\n".join(lines) + "\n"


def check_golden(result: FigureResult) -> None:
    golden_path = GOLDEN_DIR / f"{result.figure_id}.txt"
    text = stable_lines(result)
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden_path.write_text(text)
        pytest.skip(f"golden regenerated at {golden_path}")
    assert golden_path.exists(), (
        f"missing golden {golden_path}; regenerate with "
        "REPRO_UPDATE_GOLDENS=1"
    )
    assert text == golden_path.read_text(), (
        f"{result.figure_id} drifted from its golden — if the change is "
        "intentional, regenerate with REPRO_UPDATE_GOLDENS=1"
    )


class TestGoldenFigures:
    def test_fig6_matches_golden(self):
        check_golden(fig6_tomo.run(SMOKE_CONFIG))

    def test_fig10_matches_golden(self):
        check_golden(fig10_bgpigp.run(SMOKE_CONFIG))
