"""Golden pin of one seeded batch's ``-- runner stats`` accounting.

A small placement × failure batch runs with every accounting family
active — measurement faults, corruption, quarantine screening, an
ensemble diagnoser and a resumed journal — so each line of
:func:`~repro.experiments.report.render_runner_stats` and every counter
on :class:`~repro.experiments.runner.RunnerStats` and its
:class:`~repro.experiments.runner.PlacementStats` is non-trivial.  The
rendered block (minus its wall-clock ``time:``/``wall=`` lines) and the
``{name: value}`` maps are compared against a checked-in golden, so a
change to how the batch is counted, summed or rendered fails here.

Regenerate after an *intentional* change of accounting::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest tests/experiments/test_batch_accounting.py
"""

from __future__ import annotations

import json
import os
from dataclasses import fields, replace
from pathlib import Path

import pytest

from repro.diagnosers import make_diagnosers
from repro.experiments.jobs import CoreAsx, ResearchTopoFactory, StubPlacement
from repro.experiments.report import render_runner_stats
from repro.experiments.runner import RunnerStats, run_kind_batch
from repro.faults import FaultConfig

GOLDEN_PATH = Path(__file__).resolve().parent / "goldens" / "batch_accounting.json"

#: Wall-clock fields: never part of the golden.
TIMINGS = {"setup_seconds", "scenario_seconds", "wall_seconds"}


def run_resumed_batch(journal: Path) -> RunnerStats:
    """Run the batch once into ``journal``, then resume it into stats."""

    def batch(**kwargs):
        return run_kind_batch(
            ResearchTopoFactory(topo_seed=100),
            StubPlacement(8),
            ("link-1", "misconfig"),
            make_diagnosers(("nd-edge", "nd-bgpigp", "ensemble")),
            2,
            3,
            7,
            asx_selector=CoreAsx(),
            fault_config=replace(
                FaultConfig.uniform(0.15),
                hop_forge_rate=0.1,
                reach_flip_rate=0.1,
                feed_duplicate_rate=0.1,
                stale_replay_rate=0.1,
            ),
            validation="quarantine",
            lg_fraction=0.3,
            blocked_fraction=0.2,
            journal=journal,
            **kwargs,
        )

    batch()
    stats = RunnerStats()
    batch(resume=True, stats=stats)
    return stats


def stable_render(stats: RunnerStats):
    """The rendered block without its wall-clock lines."""
    return [
        line
        for line in render_runner_stats(stats).splitlines()
        if not line.startswith(("   time:", "   wall="))
    ]


def counters(obj, names):
    return {name: getattr(obj, name) for name in names}


def snapshot(stats: RunnerStats):
    """Rendered block plus every non-timing counter of the batch."""

    def all_counters(obj):
        skip = TIMINGS | {"per_placement"}
        return counters(obj, [f.name for f in fields(obj) if f.name not in skip])

    return {
        "render": stable_render(stats),
        "runner": all_counters(stats),
        "placements": [all_counters(p) for p in stats.per_placement],
    }


@pytest.fixture(scope="module")
def stats(tmp_path_factory):
    return run_resumed_batch(tmp_path_factory.mktemp("batch") / "batch.journal")


@pytest.fixture(scope="module")
def golden(stats):
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        GOLDEN_PATH.write_text(json.dumps(snapshot(stats), indent=1) + "\n")
    return json.loads(GOLDEN_PATH.read_text())


def test_runner_stats_block_matches_golden(stats, golden):
    assert stable_render(stats) == golden["render"]


def test_batch_counters_match_golden(stats, golden):
    assert counters(stats, golden["runner"]) == golden["runner"]
    assert len(stats.per_placement) == len(golden["placements"])
    for placement, expected in zip(stats.per_placement, golden["placements"]):
        assert counters(placement, expected) == expected
