"""Determinism harness for the parallel experiment runner.

The contract under test: ``run_kind_batch(..., workers=n)`` returns
**bit-identical** record lists to the serial path for any ``n``, because
every placement job reproduces the historical per-placement RNG seeding
(``f"{seed}/{i}"``) in an isolated process.  ``scaling_sweep`` points
must likewise match serially on every non-timing field.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.experiments.jobs import (
    CoreAsx,
    RandomStubAsx,
    ResearchTopoFactory,
    StubPlacement,
)
from repro.experiments.runner import (
    RunnerStats,
    build_placement_jobs,
    resolve_workers,
    run_kind_batch,
)
from repro.experiments.scaling import scaling_sweep

#: A small, fast batch that still exercises AS-X, blocking and LGs.
SMALL_BATCH = dict(
    topo_factory=ResearchTopoFactory(topo_seed=7, n_tier2=4, n_stub=16),
    placement_fn=StubPlacement(5),
    kinds=("link-1", "misconfig"),
    diagnosers={
        "tomo": NetDiagnoser("tomo"),
        "nd-edge": NetDiagnoser("nd-edge"),
        "nd-bgpigp": NetDiagnoser("nd-bgpigp"),
    },
    placements=3,
    failures_per_placement=3,
    seed=0,
    asx_selector=CoreAsx(),
    blocked_fraction=0.2,
    lg_fraction=0.5,
)


@pytest.fixture(scope="module")
def serial_records():
    return run_kind_batch(**SMALL_BATCH, workers=1)


class TestParallelEquivalence:
    def test_workers3_records_identical(self, serial_records):
        parallel = run_kind_batch(**SMALL_BATCH, workers=3)
        assert set(parallel) == set(serial_records)
        for kind, records in serial_records.items():
            assert len(parallel[kind]) == len(records)
            for serial_rec, parallel_rec in zip(records, parallel[kind]):
                # Field-by-field: a plain == would hide *which* field drifted.
                assert serial_rec.kind == parallel_rec.kind
                assert serial_rec.description == parallel_rec.description
                assert serial_rec.diagnosability == parallel_rec.diagnosability
                assert serial_rec.n_failed_pairs == parallel_rec.n_failed_pairs
                assert (
                    serial_rec.n_rerouted_pairs == parallel_rec.n_rerouted_pairs
                )
                assert set(serial_rec.scores) == set(parallel_rec.scores)
                for label, score in serial_rec.scores.items():
                    other = parallel_rec.scores[label]
                    for field in dataclasses.fields(score):
                        assert getattr(score, field.name) == getattr(
                            other, field.name
                        ), f"{label}.{field.name} drifted under workers=3"

    def test_workers3_bytes_identical(self, serial_records):
        # repr() of the nested dataclasses is an exact content encoding
        # (shortest-round-trip floats, ordered dicts); raw pickle bytes
        # would additionally encode object-identity sharing, which a
        # process boundary legitimately changes without changing content.
        parallel = run_kind_batch(**SMALL_BATCH, workers=3)
        assert repr(parallel).encode() == repr(serial_records).encode()
        assert parallel == serial_records

    def test_workers0_resolves_to_cpu_count(self, serial_records):
        assert run_kind_batch(**SMALL_BATCH, workers=0) == serial_records

    def test_stats_agree_across_backends(self):
        serial_stats, parallel_stats = RunnerStats(), RunnerStats()
        run_kind_batch(**SMALL_BATCH, workers=1, stats=serial_stats)
        run_kind_batch(**SMALL_BATCH, workers=3, stats=parallel_stats)
        for field in (
            "placements",
            "records",
            "scenarios_sampled",
            "scenarios_rejected",
            "budget_exhaustions",
            "trace_cache_entries",
            "routing_cache_entries",
        ):
            assert getattr(serial_stats, field) == getattr(
                parallel_stats, field
            ), f"RunnerStats.{field} differs between serial and parallel"
        assert parallel_stats.workers == 3
        assert len(parallel_stats.per_placement) == SMALL_BATCH["placements"]


@pytest.mark.slow
def test_workers2_identical_on_full_research_internet():
    """Same contract at the paper's (22, 140) scale — the slow lane."""
    batch = dict(
        topo_factory=ResearchTopoFactory(topo_seed=100),
        placement_fn=StubPlacement(10),
        kinds=("link-1", "link-3"),
        diagnosers={
            "nd-edge": NetDiagnoser("nd-edge"),
            "nd-bgpigp": NetDiagnoser("nd-bgpigp"),
        },
        placements=2,
        failures_per_placement=3,
        seed=0,
        asx_selector=CoreAsx(),
    )
    assert run_kind_batch(**batch, workers=2) == run_kind_batch(
        **batch, workers=1
    )


class TestJobPlumbing:
    def test_jobs_are_picklable(self):
        jobs = build_placement_jobs(
            SMALL_BATCH["topo_factory"],
            SMALL_BATCH["placement_fn"],
            SMALL_BATCH["kinds"],
            SMALL_BATCH["diagnosers"],
            placements=4,
            failures_per_placement=2,
            seed=9,
            asx_selector=RandomStubAsx(),
        )
        assert [job.placement_index for job in jobs] == [0, 1, 2, 3]
        restored = pickle.loads(pickle.dumps(jobs))
        assert [job.seed for job in restored] == [9, 9, 9, 9]

    def test_resolve_workers(self):
        assert resolve_workers(1, 10) == 1
        assert resolve_workers(4, 2) == 2  # capped at the job count
        assert resolve_workers(0, 64) >= 1  # 0 = all cores
        with pytest.raises(ValueError):
            resolve_workers(-1, 4)


class TestScalingSweepEquivalence:
    SIZES = ((4, 16), (6, 24))

    @staticmethod
    def _deterministic_fields(point):
        return {
            field.name: getattr(point, field.name)
            for field in dataclasses.fields(point)
            if not field.name.endswith("_seconds")
        }

    def test_parallel_points_match_serial(self):
        serial = scaling_sweep(
            sizes=self.SIZES, n_sensors=5, failures=2, seed=0, workers=1
        )
        parallel = scaling_sweep(
            sizes=self.SIZES, n_sensors=5, failures=2, seed=0, workers=2
        )
        assert [self._deterministic_fields(p) for p in serial] == [
            self._deterministic_fields(p) for p in parallel
        ]
