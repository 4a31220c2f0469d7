"""Fault-plan determinism across execution backends.

The contract: an identical seed produces an identical fault schedule —
and therefore identical records, scores and degradation accounting —
whether the sweep runs serially, across worker processes, or twice in a
row.  Every fault decision is a pure function of
``(seed, fault kind, decision key)``, so nothing about scheduling can
perturb it.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.experiments.jobs import CoreAsx, ResearchTopoFactory, StubPlacement
from repro.experiments.runner import RunnerStats, run_kind_batch
from repro.faults import FaultConfig
from repro.faults.report import RUN_COUNTERS

#: A small faulted batch exercising every fault mode at once.
FAULTY_BATCH = dict(
    topo_factory=ResearchTopoFactory(topo_seed=7, n_tier2=4, n_stub=16),
    placement_fn=StubPlacement(5),
    kinds=("link-1",),
    diagnosers={
        "tomo": NetDiagnoser("tomo"),
        "nd-edge": NetDiagnoser("nd-edge"),
        "nd-bgpigp": NetDiagnoser("nd-bgpigp"),
        "nd-lg": NetDiagnoser("nd-lg"),
    },
    placements=3,
    failures_per_placement=3,
    seed=0,
    asx_selector=CoreAsx(),
    lg_fraction=1.0,
    intra_failures_only=True,
    fault_config=FaultConfig.uniform(0.2),
)


@pytest.fixture(scope="module")
def serial_records():
    return run_kind_batch(**FAULTY_BATCH, workers=1)


class TestFaultSchedulesAreDeterministic:
    def test_rerun_is_bit_identical(self, serial_records):
        again = run_kind_batch(**FAULTY_BATCH, workers=1)
        assert repr(again).encode() == repr(serial_records).encode()
        assert again == serial_records

    def test_workers3_injects_the_same_faults(self, serial_records):
        parallel = run_kind_batch(**FAULTY_BATCH, workers=3)
        assert parallel == serial_records
        # Spell out the degradation reports: identical fault-by-fault.
        for kind, records in serial_records.items():
            for serial_rec, parallel_rec in zip(records, parallel[kind]):
                s_report = serial_rec.degradation
                p_report = parallel_rec.degradation
                assert s_report is not None and p_report is not None
                for field in RUN_COUNTERS:
                    assert getattr(s_report, field) == getattr(
                        p_report, field
                    ), f"{field} drifted under workers=3"
                assert s_report.diagnoser_errors == p_report.diagnoser_errors
                assert s_report.notes == p_report.notes

    def test_faults_actually_fired(self, serial_records):
        reports = [
            record.degradation
            for records in serial_records.values()
            for record in records
        ]
        assert reports
        assert any(report.is_degraded() for report in reports)

    def test_stats_fault_counters_agree_across_backends(self):
        serial_stats, parallel_stats = RunnerStats(), RunnerStats()
        run_kind_batch(**FAULTY_BATCH, workers=1, stats=serial_stats)
        run_kind_batch(**FAULTY_BATCH, workers=3, stats=parallel_stats)
        assert serial_stats.any_faults_seen()
        for field in RUN_COUNTERS:
            assert getattr(serial_stats, field) == getattr(
                parallel_stats, field
            ), f"RunnerStats.{field} differs between serial and parallel"

    def test_different_seed_changes_the_schedule(self, serial_records):
        batch = dict(FAULTY_BATCH)
        batch["seed"] = 1
        assert run_kind_batch(**batch, workers=1) != serial_records

    def test_zero_rate_config_matches_no_config(self):
        clean = dict(FAULTY_BATCH)
        clean["fault_config"] = None
        zero = dict(FAULTY_BATCH)
        zero["fault_config"] = FaultConfig.uniform(0.0)
        assert run_kind_batch(**zero, workers=1) == run_kind_batch(
            **clean, workers=1
        )

    def test_record_fields_identical_under_faults(self, serial_records):
        parallel = run_kind_batch(**FAULTY_BATCH, workers=2)
        for kind, records in serial_records.items():
            for serial_rec, parallel_rec in zip(records, parallel[kind]):
                for label, score in serial_rec.scores.items():
                    other = parallel_rec.scores[label]
                    for field in dataclasses.fields(score):
                        assert getattr(score, field.name) == getattr(
                            other, field.name
                        ), f"{label}.{field.name} drifted under workers=2"


#: The corruption axis under quarantine screening: every corruption mode
#: plus the validation pipeline, across process boundaries.
CORRUPT_BATCH = dict(
    topo_factory=ResearchTopoFactory(topo_seed=7, n_tier2=4, n_stub=16),
    placement_fn=StubPlacement(5),
    kinds=("link-1",),
    diagnosers={
        "tomo": NetDiagnoser("tomo"),
        "nd-edge": NetDiagnoser("nd-edge"),
    },
    placements=3,
    failures_per_placement=3,
    seed=0,
    asx_selector=CoreAsx(),
    blocked_fraction=0.3,
    lg_fraction=1.0,
    intra_failures_only=True,
    fault_config=FaultConfig.corruption(0.2),
    validation="quarantine",
)


class TestCorruptionSchedulesAreDeterministic:
    def test_workers3_corrupts_and_screens_identically(self):
        serial_stats, parallel_stats = RunnerStats(), RunnerStats()
        serial = run_kind_batch(**CORRUPT_BATCH, workers=1, stats=serial_stats)
        parallel = run_kind_batch(
            **CORRUPT_BATCH, workers=3, stats=parallel_stats
        )
        assert serial == parallel
        assert serial_stats.any_corruption_seen()
        assert serial_stats.any_validation_seen()
        for field in RUN_COUNTERS:
            assert getattr(serial_stats, field) == getattr(
                parallel_stats, field
            ), f"RunnerStats.{field} differs between serial and parallel"
