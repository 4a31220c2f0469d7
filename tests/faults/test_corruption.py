"""Corruption injection (lying data) and its detection guarantees.

Three contracts:

1. each corruption seam plants a record violating exactly its paired
   invariant (unit tests on ``corrupt_trace`` and the plan);
2. **strict detects 100 % of seeded corruptions** — for any scenario
   whose injection counters are non-zero, a strict-validated re-run of
   the *same* deterministic plan raises ``ValidationError``;
3. a quarantine-policy sweep completes at every rate in
   {0.05, 0.1, 0.2, 0.5} with zero unhandled exceptions and every drop
   accounted on the ``DegradationReport``.
"""

from __future__ import annotations

import random

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.errors import ScenarioError, ValidationError
from repro.experiments.runner import (
    RunnerStats,
    make_session,
    run_kind_batch,
    run_scenario,
)
from repro.experiments.jobs import CoreAsx, ResearchTopoFactory, StubPlacement
from repro.faults import (
    CORRUPTION_MODES,
    FORGED_ADDRESS_PREFIX,
    DegradationReport,
    FaultConfig,
    FaultPlan,
)
from repro.measurement.sensors import random_stub_placement
from repro.netsim.gen.internet import research_internet
from repro.netsim.traceroute import (
    FORGED_ROUTER_ID,
    TraceResult,
    corrupt_trace,
)

#: Injection-side counters on DegradationReport, one per corruption mode.
INJECTION_COUNTERS = (
    "hops_forged",
    "hops_duplicated",
    "loops_injected",
    "reach_bits_flipped",
    "stale_replays",
    "feed_messages_duplicated",
    "feed_messages_misordered",
    "lg_stale_answers",
)


def _trace(n=5):
    return TraceResult(
        src_router=1,
        dst_router=n,
        hop_addresses=tuple(f"10.0.0.{i}" for i in range(1, n + 1)),
        hop_routers=tuple(range(1, n + 1)),
        reached=True,
    )


def _hop(trace, index):
    """One hop as ``(address, router id)``."""
    return trace.addresses()[index], trace.router_path()[index]


class TestCorruptTrace:
    def test_forge_inserts_off_topology_hop(self):
        trace = _trace()
        forged_address = FORGED_ADDRESS_PREFIX + "9"
        corrupted, applied = corrupt_trace(trace, forge=(2, forged_address))
        assert applied == ("hop-forge",)
        assert corrupted.addresses()[2] == forged_address
        assert corrupted.router_path()[2] == FORGED_ROUTER_ID
        # The cached original is never mutated.
        assert len(trace.addresses()) == 5

    def test_duplicate_creates_consecutive_repeat(self):
        corrupted, applied = corrupt_trace(_trace(), duplicate_at=2)
        assert applied == ("hop-dup",)
        assert _hop(corrupted, 2) == _hop(corrupted, 3)

    def test_loop_creates_nonadjacent_revisit(self):
        corrupted, applied = corrupt_trace(_trace(), loop=(1, 3))
        assert applied == ("loop-inject",)
        addresses = list(corrupted.addresses())
        revisit = addresses.index(addresses[1], 2)
        assert revisit - 1 >= 2  # genuinely non-adjacent: a loop, not a dup

    def test_too_short_traces_are_left_alone(self):
        trace = _trace(2)
        corrupted, applied = corrupt_trace(trace, duplicate_at=1, loop=(0, 1))
        assert corrupted is trace
        assert applied == ()

    def test_reached_flag_and_endpoints_survive(self):
        corrupted, _ = corrupt_trace(
            _trace(), forge=(2, FORGED_ADDRESS_PREFIX + "1")
        )
        assert corrupted.reached == _trace().reached
        assert _hop(corrupted, 0) == _hop(_trace(), 0)
        assert _hop(corrupted, -1) == _hop(_trace(), -1)


class TestCorruptionPlan:
    def test_corruption_config_activates_only_corruption_modes(self):
        config = FaultConfig.corruption(0.3)
        assert config.any_faults()
        assert config.any_corruption()
        assert config.trace_drop_rate == 0.0  # omission modes stay off
        assert len(CORRUPTION_MODES) == 8

    def test_decisions_are_deterministic_and_order_independent(self):
        a = FaultPlan("s", FaultConfig.corruption(0.5))
        b = FaultPlan("s", FaultConfig.corruption(0.5))
        keys = [("10.0.0.1", "10.0.9.9", "post", 6), ("10.0.0.2", "10.0.9.8", "pre", 4)]
        forward = [a.forge_hop(*k) for k in keys]
        backward = [b.forge_hop(*k) for k in reversed(keys)]
        assert forward == list(reversed(backward))
        assert [a.flip_reach_bit(s, d, e) for s, d, e, _ in keys] == [
            b.flip_reach_bit(s, d, e) for s, d, e, _ in keys
        ]


@pytest.fixture(scope="module")
def corruption_session():
    topo = research_internet(n_tier2=4, n_stub=16, seed=23)
    rng = random.Random("corruption-session")
    session = make_session(
        topo,
        random_stub_placement(topo, 6, rng),
        rng,
        intra_failures_only=True,
    )
    return topo, session


class TestStrictDetectsEverySeededCorruption:
    def test_no_false_negatives(self, corruption_session):
        """Whenever injection fired, a strict re-run of the identical
        plan raises; whenever nothing fired, it diagnoses clean."""
        topo, session = corruption_session
        diagnosers = {"nd-edge": NetDiagnoser("nd-edge")}
        asx = topo.core_asns[0]
        plan = FaultPlan("strict-detect", FaultConfig.corruption(0.25))
        detected = injected_runs = clean_runs = 0
        for n in range(12):
            scenario = session.sampler.sample("link-1")
            faults = plan.scoped(n)
            # Pass 1, no validation: count what injection actually did.
            try:
                record = run_scenario(
                    session, scenario, diagnosers, asx=asx, faults=faults
                )
            except ScenarioError:
                continue  # no failed link probed: nothing to detect
            injected = any(
                getattr(record.degradation, counter)
                for counter in INJECTION_COUNTERS
            )
            # Pass 2, same deterministic plan, strict screening.
            if injected:
                injected_runs += 1
                with pytest.raises(ValidationError):
                    run_scenario(
                        session,
                        scenario,
                        diagnosers,
                        asx=asx,
                        faults=faults,
                        validation="strict",
                    )
                detected += 1
            else:
                clean_runs += 1
                run_scenario(
                    session,
                    scenario,
                    diagnosers,
                    asx=asx,
                    faults=faults,
                    validation="strict",
                )
        assert detected == injected_runs  # 100 % of seeded corruptions
        assert injected_runs > 0  # the test actually exercised detection

    def test_strict_on_clean_inputs_is_a_no_op(self, corruption_session):
        topo, session = corruption_session
        scenario = session.sampler.sample("link-1")
        diagnosers = {"nd-edge": NetDiagnoser("nd-edge")}
        record = run_scenario(
            session,
            scenario,
            diagnosers,
            asx=topo.core_asns[0],
            validation="strict",
        )
        assert record.degradation is not None
        assert not record.degradation.is_degraded()


class TestQuarantineSweepAccounting:
    @pytest.mark.parametrize("rate", [0.05, 0.1, 0.2, 0.5])
    def test_sweep_completes_with_all_drops_accounted(self, rate):
        stats = RunnerStats()
        records = run_kind_batch(
            topo_factory=ResearchTopoFactory(
                topo_seed=101, n_tier2=4, n_stub=16
            ),
            placement_fn=StubPlacement(6),
            kinds=("link-1",),
            diagnosers={"nd-edge": NetDiagnoser("nd-edge")},
            placements=1,
            failures_per_placement=3,
            seed=7,
            asx_selector=CoreAsx(),
            intra_failures_only=True,
            fault_config=FaultConfig.corruption(rate),
            validation="quarantine",
            stats=stats,
        )
        assert len(records["link-1"]) == 3
        # Every stale replay surfaces as exactly one dropped stale round,
        # and every quarantined record was first counted as a violation.
        assert stats.stale_rounds_dropped == stats.stale_replays
        assert stats.lg_paths_quarantined == stats.lg_stale_answers
        screened = (
            stats.traces_repaired
            + stats.traces_quarantined
            + stats.stale_rounds_dropped
            + stats.feed_messages_repaired
            + stats.feed_messages_quarantined
            + stats.lg_paths_quarantined
        )
        if any(getattr(stats, c) for c in INJECTION_COUNTERS):
            assert stats.invariant_violations > 0
            assert screened > 0
        assert stats.traces_repaired == 0  # quarantine never repairs


class TestTotalCorruptionBestEffort:
    def test_everything_quarantined_masks_but_never_crashes(
        self, corruption_session
    ):
        """Rate 1.0 + quarantine leaves nothing to diagnose: the run must
        complete with empty best-effort scores, not divide or crash."""
        topo, session = corruption_session
        diagnosers = {
            "tomo": NetDiagnoser("tomo"),
            "nd-edge": NetDiagnoser("nd-edge"),
        }
        plan = FaultPlan("total", FaultConfig.corruption(1.0))
        record = None
        for n in range(5):
            scenario = session.sampler.sample("link-1")
            try:
                record = run_scenario(
                    session,
                    scenario,
                    diagnosers,
                    asx=topo.core_asns[0],
                    faults=plan.scoped(n),
                    validation="quarantine",
                )
            except ScenarioError:
                continue
            break
        assert record is not None
        assert record.degradation.masked_failures == 1
        for score in record.scores.values():
            assert score.link.sensitivity == 0.0
            assert score.hypothesis_size == 0
