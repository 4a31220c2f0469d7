"""Fault injection at every measurement seam, and graceful degradation.

The contract under test is twofold: each seam honours its fault plan
deterministically (unit tests), and a diagnosis run under *any* fault
rate in [0, 0.5] completes without an unhandled exception while
accounting for everything it lost (integration sweep).
"""

from __future__ import annotations

import random

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.core.pathset import EPOCH_POST, EPOCH_PRE
from repro.errors import ControlPlaneFeedError, ScenarioError
from repro.experiments.runner import make_session, run_scenario
from repro.faults import DegradationReport, FaultConfig, FaultPlan
from repro.measurement.collector import (
    collect_control_plane,
    make_lg_lookup,
    take_snapshot,
)
from repro.measurement.probing import probe_mesh
from repro.measurement.sensors import random_stub_placement, surviving_sensors
from repro.netsim.gen.internet import research_internet
from repro.netsim.lookingglass import (
    FlakyLookingGlassService,
    LookingGlassRateLimited,
    LookingGlassService,
    LookingGlassUnavailable,
)
from repro.netsim.traceroute import TraceResult, degrade_trace


@pytest.fixture(scope="module")
def small_session():
    topo = research_internet(n_tier2=4, n_stub=16, seed=21)
    rng = random.Random("faults-session")
    return topo, make_session(
        topo, random_stub_placement(topo, 6, rng), rng,
        intra_failures_only=True,
    )


def _trace():
    return TraceResult(
        src_router=1,
        dst_router=5,
        hop_addresses=tuple(f"10.0.0.{i}" for i in range(1, 6)),
        hop_routers=tuple(range(1, 6)),
        reached=True,
    )


class TestDegradeTrace:
    def test_truncation_marks_unreached(self):
        trace = _trace()
        cut = degrade_trace(trace, truncate_at=2)
        assert len(cut.addresses()) == len(cut.router_path()) == 2
        assert not cut.reached
        assert cut.failure_reason == "fault:truncated"
        # The cached original is never mutated.
        assert trace.reached and len(trace.addresses()) == 5

    def test_anonymize_stars_out_hops(self):
        trace = _trace()
        anon = degrade_trace(trace, anonymize={1, 3})
        assert anon.addresses()[1] is None and anon.addresses()[3] is None
        assert anon.addresses()[0] == "10.0.0.1"
        # Router ids (ground truth) survive for the simulator's benefit.
        assert anon.router_path() == trace.router_path()

    def test_no_faults_returns_the_same_object(self):
        trace = _trace()
        assert degrade_trace(trace) is trace
        assert degrade_trace(trace, anonymize={99}) is trace


class TestProbeAndSensorSeams:
    def test_drop_rate_one_empties_the_mesh(self, small_session):
        _topo, session = small_session
        plan = FaultPlan(1, FaultConfig(trace_drop_rate=1.0))
        report = DegradationReport()
        store = probe_mesh(
            session.sim, session.sensors, session.base_state,
            epoch=EPOCH_PRE, faults=plan, report=report,
        )
        n_pairs = len(session.sensors) * (len(session.sensors) - 1)
        assert len(store.pairs()) == 0
        assert report.probes_dropped == n_pairs

    def test_sensor_dropout_is_epoch_independent(self, small_session):
        _topo, session = small_session
        plan = FaultPlan(2, FaultConfig(sensor_dropout_rate=0.5))
        up_a = surviving_sensors(session.sensors, plan)
        up_b = surviving_sensors(session.sensors, plan)
        # Keyed on address only: both probing rounds see the same overlay.
        assert [s.address for s in up_a] == [s.address for s in up_b]
        assert 0 < len(up_a) < len(session.sensors)
        report = DegradationReport()
        surviving_sensors(session.sensors, plan, report)
        assert report.sensors_down == len(session.sensors) - len(up_a)

    def test_snapshot_reconciles_partial_rounds(self, small_session):
        _topo, session = small_session
        scenario = session.sampler.sample("link-1")
        plan = FaultPlan(3, FaultConfig(trace_drop_rate=0.3))
        report = DegradationReport()
        snapshot = take_snapshot(
            session.sim, session.sensors, session.base_state,
            scenario.after_state, faults=plan, report=report,
        )
        # The snapshot invariants held (construction validates them) and
        # the reconciliation accounted for what the faults removed.
        assert set(snapshot.before.pairs()) == set(snapshot.after.pairs())
        assert report.probes_dropped > 0
        assert report.is_degraded()


class TestLookingGlassSeam:
    def test_failure_rate_one_always_raises(self, small_session):
        topo, session = small_session
        service = LookingGlassService.everywhere(session.net)
        flaky = FlakyLookingGlassService(
            service, FaultPlan(4, FaultConfig(lg_failure_rate=1.0))
        )
        routing = session.sim.routing(session.base_state)
        prefix = next(iter(routing.prefixes))
        asn = topo.core_asns[0]
        with pytest.raises(LookingGlassUnavailable):
            flaky.query(asn, prefix, routing, "10.0.0.1", EPOCH_PRE, 0)

    def test_query_budget_rate_limits(self, small_session):
        topo, session = small_session
        service = LookingGlassService.everywhere(session.net)
        flaky = FlakyLookingGlassService(
            service, FaultPlan(4, FaultConfig(lg_query_budget=2))
        )
        routing = session.sim.routing(session.base_state)
        prefix = next(iter(routing.prefixes))
        asn = topo.core_asns[0]
        flaky.query(asn, prefix, routing)
        flaky.query(asn, prefix, routing)
        with pytest.raises(LookingGlassRateLimited):
            flaky.query(asn, prefix, routing)

    def test_lookup_degrades_to_none_after_retries(self, small_session):
        _topo, session = small_session
        service = LookingGlassService.everywhere(session.net)
        plan = FaultPlan(5, FaultConfig(lg_failure_rate=1.0))
        report = DegradationReport()
        schedule = []
        lookup = make_lg_lookup(
            session.sim, service, session.base_state, session.base_state,
            faults=plan, report=report, max_attempts=3,
            backoff_base=0.1, sleep=schedule.append,
        )
        dst = session.sensors[0].address
        asn = session.net.asn_of_router(session.sensors[1].router_id)
        assert lookup(asn, dst, EPOCH_POST) is None
        assert report.lg_failures == 3
        assert report.lg_retries == 2
        assert report.lg_exhausted == 1
        # Exponential backoff with seeded jitter: each delay lands in
        # [0.5, 1.5) of base * 2**attempt, and the exact values are a
        # pure function of the plan seed + query key.
        assert len(schedule) == 2
        for attempt, delay in enumerate(schedule):
            nominal = 0.1 * (2 ** attempt)
            assert 0.5 * nominal <= delay < 1.5 * nominal
        assert schedule == [
            0.1 * (2 ** attempt)
            * (0.5 + plan.lg_backoff_jitter(asn, dst, EPOCH_POST, attempt))
            for attempt in range(2)
        ]

    def test_backoff_jitter_is_reproducible(self, small_session):
        _topo, session = small_session
        service = LookingGlassService.everywhere(session.net)
        dst = session.sensors[0].address
        asn = session.net.asn_of_router(session.sensors[1].router_id)
        schedules = []
        for _run in range(2):
            plan = FaultPlan(5, FaultConfig(lg_failure_rate=1.0))
            schedule = []
            lookup = make_lg_lookup(
                session.sim, service, session.base_state,
                session.base_state, faults=plan, max_attempts=3,
                backoff_base=0.1, sleep=schedule.append,
            )
            assert lookup(asn, dst, EPOCH_POST) is None
            schedules.append(schedule)
        assert schedules[0] == schedules[1]

    def test_clean_plan_matches_direct_service(self, small_session):
        _topo, session = small_session
        service = LookingGlassService.everywhere(session.net)
        plan = FaultPlan(6, FaultConfig())
        lookup = make_lg_lookup(
            session.sim, service, session.base_state, session.base_state,
            faults=plan,
        )
        clean = make_lg_lookup(
            session.sim, service, session.base_state, session.base_state,
        )
        dst = session.sensors[0].address
        asn = session.net.asn_of_router(session.sensors[1].router_id)
        assert lookup(asn, dst, EPOCH_PRE) == clean(asn, dst, EPOCH_PRE)


class TestControlPlaneSeam:
    def test_feed_outage_raises_typed_error(self, small_session):
        topo, session = small_session
        scenario = session.sampler.sample("link-1")
        plan = FaultPlan(7, FaultConfig(feed_outage_rate=1.0))
        report = DegradationReport()
        with pytest.raises(ControlPlaneFeedError):
            collect_control_plane(
                session.sim, topo.core_asns[0], session.base_state,
                scenario.after_state, faults=plan, report=report,
            )
        assert report.feed_outages == 1

    def test_total_loss_yields_empty_degraded_view(self, small_session):
        topo, session = small_session
        scenario = session.sampler.sample("link-1")
        clean = collect_control_plane(
            session.sim, topo.core_asns[0], session.base_state,
            scenario.after_state,
        )
        plan = FaultPlan(
            8, FaultConfig(withdrawal_loss_rate=1.0, igp_loss_rate=1.0)
        )
        report = DegradationReport()
        view = collect_control_plane(
            session.sim, topo.core_asns[0], session.base_state,
            scenario.after_state, faults=plan, report=report,
        )
        assert view.is_empty()
        lost = len(clean.withdrawals) + len(clean.igp_link_down)
        if lost:
            assert view.is_degraded()
            assert (
                report.withdrawals_lost + report.igp_lost == lost
            )


class TestGracefulDegradationSweep:
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.25, 0.5])
    def test_no_unhandled_exception_at_any_rate(self, small_session, rate):
        topo, session = small_session
        diagnosers = {
            "tomo": NetDiagnoser("tomo"),
            "nd-edge": NetDiagnoser("nd-edge"),
            "nd-bgpigp": NetDiagnoser("nd-bgpigp"),
            "nd-lg": NetDiagnoser("nd-lg"),
        }
        lg_service = LookingGlassService.everywhere(session.net)
        plan = FaultPlan(f"sweep/{rate}", FaultConfig.uniform(rate))
        produced = 0
        for attempt in range(12):
            try:
                scenario = session.sampler.sample("link-1")
                record = run_scenario(
                    session, scenario, diagnosers,
                    asx=topo.core_asns[0], lg_service=lg_service,
                    faults=plan.scoped(attempt),
                )
            except ScenarioError:
                continue  # sampling rejection, not a fault-handling bug
            produced += 1
            assert set(record.scores) == set(diagnosers)
            assert record.degradation is not None
            if rate == 0.0:
                assert not record.degradation.is_degraded()
            if produced >= 4:
                break
        assert produced >= 1
