"""Validation of the three-phase BGP engine against two slower ones.

For Gao-Rexford-compliant configurations the stable routing state is
unique, so the message-level simulation and the retired Gauss-Seidel
sweep fixpoint (:mod:`tests.netsim.sweep_oracle`) must land on exactly the
state the three-phase engine computes — for every topology, failure state,
export filter and message-delay schedule.  This is the evidence that
replacing C-BGP with a direct computation preserves the paper's
observables.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.bgp import BgpEngine
from repro.netsim.builders import figure2_network
from repro.netsim.gen.powerlaw import powerlaw_internet
from repro.netsim.topology import ExportFilter, NetworkState

from tests.netsim.eventsim_oracle import EventDrivenBgp
from tests.netsim.sweep_oracle import SweepBgp
from tests.netsim.test_incremental_convergence import hubspoke_internetwork
from tests.property.test_routing_props import random_internetwork


def assert_same_state(net, reference, candidate):
    for prefix in reference.prefixes:
        assert candidate.rib(prefix) == reference.rib(prefix), prefix
        for autsys in net.ases():
            assert candidate.as_path(autsys.asn, prefix) == reference.as_path(
                autsys.asn, prefix
            ), f"AS {autsys.asn} disagrees on {prefix}"
    for link in net.inter_links():
        for asn in net.link_asns(link.lid):
            assert candidate.advertised(link.lid, asn) == reference.advertised(
                link.lid, asn
            ), f"Adj-RIB-Out disagrees on link {link.lid} exporter {asn}"


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=25, deadline=None)
def test_eventsim_matches_fixpoint_on_random_topologies(seed):
    net, edges = random_internetwork(seed)
    prefixes = {net.autonomous_system(a).prefix: a for a in edges}
    state = NetworkState.nominal()
    fixpoint = BgpEngine(net, prefixes).converge(state)
    eventful = EventDrivenBgp(net, prefixes).converge(state)
    assert_same_state(net, fixpoint, eventful)


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    jitter_seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=25, deadline=None)
def test_eventsim_is_timing_independent(seed, jitter_seed):
    """Randomised message delays must not change the outcome (the
    Gao-Rexford safety property)."""
    net, edges = random_internetwork(seed)
    prefixes = {net.autonomous_system(a).prefix: a for a in edges}
    state = NetworkState.nominal()
    deterministic = EventDrivenBgp(net, prefixes).converge(state)
    jittered = EventDrivenBgp(
        net, prefixes, rng=random.Random(jitter_seed)
    ).converge(state)
    assert_same_state(net, deterministic, jittered)


@given(
    seed=st.integers(min_value=0, max_value=5_000),
    kill=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_eventsim_matches_fixpoint_under_failures(seed, kill):
    net, edges = random_internetwork(seed)
    prefixes = {net.autonomous_system(a).prefix: a for a in edges}
    rng = random.Random(seed ^ 0xBEEF)
    links = [l.lid for l in net.links()]
    state = NetworkState.nominal().with_failed_links(
        rng.sample(links, min(kill, len(links)))
    )
    fixpoint = BgpEngine(net, prefixes).converge(state)
    eventful = EventDrivenBgp(net, prefixes).converge(state)
    assert_same_state(net, fixpoint, eventful)


def differential_case(kind, seed):
    """A small Gao-Rexford-valid internet and the prefixes to converge."""
    rng = random.Random(seed)
    if kind == "random":
        net, dests = random_internetwork(seed)
    elif kind == "hubspoke":
        net, dests = hubspoke_internetwork()
    else:
        topo = powerlaw_internet(rng.randint(8, 60), seed=seed)
        net = topo.net
        dests = rng.sample(topo.all_asns, min(6, len(topo.all_asns)))
    return net, {net.autonomous_system(a).prefix: a for a in dests}


def degraded_state(net, prefixes, rng):
    """Link and router failures plus export filters, one of them on a
    session for prefixes it advertises but that no selected route of the
    nominal state was learned over (it changes no RIB, only that session's
    Adj-RIB-Out)."""
    inter = net.inter_links()
    state = NetworkState.nominal()
    links = [l.lid for l in net.links()]
    state = state.with_failed_links(rng.sample(links, rng.randint(0, 2)))
    if rng.random() < 0.5:
        link = rng.choice(inter)
        state = state.with_failed_routers([rng.choice([link.a, link.b])])
    names = sorted(prefixes)
    for _ in range(rng.randint(0, 2)):
        link = rng.choice(inter)
        state = state.with_filter(
            ExportFilter(
                link_id=link.lid,
                at_router=rng.choice([link.a, link.b]),
                prefixes=frozenset(rng.sample(names, rng.randint(1, len(names)))),
            )
        )
    nominal = SweepBgp(net, prefixes).converge(NetworkState.nominal())
    used = {
        (route.ingress_link, route.neighbor_asn, prefix)
        for prefix in nominal.prefixes
        for route in nominal.rib(prefix).values()
        if not route.is_origin
    }
    idle = {}
    for link in inter:
        for asn in net.link_asns(link.lid):
            unused = frozenset(
                prefix
                for prefix in nominal.advertised(link.lid, asn)
                if (link.lid, asn, prefix) not in used
            )
            if unused:
                idle[(link.lid, asn)] = unused
    if idle:
        lid, exporter = rng.choice(sorted(idle))
        state = state.with_filter(
            ExportFilter(
                link_id=lid,
                at_router=net.endpoint_in_as(lid, exporter),
                prefixes=idle[(lid, exporter)],
            )
        )
    return state


def assert_three_way_agreement(kind, seed):
    net, prefixes = differential_case(kind, seed)
    state = degraded_state(net, prefixes, random.Random(seed ^ 0x5EED))
    oracle = SweepBgp(net, prefixes).converge(state)
    incremental = BgpEngine(net, prefixes)
    incremental.converge(NetworkState.nominal())  # the baseline
    three_phase = incremental.converge(state)
    full = BgpEngine(net, prefixes, incremental=False).converge(state)
    eventful = EventDrivenBgp(net, prefixes).converge(state)
    # Session-by-session reads first, so the lazy Adj-RIB-Out is checked
    # one entry at a time before equivalent_to walks all of it.
    for candidate in (three_phase, full, eventful):
        assert_same_state(net, oracle, candidate)
    assert three_phase.equivalent_to(oracle)
    assert full.equivalent_to(oracle)


@given(
    kind=st.sampled_from(["random", "hubspoke", "powerlaw"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=60, deadline=None)
def test_three_phase_matches_sweep_oracle_and_eventsim(kind, seed):
    assert_three_way_agreement(kind, seed)


@pytest.mark.slow
@given(
    kind=st.sampled_from(["random", "hubspoke", "powerlaw"]),
    seed=st.integers(min_value=0, max_value=1_000_000),
)
@settings(max_examples=400, deadline=None)
def test_three_phase_matches_oracles_large_budget(kind, seed):
    assert_three_way_agreement(kind, seed)


class TestEventSimOnFigure2:
    @pytest.fixture
    def world(self):
        fig = figure2_network()
        prefixes = {
            fig.net.autonomous_system(fig.asn(name)).prefix: fig.asn(name)
            for name in ("A", "B", "C")
        }
        return fig, prefixes

    def test_matches_fixpoint_nominal(self, world):
        fig, prefixes = world
        state = NetworkState.nominal()
        fixpoint = BgpEngine(fig.net, prefixes).converge(state)
        eventful = EventDrivenBgp(fig.net, prefixes).converge(state)
        assert_same_state(fig.net, fixpoint, eventful)

    def test_matches_fixpoint_with_export_filter(self, world):
        fig, prefixes = world
        link = fig.link_between("x2", "y1")
        state = NetworkState.nominal().with_filter(
            ExportFilter(
                link_id=link.lid,
                at_router=fig.router("y1").rid,
                prefixes=frozenset(
                    {fig.net.autonomous_system(fig.asn("C")).prefix}
                ),
            )
        )
        fixpoint = BgpEngine(fig.net, prefixes).converge(state)
        eventful = EventDrivenBgp(fig.net, prefixes).converge(state)
        assert_same_state(fig.net, fixpoint, eventful)

    def test_message_log_is_populated_and_finite(self, world):
        fig, prefixes = world
        sim = EventDrivenBgp(fig.net, prefixes)
        sim.converge(NetworkState.nominal())
        assert sim.message_log
        # Announcements dominate; withdrawals never appear in a cold start.
        assert all(m.route is not None for m in sim.message_log)

    def test_withdrawals_appear_after_failure_restart(self, world):
        """Re-converging from scratch after a failure does not produce
        withdrawal messages (cold start); the *diff* semantics of
        messages.py models the incremental transition instead — this test
        documents that boundary."""
        fig, prefixes = world
        lid = fig.link_between("y4", "b1").lid
        sim = EventDrivenBgp(fig.net, prefixes)
        sim.converge(NetworkState.nominal().with_failed_links([lid]))
        assert all(m.route is not None for m in sim.message_log)
