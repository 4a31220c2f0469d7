"""Incremental re-convergence must be indistinguishable from full recompute.

The engine's incremental path (baseline + per-prefix dependency sets) is a
pure optimisation: for every degradation state its :class:`RoutingState`
must be *identical* in content to the one a from-scratch fixpoint produces.
These tests pin that equivalence over seeded random failure states on both
a small hub-and-spoke internetwork and the research-Internet generator,
plus the counters/sharing semantics and the ``incremental=False``
reference switch.
"""

import random

import pytest

from repro.netsim.bgp import BgpEngine
from repro.netsim.gen.hubspoke import build_hub_and_spoke
from repro.netsim.gen.internet import research_internet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import (
    ExportFilter,
    Internetwork,
    NetworkState,
    Relationship,
    Tier,
)


def hubspoke_internetwork():
    """Two hub-and-spoke providers peering, with four stub customers."""
    net = Internetwork()
    net.add_as(1, "prov1", Tier.TIER2)
    net.add_as(2, "prov2", Tier.TIER2)
    prov = {
        1: build_hub_and_spoke(net, 1, spokes=4),
        2: build_hub_and_spoke(net, 2, spokes=4),
    }
    net.set_relationship(1, 2, Relationship.PEER)
    net.add_link(prov[1]["hubs"][0], prov[2]["hubs"][0])
    stub_asns = []
    for index in range(4):
        asn = 10 + index
        net.add_as(asn, f"stub{index}", Tier.STUB)
        rid = net.add_router(asn).rid
        provider = 1 if index % 2 == 0 else 2
        net.set_relationship(asn, provider, Relationship.CUSTOMER_PROVIDER)
        net.add_link(rid, prov[provider]["spokes"][index % 4])
        if index == 0:  # one multihomed stub
            net.set_relationship(asn, 2, Relationship.CUSTOMER_PROVIDER)
            net.add_link(rid, prov[2]["spokes"][1])
        stub_asns.append(asn)
    return net, stub_asns


def random_degradations(net, rng, n_states, max_links=3):
    """Seeded single- and multi-link/router failure states."""
    inter = [l.lid for l in net.inter_links()]
    intra = [l.lid for l in net.links() if not net.is_interdomain(l.lid)]
    states = []
    for _ in range(n_states):
        lids = rng.sample(inter, min(len(inter), rng.randint(1, max_links)))
        if intra and rng.random() < 0.5:
            lids.append(rng.choice(intra))
        state = NetworkState.nominal().with_failed_links(lids)
        if rng.random() < 0.3:
            link = net.link(rng.choice(inter))
            state = state.with_failed_routers([rng.choice([link.a, link.b])])
        states.append(state)
    return states


def assert_incremental_matches_full(net, sensor_asns, states):
    incremental = BgpEngine.for_sensor_ases(net, sensor_asns)
    full = BgpEngine.for_sensor_ases(net, sensor_asns, incremental=False)
    # Converging nominal first makes it the baseline for both engines.
    assert incremental.converge(NetworkState.nominal()).equivalent_to(
        full.converge(NetworkState.nominal())
    )
    # An intra-domain-only failure never perturbs the AS-level decision
    # process: the incremental engine must reuse every prefix for it.
    intra = next(
        l.lid for l in net.links() if not net.is_interdomain(l.lid)
    )
    states = list(states) + [NetworkState.nominal().with_failed_links([intra])]
    for state in states:
        assert incremental.converge(state).equivalent_to(full.converge(state))
    assert incremental.counters.incremental_converges > 0
    assert full.counters.incremental_converges == 0
    assert incremental.counters.prefixes_reused > 0
    assert full.counters.prefixes_reused == 0
    # The optimisation never does *more* fixpoint work than full mode.
    assert (
        incremental.counters.prefixes_converged
        < full.counters.prefixes_converged
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_equivalence_on_hubspoke_topology(seed):
    net, stubs = hubspoke_internetwork()
    rng = random.Random(seed)
    states = random_degradations(net, rng, n_states=8)
    assert_incremental_matches_full(net, stubs, states)


@pytest.mark.parametrize("seed", [11, 12])
def test_equivalence_on_research_internet(seed):
    topo = research_internet(n_tier2=4, n_stub=10, seed=seed)
    rng = random.Random(seed)
    states = random_degradations(topo.net, rng, n_states=5)
    sensors = topo.stub_asns[:6]
    assert_incremental_matches_full(topo.net, sensors, states)


def test_equivalence_with_export_filters():
    net, stubs = hubspoke_internetwork()
    incremental = BgpEngine.for_sensor_ases(net, stubs)
    full = BgpEngine.for_sensor_ases(net, stubs, incremental=False)
    incremental.converge(NetworkState.nominal())
    full.converge(NetworkState.nominal())
    prefix = net.autonomous_system(stubs[0]).prefix
    for link in net.inter_links():
        state = NetworkState.nominal().with_filter(
            ExportFilter(
                link_id=link.lid,
                at_router=link.a,
                prefixes=frozenset({prefix}),
            )
        )
        assert incremental.converge(state).equivalent_to(full.converge(state))


def test_unaffected_prefixes_share_baseline_rib_objects():
    """Some single-link failure must split the prefixes: the affected ones
    get fresh RIBs, the rest share the baseline's objects untouched."""
    net, stubs = hubspoke_internetwork()
    engine = BgpEngine.for_sensor_ases(net, stubs)
    baseline = engine.converge(NetworkState.nominal())
    n_prefixes = len(engine.prefixes)
    for link in net.inter_links():
        before_converged = engine.counters.prefixes_converged
        before_reused = engine.counters.prefixes_reused
        routing = engine.converge(
            NetworkState.nominal().with_failed_links([link.lid])
        )
        reconverged = engine.counters.prefixes_converged - before_converged
        reused = engine.counters.prefixes_reused - before_reused
        if reconverged and reused:
            break
    else:
        pytest.fail("no single-link failure split the prefix set")
    # Strict subset of the prefixes re-converged for the failure state.
    assert reconverged + reused == n_prefixes
    assert 0 < reconverged < n_prefixes
    shared = [
        prefix
        for prefix in engine.prefixes
        if routing.shares_rib_with(baseline, prefix)
    ]
    assert len(shared) == reused


def test_restoration_states_fall_back_to_full_converge():
    """A state that is not a pure degradation of the baseline (a link the
    baseline had failed comes back up) must take the full path."""
    net, stubs = hubspoke_internetwork()
    engine = BgpEngine.for_sensor_ases(net, stubs)
    lid = net.inter_links()[0].lid
    engine.converge(NetworkState.nominal().with_failed_links([lid]))
    assert engine.counters.full_converges == 1
    engine.converge(NetworkState.nominal())  # restoration vs baseline
    assert engine.counters.full_converges == 2
    assert engine.counters.incremental_converges == 0


def test_escape_hatch_forces_full_converge():
    """``incremental=False`` recomputes every state from scratch."""
    net, stubs = hubspoke_internetwork()
    engine = BgpEngine.for_sensor_ases(net, stubs, incremental=False)
    engine.converge(NetworkState.nominal())
    lid = net.inter_links()[0].lid
    forced = engine.converge(NetworkState.nominal().with_failed_links([lid]))
    assert engine.counters.full_converges == 2
    assert engine.counters.incremental_converges == 0
    # The forced result still matches what the incremental path computes.
    fresh = BgpEngine.for_sensor_ases(net, stubs)
    fresh.converge(NetworkState.nominal())
    assert fresh.converge(
        NetworkState.nominal().with_failed_links([lid])
    ).equivalent_to(forced)
    assert fresh.counters.incremental_converges == 1


def test_baseline_survives_cache_eviction():
    """With a tiny LRU the baseline stays pinned and incremental
    re-convergence keeps working after evictions."""
    net, stubs = hubspoke_internetwork()
    engine = BgpEngine.for_sensor_ases(net, stubs, cache_capacity=2)
    nominal = NetworkState.nominal()
    baseline = engine.converge(nominal)
    lids = [l.lid for l in net.inter_links()]
    for lid in lids[:5]:
        engine.converge(nominal.with_failed_links([lid]))
    assert engine._cache.evictions > 0
    assert engine.converge(nominal) is baseline
    assert engine.counters.full_converges == 1


def test_simulator_cache_stats_after_a_convergence_sequence():
    """Pin the whole ``cache_stats()`` dict, RIB-sharing keys included:
    a one-link baseline, a restoration (a second full converge), then
    three two-link degradations of the baseline (incremental)."""
    net, stubs = hubspoke_internetwork()
    sim = Simulator(net, stubs)
    inter = [link.lid for link in net.inter_links()]
    sim.routing(NetworkState.nominal().with_failed_links([inter[0]]))
    sim.routing(NetworkState.nominal())
    for lid in inter[1:4]:
        sim.routing(NetworkState.nominal().with_failed_links([inter[0], lid]))
    assert sim.cache_stats() == {
        "trace_cache_hits": 0,
        "trace_cache_misses": 0,
        "trace_cache_evictions": 0,
        "trace_cache_entries": 0,
        "routing_cache_hits": 0,
        "routing_cache_misses": 5,
        "routing_cache_evictions": 0,
        "routing_cache_entries": 4,
        "full_converges": 2,
        "incremental_converges": 3,
        "prefixes_converged": 16,
        "prefixes_reused": 4,
        "rib_prefixes_owned": 8,
        "rib_prefixes_shared": 4,
        "rib_cow_copies": 8,
    }
