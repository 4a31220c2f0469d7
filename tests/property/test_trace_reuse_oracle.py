"""Differential test: traces reused across failure states equal a full walk.

``Simulator.touched_walks`` names the baseline walks a failure state
touches, and ``Simulator.trace`` returns the baseline's ``TraceResult``
object for every other walk; it also shares IGP views between states that
leave an AS alone.  The oracle walks every pair under every state from
scratch: ``trace_route(..., igp_cache=None)`` over fresh IGP views.  The
touched set is checked pair by pair against the per-pair reuse check of
``tests/netsim/trace_reuse_oracle.py``, and the sampler's admission
decision against the full walk of every sensor pair.

Generated states mix intra- and inter-AS link failures, router failures
(sensor gateways included), export filters, IGP weight overrides (two on
one link, where the later wins, and the same overrides reordered) and
blocked ASes, two in three aimed at the baseline paths.  The pinned
baseline is itself a failure state half of the time, and some states
restore its failures, which forces a full re-convergence with fresh route
objects.  Sensors sit on routers of multi-router ASes, so IGP changes
inside the source and destination ASes occur.  An IGP-only change must
leave every pair that does not cross its AS served by the baseline object
itself.

``IgpCache.changed_ases`` screens each state once for the ASes whose IGP
condition differs from the baseline's; its oracle is the per-AS
comparison of every AS's condition under both states.

The snapshot differential takes T+ rounds that reuse the untouched
pairs' post-epoch baseline probes and compares them with a fresh probe of
every pair by a simulator whose pinned baseline is the failure state
itself, so it reuses nothing.  Its meshes put two sensors on one router,
block ASes (UH tokens carry the epoch) and keep fewer traces in the LRU
than there are walks.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pathset import EPOCH_POST, EPOCH_PRE, MeasurementSnapshot
from repro.errors import ScenarioError
from repro.experiments.scenarios import ScenarioSampler
from repro.measurement.collector import take_snapshot
from repro.measurement.probing import probe_mesh
from repro.measurement.sensors import Sensor
from repro.netsim.builders import figure2_network
from repro.netsim.forwarding import IgpCache
from repro.netsim.gen.internet import research_internet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import ExportFilter, NetworkState
from repro.netsim.traceroute import trace_route
from tests.netsim.trace_reuse_oracle import unchanged

NETS = (
    figure2_network().net,
    research_internet(n_tier2=3, n_stub=6, seed=5).net,
    research_internet(n_tier2=3, n_stub=6, seed=6, tier2_style="ring").net,
)
CHANGES = ("link", "router", "filter", "weight", "reorder", "restore")
#: Intradomain link id -> its AS, per network.
INTRA = {
    net: {link.lid: a.asn for a in net.ases() for link in net.intra_links(a.asn)}
    for net in NETS
}


def draw_sensors(data, net):
    """Two to three gateways in multi-router ASes plus one or two anywhere."""
    inside = [
        rid for a in net.ases() if len(a.router_ids) > 1 for rid in a.router_ids
    ]
    routers = [r.rid for r in net.routers()]
    chosen = data.draw(st.lists(st.sampled_from(inside), min_size=2, max_size=3))
    chosen += data.draw(st.lists(st.sampled_from(routers), min_size=1, max_size=2))
    return sorted(set(chosen))


def path_elements(net, traces):
    """Link and router ids the given traces cross."""
    links, routers = set(), set()
    for trace in traces:
        path = trace.router_path()
        routers.update(path)
        for a, b in zip(path, path[1:]):
            links.add(net.link_between(a, b).lid)
    return sorted(links), sorted(routers)


def change(data, net, state, base, prefixes, on_path):
    """``state`` with one more random change, two in three on the paths."""
    links, routers = on_path
    kind = data.draw(st.sampled_from(CHANGES))
    aimed = data.draw(st.integers(min_value=0, max_value=2)) > 0
    if kind == "link":
        pool = links if aimed and links else [l.lid for l in net.links()]
        return state.with_failed_links([data.draw(st.sampled_from(pool))])
    if kind == "router":
        pool = routers if aimed and routers else [r.rid for r in net.routers()]
        return state.with_failed_routers([data.draw(st.sampled_from(pool))])
    if kind == "filter":
        inter = [l.lid for l in net.inter_links()]
        aimed_inter = [lid for lid in links if net.is_interdomain(lid)]
        pool = aimed_inter if aimed and aimed_inter else inter
        lid = data.draw(st.sampled_from(pool))
        at_router = data.draw(st.sampled_from(net.link(lid).endpoints()))
        chosen = data.draw(st.sets(st.sampled_from(prefixes), min_size=1))
        return state.with_filter(ExportFilter(lid, at_router, frozenset(chosen)))
    if kind == "weight":
        intra = sorted(INTRA[net])
        aimed_intra = [lid for lid in links if not net.is_interdomain(lid)]
        pool = aimed_intra if aimed and aimed_intra else intra
        lid = data.draw(st.sampled_from(pool))
        for weight in data.draw(
            st.lists(st.sampled_from([1, 3, 60]), min_size=1, max_size=2)
        ):
            state = state.with_weight(lid, weight)
        return state
    if kind == "reorder":
        # The same overrides, last first: equal as sets, but where two
        # name one link the other one now wins.
        return NetworkState(
            failed_links=state.failed_links,
            failed_routers=state.failed_routers,
            filters=state.filters,
            weight_overrides=state.weight_overrides[::-1],
        )
    # Restore the baseline's failures: no longer a degradation of it.
    return NetworkState(
        failed_links=state.failed_links - base.failed_links,
        failed_routers=state.failed_routers - base.failed_routers,
        filters=tuple(f for f in state.filters if f not in base.filters),
        weight_overrides=state.weight_overrides,
    )


def per_as_changed(net, state, base):
    """The ASes whose IGP condition differs, compared AS by AS."""
    fresh = IgpCache(net)
    return {
        a.asn
        for a in net.ases()
        if fresh.condition(a.asn, state) != fresh.condition(a.asn, base)
    }


def assert_matches_full_walk(sim, state, pairs, blocked):
    base = sim.engine.baseline[0]
    assert sim.igp_cache.changed_ases(state, base) == per_as_changed(
        sim.net, state, base
    )
    routing = sim.routing(state)
    for src, dst in pairs:
        want = trace_route(
            sim.net, routing, state, src, dst, blocked_ases=blocked, igp_cache=None
        )
        assert sim.trace(state, src, dst, blocked) == want, (state, src, dst)


def assert_touched_matches_oracle(sim, state, baseline, blocked):
    """Touched-set membership is the per-pair check's negation."""
    touched = sim.touched_walks(state)
    key_blocked = tuple(sorted(blocked))
    for (src, dst), walk in baseline.items():
        is_touched = (src, dst, key_blocked) in touched
        assert is_touched == (not unchanged(sim, walk, state)), (state, src, dst)


def assert_admission_matches_full_walk(sampler, state):
    """The sampler admits ``state`` exactly when the full walk of every
    sensor pair finds one that fails to reach."""
    sim = sampler.sim
    routing = sim.routing(state)
    broken = any(
        not trace_route(
            sim.net, routing, state, src.router_id, dst.router_id, igp_cache=None
        ).reached
        for src in sampler.sensors
        for dst in sampler.sensors
        if src.sensor_id != dst.sensor_id
    )
    assert sampler._mesh_broken(state) == broken, state


def make_sensors(routers):
    """A sensor per router plus a second one on the first router (Fig. 5
    placements share a gateway); each sensor has its own address."""
    return [
        Sensor(
            sensor_id=index,
            name=f"s{index + 1}",
            router_id=rid,
            address=f"198.51.100.{index + 1}",
        )
        for index, rid in enumerate([*routers, routers[0]])
    ]


def make_sampler(data, sim, routers, base):
    """A sampler over ``routers``, or ``None`` when the mesh probes no link.

    Its base state is the pinned baseline, or the nominal state, so that
    an untouched pair must answer from the pinned baseline's walk."""
    sampler_base = data.draw(st.sampled_from([base, NetworkState.nominal()]))
    try:
        return ScenarioSampler(
            sim, make_sensors(routers), random.Random(0), base_state=sampler_base
        )
    except ScenarioError:
        return None


def walk_ases(net, trace):
    return {net.asn_of_router(rid) for rid in trace.router_path()} or {
        net.asn_of_router(trace.src_router)
    }


def check_trace_reuse(data):
    net = data.draw(st.sampled_from(NETS))
    sensors = draw_sensors(data, net)
    pairs = [(s, d) for s in sensors for d in sensors if s != d]
    prefixes = sorted(
        {net.autonomous_system(net.asn_of_router(s)).prefix for s in sensors}
    )
    blocked = frozenset(
        data.draw(st.sets(st.sampled_from([a.asn for a in net.ases()]), max_size=1))
    )
    nominal = NetworkState.nominal()
    base = nominal
    if data.draw(st.booleans()):
        base = change(data, net, nominal, nominal, prefixes, ([], []))
    sim = Simulator(net, {net.asn_of_router(s) for s in sensors})
    sim.routing(base)  # pins the baseline
    baseline = {pair: sim.trace(base, *pair, blocked) for pair in pairs}
    on_path = path_elements(net, baseline.values())
    sampler = make_sampler(data, sim, sensors, base)

    def check(state):
        assert_touched_matches_oracle(sim, state, baseline, blocked)
        assert_matches_full_walk(sim, state, pairs, blocked)
        if sampler is not None:
            assert_admission_matches_full_walk(sampler, state)

    check(base)
    for _ in range(data.draw(st.integers(min_value=2, max_value=4))):
        state = base
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            state = change(data, net, state, base, prefixes, on_path)
        check(state)

    # An IGP-only change on an intradomain link of the paths: every pair
    # whose baseline walk stays out of that AS is served by the baseline
    # object itself.
    intra = [lid for lid in on_path[0] if not net.is_interdomain(lid)]
    lid = data.draw(st.sampled_from(intra or sorted(INTRA[net])))
    touched = INTRA[net][lid]
    if data.draw(st.booleans()):
        state = base.with_failed_links([lid])
    else:
        state = base.with_weight(lid, data.draw(st.sampled_from([2, 60])))
    check(state)
    for pair, trace in baseline.items():
        if touched not in walk_ases(net, trace):
            assert sim.trace(state, *pair, blocked) is trace

    # Walks first made under a failure state, once the indexes exist, join
    # them: the state's memoised touched set must not answer for them.
    other = frozenset() if blocked else frozenset({net.asn_of_router(sensors[0])})
    assert_matches_full_walk(sim, state, pairs, other)
    later = {pair: sim.trace(base, *pair, other) for pair in pairs}
    assert_touched_matches_oracle(sim, state, later, other)


def check_snapshot_reuse(data):
    """A T+ round that reuses the untouched pairs' post-epoch baseline
    probes equals a fresh probe of every pair, and so do its changed,
    failed and rerouted pairs."""
    net = data.draw(st.sampled_from(NETS))
    routers = draw_sensors(data, net)
    sensors = make_sensors(routers)
    prefixes = sorted(
        {net.autonomous_system(net.asn_of_router(r)).prefix for r in routers}
    )
    asns = {net.asn_of_router(r) for r in routers}
    blocked = frozenset(
        data.draw(st.sets(st.sampled_from([a.asn for a in net.ases()]), max_size=2))
    )
    nominal = NetworkState.nominal()
    # Fewer traces kept than walks: touched walks are evicted and re-walked.
    sim = Simulator(
        net, asns, trace_cache_capacity=data.draw(st.sampled_from([1, 2, 5]))
    )
    pre = probe_mesh(sim, sensors, nominal, blocked, EPOCH_PRE)
    post = probe_mesh(sim, sensors, nominal, blocked, EPOCH_POST)
    on_path = path_elements(
        net,
        [
            sim.trace(nominal, src.router_id, dst.router_id, blocked)
            for src in sensors
            for dst in sensors
            if src.sensor_id != dst.sensor_id
        ],
    )
    for _ in range(data.draw(st.integers(min_value=2, max_value=4))):
        state = nominal
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            state = change(data, net, state, nominal, prefixes, on_path)
        reused = take_snapshot(
            sim, sensors, nominal, state, blocked, baseline=pre, baseline_post=post
        )
        fresh_sim = Simulator(net, asns, validate=False)
        fresh_sim.routing(state)  # its pinned baseline: nothing is reused
        fresh = MeasurementSnapshot(
            before=pre,
            after=probe_mesh(fresh_sim, sensors, state, blocked, EPOCH_POST),
            asn_of=sim.mapper.asn_of,
        )
        assert reused.after.pairs() == fresh.after.pairs()
        for pair in fresh.after.pairs():
            assert reused.after.get(pair) == fresh.after.get(pair), (state, pair)
        assert reused.changed_pairs() == fresh.changed_pairs()
        assert reused.failed_pairs() == fresh.failed_pairs()
        assert reused.rerouted_pairs() == fresh.rerouted_pairs()


def test_swapped_overrides_are_not_the_baseline():
    """Base and failure state hold the same two overrides on one link in
    swapped order: equal as sets, yet the later one wins, so the link's
    AS must be screened as changed and its crossing pairs re-walked."""
    fig2 = figure2_network()
    net = fig2.net
    lid = fig2.link_between("y1", "y4").lid
    sensors = sorted(fig2.sensor_routers.values())
    pairs = [(s, d) for s in sensors for d in sensors if s != d]
    nominal = NetworkState.nominal()
    base = nominal.with_weight(lid, 1).with_weight(lid, 60)
    state = nominal.with_weight(lid, 60).with_weight(lid, 1)
    sim = Simulator(net, {net.asn_of_router(s) for s in sensors})
    sim.routing(base)  # pins the baseline
    assert_matches_full_walk(sim, base, pairs, frozenset())
    assert sim.igp_cache.changed_ases(state, base) == {fig2.asn("Y")}
    assert_matches_full_walk(sim, state, pairs, frozenset())
    rerouted = [
        pair for pair in pairs if sim.trace(state, *pair) != sim.trace(base, *pair)
    ]
    assert rerouted  # the case exercises the screen


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_trace_reuse_matches_full_walk(data):
    check_trace_reuse(data)


@pytest.mark.slow
@given(data=st.data())
@settings(max_examples=1500, deadline=None)
def test_trace_reuse_matches_full_walk_large_budget(data):
    check_trace_reuse(data)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reused_t_plus_round_matches_fresh_probes(data):
    check_snapshot_reuse(data)


@pytest.mark.slow
@given(data=st.data())
@settings(max_examples=600, deadline=None)
def test_reused_t_plus_round_matches_fresh_probes_large_budget(data):
    check_snapshot_reuse(data)
