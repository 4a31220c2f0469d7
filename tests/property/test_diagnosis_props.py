"""Property-based tests on diagnosis invariants over random scenarios.

Random failures are injected into the Figure 2 world and a seeded chain;
the properties assert what must hold for *any* admitted scenario: no
false negatives for ND-edge on single failures, no blamed link on a
working path, metric bounds, and projection consistency.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.diagnoser import NetDiagnoser
from repro.core.linkspace import undirected_projection
from repro.core.metrics import sensitivity, specificity
from repro.measurement.collector import take_snapshot
from repro.measurement.sensors import deploy_sensors
from repro.netsim.builders import figure2_network
from repro.netsim.events import LinkFailureEvent
from repro.netsim.simulator import Simulator
from repro.netsim.topology import NetworkState


def fig2_world():
    fig = figure2_network()
    sim = Simulator(fig.net, [fig.asn("A"), fig.asn("B"), fig.asn("C")])
    sensors = deploy_sensors(
        fig.net, [fig.sensor_routers[s] for s in ("s1", "s2", "s3")]
    )
    return fig, sim, sensors


FIG, SIM, SENSORS = fig2_world()
ALL_LINKS = [l.lid for l in FIG.net.links()]


@given(
    lids=st.sets(st.sampled_from(ALL_LINKS), min_size=1, max_size=2),
    variant=st.sampled_from(["tomo", "nd-edge"]),
)
@settings(max_examples=60, deadline=None)
def test_hypothesis_disjoint_from_exclusions_and_bounded(lids, variant):
    after = SIM.apply(LinkFailureEvent(tuple(sorted(lids))))
    snap = take_snapshot(SIM, SENSORS, NetworkState.nominal(), after)
    assume(snap.any_failure())
    result = NetDiagnoser(variant).diagnose(snap)
    assert not result.hypothesis & result.excluded
    assert result.physical_hypothesis() <= result.physical_universe()


def rerouted_over_all_working_pairs(snap):
    """Every working pair whose hops differ, UH stars compared by
    position: the comparison ``rerouted_pairs`` narrows to the changed
    pairs."""

    def normalised(path):
        return tuple(
            hop if isinstance(hop, str) else ("*", index)
            for index, hop in enumerate(path.hops)
        )

    return tuple(
        pair
        for pair in snap.working_pairs()
        if normalised(snap.before.get(pair)) != normalised(snap.after.get(pair))
    )


@given(
    lids=st.sets(st.sampled_from(ALL_LINKS), max_size=2),
    reweighted=st.sets(st.sampled_from(ALL_LINKS), max_size=2),
    blocked=st.sets(st.sampled_from([a.asn for a in FIG.net.ases()]), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_rerouted_pairs_match_the_all_pairs_comparison(lids, reweighted, blocked):
    after = NetworkState.nominal().with_failed_links(lids)
    for lid in sorted(reweighted):
        after = after.with_weight(lid, 60)
    snap = take_snapshot(
        SIM, SENSORS, NetworkState.nominal(), after, blocked_ases=frozenset(blocked)
    )
    assert snap.rerouted_pairs() == rerouted_over_all_working_pairs(snap)


@given(lid=st.sampled_from(ALL_LINKS))
@settings(max_examples=30, deadline=None)
def test_nd_edge_single_failure_no_false_negative(lid):
    after = SIM.apply(LinkFailureEvent((lid,)))
    snap = take_snapshot(SIM, SENSORS, NetworkState.nominal(), after)
    assume(snap.any_failure())
    link = FIG.net.link(lid)
    from repro.core.linkspace import physical_link

    truth = physical_link(
        FIG.net.router(link.a).address, FIG.net.router(link.b).address
    )
    result = NetDiagnoser("nd-edge").diagnose(snap)
    assert truth in result.physical_hypothesis()


@given(
    truth=st.sets(st.integers(0, 30), min_size=1, max_size=5),
    hypothesis=st.sets(st.integers(0, 30), max_size=10),
    extra=st.sets(st.integers(0, 30), max_size=20),
)
def test_metric_bounds_and_extremes(truth, hypothesis, extra):
    universe = frozenset(truth | hypothesis | extra)
    sens = sensitivity(frozenset(truth), frozenset(hypothesis))
    spec = specificity(universe, frozenset(truth), frozenset(hypothesis))
    assert 0.0 <= sens <= 1.0
    assert 0.0 <= spec <= 1.0
    if truth <= hypothesis:
        assert sens == 1.0
    if not hypothesis:
        assert spec == 1.0


@given(
    lids=st.sets(st.sampled_from(ALL_LINKS), min_size=1, max_size=2),
)
@settings(max_examples=30, deadline=None)
def test_undirected_projection_idempotent_on_results(lids):
    after = SIM.apply(LinkFailureEvent(tuple(sorted(lids))))
    snap = take_snapshot(SIM, SENSORS, NetworkState.nominal(), after)
    assume(snap.any_failure())
    result = NetDiagnoser("nd-edge").diagnose(snap)
    physical = result.physical_hypothesis()
    assert undirected_projection(result.hypothesis) == physical
    # Projection is a set-size contraction.
    assert len(physical) <= len(result.hypothesis)
