"""Differential test: diagnosis inputs built once equal the slow path.

Production derives the edge inputs once per snapshot and flag pair, the
logical tokens once per path (a hop-identical T+ path shares its T-
path's), and the T- graphs once per round.  The oracle in
``tests/core/edge_inputs_oracle.py`` recomputes everything on every
call.  Random composite events on the Figure 2 world, one blocked AS and
seeded truncation / anonymous-hop faults make UH hops, truncated T+
paths and tag changes all occur; half the examples instead reuse one T-
round across every example, as a session does.  Every diagnoser must
also return the same result on a snapshot other diagnosers already
derived inputs from as on a fresh one, whatever the order.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diagnoser import NetDiagnoser
from repro.core.nd_edge import build_edge_inputs
from repro.faults import FaultConfig, FaultPlan
from repro.measurement.collector import (
    collect_control_plane,
    make_lg_lookup,
    take_snapshot,
)
from repro.measurement.probing import probe_mesh
from repro.netsim.lookingglass import LookingGlassService
from repro.netsim.topology import NetworkState
from tests.core.edge_inputs_oracle import build_edge_inputs as oracle_inputs
from tests.property.test_fuzz_pipeline import FIG, SENSORS, SIM, random_event

NOMINAL = NetworkState.nominal()
#: Truncated and anonymous hops, plus flipped reach bits: a T+ path with
#: its T- hops that claims it did not reach must not share T- tokens.
FAULTS = FaultConfig(
    trace_truncate_rate=0.2, hop_anon_rate=0.1, reach_flip_rate=0.1
)
FLAGS = ((False, False), (True, False), (False, True), (True, True))
VARIANTS = ("tomo", "nd-edge", "nd-bgpigp", "nd-lg")
LG = LookingGlassService(FIG.net, [a.asn for a in FIG.net.ases()])
ASX = FIG.asn("X")

#: One T- round per blocked AS, shared by every example that reuses it.
BASELINES = {
    name: probe_mesh(SIM, SENSORS, NOMINAL, frozenset({FIG.asn(name)}))
    for name in ("X", "Y")
}


def traversals(graph):
    return {token: graph.traversed_by(token) for token in graph}


def assert_same_inputs(fast, slow):
    assert fast.failure_sets == slow.failure_sets
    assert fast.working_excluded == slow.working_excluded
    assert fast.reroute_map == slow.reroute_map
    assert traversals(fast.graph) == traversals(slow.graph)
    assert len(fast.graph) == len(slow.graph)
    assert fast.graph.tokens() == slow.graph.tokens()
    assert fast.partial_exonerated == slow.partial_exonerated
    assert fast.logical_clusters == slow.logical_clusters


def assert_same_result(got, want):
    assert got.algorithm == want.algorithm
    assert got.hypothesis == want.hypothesis
    assert got.excluded == want.excluded
    assert got.unexplained_failures == want.unexplained_failures
    assert got.unexplained_reroutes == want.unexplained_reroutes
    assert got.details == want.details
    assert traversals(got.graph) == traversals(want.graph)


def check_against_oracle(event, blocked_name, fault_seed, reuse, order):
    after = SIM.apply(event)
    blocked = frozenset({FIG.asn(blocked_name)})

    def snapshot():
        if reuse:
            return take_snapshot(
                SIM, SENSORS, NOMINAL, after, blocked,
                baseline=BASELINES[blocked_name],
            )
        return take_snapshot(
            SIM, SENSORS, NOMINAL, after, blocked,
            faults=FaultPlan(fault_seed, FAULTS),
        )

    shared = snapshot()
    for flags in FLAGS:
        assert_same_inputs(
            build_edge_inputs(shared, *flags), oracle_inputs(shared, *flags)
        )
    if not shared.any_failure():
        return
    control = collect_control_plane(SIM, ASX, NOMINAL, after)
    lookup = make_lg_lookup(SIM, LG, NOMINAL, after, asx=ASX)
    for variant in order:
        diagnoser = NetDiagnoser(variant)
        got = diagnoser.diagnose(shared, control=control, lg_lookup=lookup)
        want = diagnoser.diagnose(snapshot(), control=control, lg_lookup=lookup)
        assert_same_result(got, want)


oracle_examples = given(
    event=random_event(),
    blocked_name=st.sampled_from(["X", "Y"]),
    fault_seed=st.integers(min_value=0, max_value=1_000_000),
    reuse=st.booleans(),
    order=st.permutations(VARIANTS),
)


@oracle_examples
@settings(max_examples=100, deadline=None)
def test_edge_inputs_match_the_slow_path(
    event, blocked_name, fault_seed, reuse, order
):
    check_against_oracle(event, blocked_name, fault_seed, reuse, order)


@pytest.mark.slow
@oracle_examples
@settings(max_examples=1000, deadline=None)
def test_edge_inputs_match_the_slow_path_large_budget(
    event, blocked_name, fault_seed, reuse, order
):
    check_against_oracle(event, blocked_name, fault_seed, reuse, order)
