"""Differential test: the empathy engine read off the T- graph equals the
slow path.

Production builds the empathy graph copy-on-write over the T- round's
physical graph (built once per round) plus the changed pairs' T+ links,
and reads the alive-link set off that graph instead of walking every
working pair's T+ path.  The oracle in ``tests/empathy/empathy_oracle.py``
builds a graph over both rounds and walks every working path.  The
snapshots are those of ``test_edge_inputs_oracle.py``: random composite
events on the Figure 2 world, one blocked AS, and seeded truncation,
anonymous-hop and reach-flip faults; half the examples share one T-
round across every example, as a session does.  SCFS's graph, now the
T- round's own, is checked against a fresh build too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diagnoser import NetDiagnoser
from repro.core.pathset import ProbePath
from repro.empathy import EmpathyDiagnoser
from repro.faults import FaultPlan
from repro.measurement.collector import take_snapshot
from tests.empathy import empathy_oracle as oracle
from tests.property.test_edge_inputs_oracle import (
    BASELINES,
    FAULTS,
    NOMINAL,
    traversals,
)
from tests.property.test_fuzz_pipeline import FIG, SENSORS, SIM, random_event


def assert_same_result(got, want):
    assert got.algorithm == want.algorithm
    assert got.hypothesis == want.hypothesis
    assert got.excluded == want.excluded
    assert got.unexplained_failures == want.unexplained_failures
    assert got.unexplained_reroutes == want.unexplained_reroutes
    assert got.details == want.details
    assert traversals(got.graph) == traversals(want.graph)
    assert len(got.graph) == len(want.graph)
    assert got.graph.tokens() == want.graph.tokens()


def check_against_oracle(event, blocked_name, fault_seed, reuse):
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
    alive = shared.working_tokens(
        shared.before.physical_graph(), ProbePath.links
    )
    assert alive == oracle.alive_links(shared)
    if not shared.any_failure():
        return
    want = oracle.diagnose(snapshot())
    assert_same_result(EmpathyDiagnoser().diagnose(shared), want)
    # Again on the same snapshot, its T- graph now built and extended.
    assert_same_result(EmpathyDiagnoser().diagnose(shared), want)
    scfs = NetDiagnoser("scfs").diagnose(shared)
    fresh = oracle.from_paths(shared.before.paths())
    assert traversals(scfs.graph) == traversals(fresh)
    assert len(scfs.graph) == len(fresh)


oracle_examples = given(
    event=random_event(),
    blocked_name=st.sampled_from(["X", "Y"]),
    fault_seed=st.integers(min_value=0, max_value=1_000_000),
    reuse=st.booleans(),
)


@oracle_examples
@settings(max_examples=100, deadline=None)
def test_empathy_matches_the_slow_path(event, blocked_name, fault_seed, reuse):
    check_against_oracle(event, blocked_name, fault_seed, reuse)


@pytest.mark.slow
@oracle_examples
@settings(max_examples=1000, deadline=None)
def test_empathy_matches_the_slow_path_large_budget(
    event, blocked_name, fault_seed, reuse
):
    check_against_oracle(event, blocked_name, fault_seed, reuse)
