"""Tomo — multi-source multi-destination Boolean tomography (§2.4).

Tomo is the paper's baseline: the greedy Minimum Hitting Set heuristic run
on the *pre-failure* traceroute graph with the reachability matrix.  Its
deliberate blind spots (§2.5) are preserved faithfully:

* it uses only the T- paths — so its "working path" constraints are
  computed from stale pre-failure routes, and a rerouted-but-working pair
  wrongly exonerates the failed link it used to cross;
* it has no logical links — a misconfigured link carrying any working path
  is exonerated outright;
* it ignores reroute sets, control-plane messages and Looking Glasses.
"""

from __future__ import annotations

from itertools import chain

from repro.core.hitting_set import greedy_hitting_set
from repro.core.pathset import MeasurementSnapshot
from repro.core.result import DiagnosisResult

__all__ = ["tomo"]


def tomo(snapshot: MeasurementSnapshot) -> DiagnosisResult:
    """Run Tomo (Algorithm 1) on a measurement snapshot.

    Only ``snapshot.before`` paths and the reachability matrix are
    consulted, exactly as in §2.4.  The working pairs' T- links are the
    T- graph's links some pair outside the failed ones traverses, so
    only the failed pairs' paths are read.
    """
    failed = snapshot.failed_pairs()
    failure_sets = [
        frozenset(snapshot.before.get(pair).links()) for pair in failed
    ]
    graph = snapshot.before.physical_graph()
    working = graph.traversed_beyond(
        frozenset(failed), chain.from_iterable(failure_sets)
    )

    outcome = greedy_hitting_set(failure_sets, excluded=working)
    return DiagnosisResult(
        algorithm="tomo",
        hypothesis=outcome.hypothesis,
        graph=graph,
        excluded=frozenset(working),
        unexplained_failures=outcome.unexplained_failures,
        details={
            "failure_sets": len(failure_sets),
            "iterations": outcome.iterations,
        },
    )
