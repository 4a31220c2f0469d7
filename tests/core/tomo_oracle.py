"""Tomo's per-pair exoneration walk, kept as a test oracle.

Before :func:`repro.core.tomo.tomo` read its exoneration set off the T-
graph (the links some pair outside the failed ones traverses), it walked
every working pair's T- path on every diagnosis.  :func:`tomo` below is
that implementation, unchanged.  The property test
``tests/property/test_edge_inputs_oracle.py`` requires the production
result to equal it: hypothesis, excluded links, unexplained failures and
details.
"""

from __future__ import annotations

from typing import Set

from repro.core.hitting_set import greedy_hitting_set
from repro.core.linkspace import LinkToken
from repro.core.pathset import MeasurementSnapshot
from repro.core.result import DiagnosisResult


def tomo(snapshot: MeasurementSnapshot) -> DiagnosisResult:
    """Tomo (Algorithm 1) with the working set walked pair by pair."""
    failure_sets = [
        frozenset(snapshot.before.get(pair).links())
        for pair in snapshot.failed_pairs()
    ]
    working: Set[LinkToken] = set()
    for pair in snapshot.working_pairs():
        working.update(snapshot.before.get(pair).links())

    outcome = greedy_hitting_set(failure_sets, excluded=working)
    return DiagnosisResult(
        algorithm="tomo",
        hypothesis=outcome.hypothesis,
        graph=snapshot.before.physical_graph(),
        excluded=frozenset(working),
        unexplained_failures=outcome.unexplained_failures,
        details={
            "failure_sets": len(failure_sets),
            "iterations": outcome.iterations,
        },
    )
