"""The slow path of the empathy diagnosis, kept as a test oracle.

Before the empathy engine read its inputs off the T- round's physical
graph, :meth:`repro.empathy.EmpathyDiagnoser.diagnose` built a fresh
physical graph over every path of both rounds, and its alive-link set by
walking every working pair's T+ path.  :func:`diagnose` below is that
implementation over memo-free path links, so no memo of the production
code can leak into the reference.  Event mining is shared with
production: it did not change.  The property test
``tests/property/test_empathy_oracle.py`` requires the production
result to equal this one field by field.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Set, Tuple

from repro.core.graph import InferredGraph
from repro.core.linkspace import IpLink, LinkToken, ip_link, sort_key
from repro.core.pathset import MeasurementSnapshot, ProbePath
from repro.core.result import DiagnosisResult
from repro.empathy.delta import KIND_FAILED, compute_deltas
from repro.empathy.mining import mine_events
from repro.errors import DiagnosisError


def links(path: ProbePath) -> Tuple[IpLink, ...]:
    """:meth:`ProbePath.links`, recomputed on every call."""
    return tuple(ip_link(a, b) for a, b in zip(path.hops, path.hops[1:]))


def from_paths(paths: Iterable[ProbePath]) -> InferredGraph:
    graph = InferredGraph()
    for path in paths:
        graph.add_path(path.pair, links(path))
    return graph


def alive_links(snapshot: MeasurementSnapshot) -> Set[LinkToken]:
    """Every link some working pair's T+ path traverses."""
    alive: Set[LinkToken] = set()
    for pair in snapshot.working_pairs():
        alive.update(links(snapshot.after.get(pair)))
    return alive


def diagnose(snapshot: MeasurementSnapshot) -> DiagnosisResult:
    if not snapshot.any_failure():
        raise DiagnosisError(
            "nothing to diagnose: every probed pair is reachable "
            "(the troubleshooter is only invoked on unreachabilities)"
        )
    deltas = compute_deltas(snapshot)
    events = mine_events(deltas)

    alive = alive_links(snapshot)

    hypothesis: Set[LinkToken] = set()
    excluded: Set[LinkToken] = set()
    refined = 0
    attribution = []
    for event in events:
        segment = event.segment - alive
        if segment:
            if segment != event.segment:
                refined += 1
                excluded.update(event.segment & alive)
        else:
            segment = event.segment
        hypothesis.update(segment)
        attribution.append(
            {
                "pairs": [f"{src}->{dst}" for src, dst in event.pairs],
                "failures": event.failures,
                "segment": [str(link) for link in sorted(segment, key=sort_key)],
                "segment_size": len(segment),
            }
        )

    unexplained = tuple(
        delta.lost
        for delta in deltas
        if delta.kind == KIND_FAILED and not (delta.lost & hypothesis)
    )
    graph = from_paths(chain(snapshot.before.paths(), snapshot.after.paths()))
    failed = sum(1 for d in deltas if d.kind == KIND_FAILED)
    return DiagnosisResult(
        algorithm="empathy",
        hypothesis=frozenset(hypothesis),
        graph=graph,
        excluded=frozenset(excluded - hypothesis),
        unexplained_failures=unexplained,
        details={
            "empathy": {
                "changed_traces": len(deltas),
                "failed_traces": failed,
                "rerouted_traces": len(deltas) - failed,
                "events": len(events),
                "refined_events": refined,
            },
            "empathy_events": attribution,
        },
    )
