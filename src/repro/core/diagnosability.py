"""The diagnosability metric D(G) (§4, "Sensor placement and
diagnosability").

For each link l of the inferred graph, its hitting set h(l) is the set of
probe pairs traversing it.  Links sharing the same hitting set are
indistinguishable: any of them failing produces the same reachability
matrix.  Diagnosability is the fraction of links that are distinguishable::

    D(G) = |{distinct h(l)}| / |E|

D = 1 means every single-link failure is precisely identifiable; D -> 0
means large equivalence classes of mutually confusable links.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.core.graph import InferredGraph
from repro.core.linkspace import LinkToken
from repro.core.pathset import Pair

__all__ = ["diagnosability", "indistinguishable_classes"]


def diagnosability(graph: InferredGraph) -> float:
    """D(G) = number of distinct hitting sets / number of probed links."""
    if len(graph) == 0:
        return 0.0
    distinct = {graph.traversed_by(token) for token in graph}
    return len(distinct) / len(graph)


def indistinguishable_classes(
    graph: InferredGraph,
) -> Tuple[Tuple[LinkToken, ...], ...]:
    """Equivalence classes of links with identical hitting sets.

    Sorted largest class first; useful for understanding *why* a placement
    diagnoses poorly (the paper's "distant AS" placement produces one big
    class per inter-AS path segment).
    """
    classes: Dict[FrozenSet[Pair], List[LinkToken]] = {}
    for token in graph.tokens():
        classes.setdefault(graph.traversed_by(token), []).append(token)
    return tuple(
        tuple(links)
        for links in sorted(classes.values(), key=len, reverse=True)
    )
