"""Duffield's SCFS algorithm — the single-source baseline (§2.1).

"Smallest Common Failure Set" (Duffield 2006) works on a *tree* of paths
from one source to many destinations with known leaf status: it blames,
for every maximal subtree whose leaves are all bad, the link entering the
subtree's root — the links *nearest the source* consistent with the
observations.  The paper uses it as the starting point that cannot handle
the multi-source multi-destination, multi-AS setting; we keep it as a
baseline and for regression tests against the Figure 1 example.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Mapping, Set, Tuple

from repro.errors import DiagnosisError

__all__ = ["scfs", "scfs_diagnose"]

Node = Hashable
Edge = Tuple[Node, Node]  # (parent, child)


def scfs(
    parent: Mapping[Node, Node],
    root: Node,
    leaf_status: Mapping[Node, bool],
) -> FrozenSet[Edge]:
    """Run SCFS on a tree.

    Parameters
    ----------
    parent:
        Child -> parent map describing the tree (the root has no entry).
    root:
        The probing source.
    leaf_status:
        Leaf node -> True (reachable) / False (unreachable).  Every leaf of
        the tree must be present.

    Returns
    -------
    The set of (parent, child) edges blamed: for each maximal all-bad
    subtree, the edge entering its root.
    """
    children: Dict[Node, List[Node]] = {}
    for child, par in parent.items():
        children.setdefault(par, []).append(child)
    for node in children:
        children[node].sort(key=repr)
    if root in parent:
        raise DiagnosisError("the root cannot have a parent")

    all_nodes: Set[Node] = {root} | set(parent) | set(children)
    leaves = [n for n in all_nodes if n not in children]
    for leaf in leaves:
        if leaf not in leaf_status:
            raise DiagnosisError(f"leaf {leaf!r} has no observed status")

    # A node is "bad" when every leaf under it is bad.
    bad: Dict[Node, bool] = {}

    def compute(node: Node) -> bool:
        if node in bad:
            return bad[node]
        if node not in children:  # leaf
            bad[node] = not leaf_status[node]
            return bad[node]
        # Evaluate every child (no short-circuit: walk() needs bad[] filled
        # for the whole tree).
        child_bad = [compute(child) for child in children[node]]
        bad[node] = all(child_bad)
        return bad[node]

    compute(root)

    blamed: Set[Edge] = set()

    def walk(node: Node) -> None:
        # Called only on non-bad nodes: blame edges into maximal all-bad
        # subtrees, recurse into the rest.
        for child in children.get(node, ()):
            if bad[child]:
                blamed.add((node, child))
            else:
                walk(child)

    if bad[root]:
        # Every destination is unreachable: the most parsimonious culprit
        # is the root's own access link(s); blame every edge out of root.
        for child in children.get(root, ()):
            blamed.add((root, child))
    else:
        walk(root)
    return frozenset(blamed)


def scfs_diagnose(snapshot) -> "DiagnosisResult":
    """Run SCFS per source over a :class:`MeasurementSnapshot`.

    SCFS assumes a *tree* of paths from one source; the full mesh is not
    one, so the adapter builds one tree per probing source from the T-
    paths and runs SCFS independently on each, unioning the blamed edges.
    Where the measured paths from a source are not tree-consistent (a hop
    seen with two different upstream hops), the first-seen parent wins and
    the conflicting path's tail is dropped from the tree — its pair then
    contributes no leaf status, which is exactly the blind spot that makes
    SCFS the paper's single-source baseline rather than a contender.
    Leaf status comes from the T+ reachability matrix; intermediate nodes
    that happen to be destinations keep their subtree (their own status is
    unused, another SCFS limitation we surface in ``details``).
    """
    from repro.core.linkspace import ip_link
    from repro.core.pathset import MeasurementSnapshot
    from repro.core.result import DiagnosisResult

    assert isinstance(snapshot, MeasurementSnapshot)
    reached = {pair: snapshot.after.get(pair).reached for pair in snapshot.after.pairs()}

    by_source: Dict[str, List] = {}
    for path in snapshot.before.paths():
        by_source.setdefault(path.src, []).append(path)

    blamed_links: Set = set()
    truncated = 0
    unused_status = 0
    sources_run = 0
    for source in sorted(by_source):
        paths = by_source[source]
        if all(reached[path.pair] for path in paths):
            continue  # nothing bad under this root: SCFS blames nothing
        sources_run += 1
        parent: Dict[Node, Node] = {}
        destinations: Dict[Node, bool] = {}
        for path in paths:
            whole = True
            for a, b in zip(path.hops, path.hops[1:]):
                if b == source:
                    whole = False
                    break  # cannot re-enter the root
                if b in parent:
                    if parent[b] != a:
                        whole = False
                        break  # tree conflict: first-seen parent wins
                else:
                    parent[b] = a
            if whole:
                destinations[path.hops[-1]] = reached[path.pair]
            else:
                truncated += 1
        children_of = set(parent.values())
        leaf_status = {}
        for node in set(parent) - children_of:
            if node in destinations:
                leaf_status[node] = destinations[node]
            else:
                # A truncated tail left this node childless with no probe
                # of its own; treat it as good (no evidence against it).
                leaf_status[node] = True
                unused_status += 1
        unused_status += sum(1 for d in destinations if d in children_of)
        if not leaf_status or all(leaf_status.values()):
            continue  # every surviving leaf good: nothing to blame
        for par, child in scfs(parent, source, leaf_status):
            blamed_links.add(ip_link(par, child))

    hypothesis = frozenset(blamed_links)
    unexplained = tuple(
        links
        for links in (
            frozenset(snapshot.before.get(pair).links())
            for pair in snapshot.failed_pairs()
        )
        if not links & hypothesis
    )
    return DiagnosisResult(
        algorithm="scfs",
        hypothesis=hypothesis,
        graph=snapshot.before.physical_graph(),
        unexplained_failures=unexplained,
        details={
            "sources": sources_run,
            "truncated_paths": truncated,
            "shadowed_leaves": unused_status,
        },
    )
