"""The slow path of the edge inputs, kept as a test oracle.

Before diagnosis inputs were derived once per path, per snapshot and per
T- round, :func:`repro.core.nd_edge.build_edge_inputs` logicalized every
path on every call and built the inferred graph by merging a fresh
``from_logical_paths`` graph of each round.  :func:`build_edge_inputs`
below is that implementation, unchanged, over the memo-free
``logicalize`` and ``reroute_sets`` of the same time, so no memo of the
production code can leak into the reference.  The property test
``tests/property/test_edge_inputs_oracle.py`` requires the production
inputs to equal these field by field.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.core.graph import InferredGraph
from repro.core.linkspace import (
    ORIGIN_TAG,
    UNKNOWN_TAG,
    LinkToken,
    LogicalLink,
    ip_link,
    is_unidentified,
    physical_projection,
)
from repro.core.nd_edge import EdgeInputs, physical_clusters
from repro.core.pathset import MeasurementSnapshot, Pair, ProbePath

TokenSet = FrozenSet[LinkToken]


def logicalize(
    path: ProbePath,
    asn_of: Callable[[str], Optional[int]],
    terminal_tag: Optional[int] = None,
) -> Tuple[LinkToken, ...]:
    """The §3.1 token sequence (:func:`repro.core.logical.logicalize`),
    recomputed on every call."""
    if terminal_tag is None:
        terminal_tag = ORIGIN_TAG if path.reached else UNKNOWN_TAG
    hops = path.hops
    hop_asns: List[Optional[int]] = [
        asn_of(hop) if isinstance(hop, str) else None for hop in hops
    ]
    tokens: List[LinkToken] = []
    for index, (u, v) in enumerate(zip(hops, hops[1:])):
        if not (isinstance(u, str) and isinstance(v, str)):
            tokens.append(ip_link(u, v))
            continue
        asn_u, asn_v = hop_asns[index], hop_asns[index + 1]
        if asn_u is None or asn_v is None or asn_u == asn_v:
            tokens.append(ip_link(u, v))
            continue
        tag = _tag_after(hop_asns, index + 1, terminal_tag)
        tokens.append(LogicalLink(src=u, dst=v, tag=tag))
    return tuple(tokens)


def _tag_after(
    hop_asns: List[Optional[int]], v_index: int, terminal_tag: int
) -> int:
    asn_v = hop_asns[v_index]
    for asn in hop_asns[v_index + 1 :]:
        if asn is None:
            return UNKNOWN_TAG
        if asn != asn_v:
            return asn
    return terminal_tag


def from_logical_paths(
    paths: Iterable[ProbePath], asn_of: Callable[[str], Optional[int]]
) -> InferredGraph:
    graph = InferredGraph()
    for path in paths:
        graph.add_path(path.pair, logicalize(path, asn_of))
    return graph


def reroute_sets(snapshot: MeasurementSnapshot) -> Dict[Pair, TokenSet]:
    """:func:`repro.core.reroute.reroute_sets` at its defaults (logical
    tokens, unidentified tokens dropped) over the memo-free logicalize."""
    sets: Dict[Pair, TokenSet] = {}
    asn_of = snapshot.asn_of
    for pair in snapshot.rerouted_pairs():
        old_tokens = logicalize(snapshot.before.get(pair), asn_of)
        new_physical = physical_projection(
            logicalize(snapshot.after.get(pair), asn_of)
        )
        candidates = frozenset(
            token
            for token in old_tokens
            if not (physical_projection([token]) & new_physical)
            and not is_unidentified(token)
        )
        if candidates:
            sets[pair] = candidates
    return sets


def build_edge_inputs(
    snapshot: MeasurementSnapshot,
    use_partial_traces: bool = False,
    drop_unidentified_from_failures: bool = False,
) -> EdgeInputs:
    asn_of = snapshot.asn_of

    failure_sets: Dict[Pair, TokenSet] = {}
    for pair in snapshot.failed_pairs():
        tokens = logicalize(snapshot.before.get(pair), asn_of)
        if drop_unidentified_from_failures:
            tokens = tuple(t for t in tokens if t.identified)
        if tokens:
            failure_sets[pair] = frozenset(tokens)

    working: Set[LinkToken] = set()
    for pair in snapshot.working_pairs():
        working.update(logicalize(snapshot.after.get(pair), asn_of))

    partial: Set[LinkToken] = set()
    if use_partial_traces:
        for pair in snapshot.failed_pairs():
            truncated = snapshot.after.get(pair)
            # Terminal-tag rule for truncated traces: normally the
            # continuation beyond the last hop is unknown, but when the
            # trace already died *inside the destination sensor's AS* the
            # route group is certain — it terminates there (ORIGIN).
            last = truncated.hops[-1]
            dst_asn = asn_of(truncated.dst)
            last_asn = asn_of(last) if isinstance(last, str) else None
            terminal = (
                ORIGIN_TAG
                if last_asn is not None and last_asn == dst_asn
                else UNKNOWN_TAG
            )
            for token in logicalize(truncated, asn_of, terminal_tag=terminal):
                if isinstance(token, LogicalLink) and token.tag == UNKNOWN_TAG:
                    continue  # tag not observable from a truncated trace
                if not token.identified:
                    continue
                partial.add(token)

    graph = from_logical_paths(snapshot.before.paths(), asn_of).merge(
        from_logical_paths(snapshot.after.paths(), asn_of)
    )

    reroute_map = reroute_sets(snapshot)
    clusters = physical_clusters(
        list(failure_sets.values()) + list(reroute_map.values())
    )
    return EdgeInputs(
        failure_sets=failure_sets,
        working_excluded=frozenset(working),
        reroute_map=reroute_map,
        graph=graph,
        partial_exonerated=frozenset(partial),
        logical_clusters=clusters,
    )
