"""ND-edge: NetDiagnoser from end-to-end probes only (§3.1-3.2).

ND-edge extends Tomo with the two edge-data features:

* the graph and all constraint sets use **logical links**, so router
  misconfigurations are expressible (§3.1);
* **post-failure traceroutes** feed the working-path constraints (current
  paths, not stale ones) and produce **reroute sets** that enter the
  greedy score with weight ``b`` (§3.2, a = b = 1 by default).

The optional ``use_partial_traces`` extension (not in the paper; see
``DESIGN.md`` §6) additionally exonerates the links a *failed* probe's
truncated T+ trace demonstrably crossed.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set

from repro.core.graph import InferredGraph
from repro.core.hitting_set import greedy_hitting_set
from repro.core.linkspace import ORIGIN_TAG, UNKNOWN_TAG, LinkToken, LogicalLink
from repro.core.logical import logicalize
from repro.core.pathset import MeasurementSnapshot, Pair
from repro.core.reroute import reroute_sets
from repro.core.result import DiagnosisResult

__all__ = ["EdgeInputs", "build_edge_inputs", "nd_edge"]

TokenSet = FrozenSet[LinkToken]


@dataclass(frozen=True)
class EdgeInputs:
    """Everything the edge data contributes to a greedy run.

    Shared by ND-edge, ND-bgpigp and ND-LG, which differ only in the extra
    constraints (control plane, UH clusters) they layer on top.  Read-only:
    :func:`build_edge_inputs` shares one instance per snapshot and flags.
    """

    failure_sets: Mapping[Pair, TokenSet]
    working_excluded: TokenSet
    reroute_map: Mapping[Pair, TokenSet]
    graph: InferredGraph
    partial_exonerated: TokenSet = frozenset()
    logical_clusters: Optional[Mapping[LinkToken, TokenSet]] = None

    def excluded(self) -> TokenSet:
        """Combined exoneration set from edge data."""
        return self.working_excluded | self.partial_exonerated

    def cluster_of(self, token: LinkToken) -> TokenSet:
        """Same-physical-link logical siblings of ``token`` (see
        :func:`physical_clusters`)."""
        if not self.logical_clusters:
            return frozenset()
        return self.logical_clusters.get(token, frozenset())


def physical_clusters(
    token_sets: Iterable[Iterable[LinkToken]],
) -> Dict[LinkToken, TokenSet]:
    """Cluster logical tokens that annotate the same directed physical link.

    A physical failure of an interdomain link breaks *every* logical link
    over it, but each failed/rerouted path contributes evidence under its
    own destination-dependent tag.  Without aggregation the link's greedy
    score fragments across tags while intradomain links (untagged)
    accumulate theirs — and the true link loses ties it must win (the
    paper's near-one ND-edge sensitivity is unreachable otherwise; see
    ``DESIGN.md`` §5).  Scoring therefore groups logical tokens by
    (src, dst); *exclusion stays tag-exact*, which is what preserves the
    misconfiguration feature of §3.1.
    """
    groups: Dict[tuple, Set[LinkToken]] = {}
    for tokens in token_sets:
        for token in tokens:
            if isinstance(token, LogicalLink):
                groups.setdefault((token.src, token.dst), set()).add(token)
    clusters: Dict[LinkToken, TokenSet] = {}
    for members in groups.values():
        if len(members) < 2:
            continue
        for token in members:
            clusters[token] = frozenset(members - {token})
    return clusters


def build_edge_inputs(
    snapshot: MeasurementSnapshot,
    use_partial_traces: bool = False,
    drop_unidentified_from_failures: bool = False,
) -> EdgeInputs:
    """Derive the logical-granularity greedy inputs from a snapshot.

    ``drop_unidentified_from_failures`` implements the "ND-bgpigp simply
    ignores any unidentified link" behaviour of §5.4's comparison: failure
    sets keep identified tokens only (ND-LG keeps them and clusters them
    instead).

    Built once per snapshot and flag pair, and shared.
    """
    flags = (use_partial_traces, drop_unidentified_from_failures)
    return snapshot.derived(
        ("edge-inputs",) + flags, lambda: _edge_inputs(snapshot, *flags)
    )


def _edge_inputs(
    snapshot: MeasurementSnapshot,
    use_partial_traces: bool,
    drop_unidentified_from_failures: bool,
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

    # The union of both rounds: the T- graph (built once per round) plus
    # the T+ paths that are not hop-identical to their T- path.
    graph = InferredGraph(base=snapshot.before.logical_graph(asn_of))
    for pair in snapshot.changed_pairs():
        graph.add_path(pair, logicalize(snapshot.after.get(pair), asn_of))

    reroute_map = reroute_sets(snapshot, logical=True)
    clusters = physical_clusters(
        list(failure_sets.values()) + list(reroute_map.values())
    )
    return EdgeInputs(
        failure_sets=MappingProxyType(failure_sets),
        working_excluded=frozenset(working),
        reroute_map=MappingProxyType(reroute_map),
        graph=graph,
        partial_exonerated=frozenset(partial),
        logical_clusters=MappingProxyType(clusters),
    )


def nd_edge(
    snapshot: MeasurementSnapshot,
    failure_weight: int = 1,
    reroute_weight: int = 1,
    use_partial_traces: bool = False,
) -> DiagnosisResult:
    """Run ND-edge on a measurement snapshot."""
    inputs = build_edge_inputs(snapshot, use_partial_traces=use_partial_traces)
    outcome = greedy_hitting_set(
        list(inputs.failure_sets.values()),
        reroute_sets=list(inputs.reroute_map.values()),
        excluded=inputs.excluded(),
        failure_weight=failure_weight,
        reroute_weight=reroute_weight,
        cluster_of=inputs.cluster_of,
    )
    return DiagnosisResult(
        algorithm="nd-edge",
        hypothesis=outcome.hypothesis,
        graph=inputs.graph,
        excluded=inputs.excluded(),
        unexplained_failures=outcome.unexplained_failures,
        unexplained_reroutes=outcome.unexplained_reroutes,
        details={
            "failure_sets": len(inputs.failure_sets),
            "reroute_sets": len(inputs.reroute_map),
            "partial_exonerated": len(inputs.partial_exonerated),
            "iterations": outcome.iterations,
        },
    )
