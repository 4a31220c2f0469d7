"""Topology validation: is this configuration safe to converge?

The BGP engine's route computation is only exact for Gao-Rexford-safe
configurations: the customer→provider digraph must be acyclic (no AS is,
transitively, its own provider).  The generators always produce safe
hierarchies, but hand-built topologies can violate it.  The engine rejects
a provider cycle with a :class:`~repro.errors.ConvergenceError` when it is
built; :func:`validate_gao_rexford` reports every hazard at once, as named
issues, and shares the cycle finder :func:`_find_cycle` with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.netsim.topology import Internetwork, Relationship

__all__ = ["ValidationIssue", "validate_gao_rexford"]


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found by the validator."""

    kind: str
    detail: str


def validate_gao_rexford(net: Internetwork) -> List[ValidationIssue]:
    """Check the configuration for Gao-Rexford safety hazards.

    Returns the (possibly empty) list of issues:

    * ``provider-cycle`` — the customer→provider relation has a cycle;
      path-vector convergence is no longer guaranteed;
    * ``undeclared-relationship`` — an interdomain link whose AS pair has
      no declared relationship (construction normally prevents this; a
      deserialised or hand-patched topology might not);
    * ``isolated-as`` — an AS with routers but no interdomain link at all
      (its prefix can never be reached; usually a wiring bug).
    """
    issues: List[ValidationIssue] = []

    # Build the customer -> provider digraph.
    providers: Dict[int, List[int]] = {a.asn: [] for a in net.ases()}
    connected = set()
    for link in net.inter_links():
        asn_a, asn_b = net.link_asns(link.lid)
        connected.update((asn_a, asn_b))
        rel = net.relationship(asn_a, asn_b)
        if rel is None:
            issues.append(
                ValidationIssue(
                    kind="undeclared-relationship",
                    detail=f"link {link.lid} joins AS{asn_a}-AS{asn_b} "
                    "without a declared relationship",
                )
            )
            continue
        if rel is Relationship.CUSTOMER_PROVIDER:
            providers[asn_a].append(asn_b)
        elif rel is Relationship.PROVIDER_CUSTOMER:
            providers[asn_b].append(asn_a)

    cycle = _find_cycle(providers)
    if cycle:
        pretty = " -> ".join(f"AS{asn}" for asn in cycle)
        issues.append(
            ValidationIssue(
                kind="provider-cycle",
                detail=f"customer/provider cycle: {pretty}",
            )
        )

    for autsys in net.ases():
        if autsys.router_ids and autsys.asn not in connected and net.num_ases > 1:
            issues.append(
                ValidationIssue(
                    kind="isolated-as",
                    detail=f"AS{autsys.asn} ({autsys.name}) has no "
                    "interdomain link",
                )
            )
    return issues


def _find_cycle(providers: Dict[int, List[int]]) -> Tuple[int, ...]:
    """First cycle of the customer->provider digraph (empty if acyclic)."""
    WHITE, GREY, BLACK = 0, 1, 2
    colour = {asn: WHITE for asn in providers}

    def dfs(asn: int, stack: List[int]) -> Tuple[int, ...]:
        colour[asn] = GREY
        stack.append(asn)
        for provider in providers[asn]:
            if colour[provider] == GREY:
                start = stack.index(provider)
                return tuple(stack[start:] + [provider])
            if colour[provider] == WHITE:
                found = dfs(provider, stack)
                if found:
                    return found
        stack.pop()
        colour[asn] = BLACK
        return ()

    for asn in sorted(providers):
        if colour[asn] == WHITE:
            found = dfs(asn, [])
            if found:
                return found
    return ()
