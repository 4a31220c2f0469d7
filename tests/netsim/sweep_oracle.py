"""The retired Gauss-Seidel sweep engine, kept as a test oracle.

Before the three-phase Gao-Rexford computation of
:mod:`repro.netsim.bgp.engine`, every prefix was converged by repeated
sweeps: each AS, in ascending ASN order, recomputed its best route from
its neighbours' *current* selections until a full pass changed nothing,
and the Adj-RIB-Out of every session was built eagerly.  The methods below
are that engine, unchanged; :class:`SweepBgp` only wraps them in a
``converge(state)`` that recomputes every prefix from scratch.  The
property tests require the production engine, this oracle and the
message-level :mod:`tests.netsim.eventsim_oracle` to agree exactly.
"""

from __future__ import annotations

import logging
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import ConvergenceError, RoutingError
from repro.netsim.bgp import policy
from repro.netsim.bgp.rib import RoutingState
from repro.netsim.bgp.route import BgpRoute
from repro.netsim.topology import Internetwork, NetworkState, Relationship

logger = logging.getLogger(__name__)


class SweepBgp:
    """Full-recompute sweep fixpoint for a fixed topology and prefix set."""

    def __init__(self, net: Internetwork, prefixes: Mapping[str, int]) -> None:
        self.net = net
        self._prefixes: Dict[str, int] = dict(prefixes)
        for prefix, asn in self._prefixes.items():
            if net.autonomous_system(asn).prefix != prefix:
                raise RoutingError(
                    f"prefix {prefix} is not the allocated prefix of AS {asn}"
                )
        self._sessions = self._enumerate_sessions()

    def converge(self, state: NetworkState) -> RoutingState:
        """Fixpoint every prefix from scratch under ``state``."""
        ribs = {
            prefix: self._converge_prefix(prefix, state)
            for prefix in sorted(self._prefixes)
        }
        adj_out = self._compute_adj_out(ribs, state)
        return RoutingState(ribs, adj_out, dict(self._prefixes))

    def _enumerate_sessions(self) -> Dict[int, List[Tuple[int, int, int]]]:
        """Per-AS import sessions: asn -> [(link id, neighbor asn, own router)].

        Sorted by link id for determinism.
        """
        sessions: Dict[int, List[Tuple[int, int, int]]] = {
            autsys.asn: [] for autsys in self.net.ases()
        }
        for link in self.net.inter_links():
            asn_a = self.net.asn_of_router(link.a)
            asn_b = self.net.asn_of_router(link.b)
            sessions[asn_a].append((link.lid, asn_b, link.a))
            sessions[asn_b].append((link.lid, asn_a, link.b))
        for asn in sessions:
            sessions[asn].sort()
        return sessions

    def _converge_prefix(
        self, prefix: str, state: NetworkState
    ) -> Dict[int, BgpRoute]:
        origin = self._prefixes[prefix]
        rib: Dict[int, Optional[BgpRoute]] = {
            autsys.asn: None for autsys in self.net.ases()
        }
        if self._as_alive(origin, state):
            rib[origin] = BgpRoute(
                prefix=prefix,
                as_path=(),
                local_pref=policy.LOCAL_PREF_CUSTOMER,
                ingress_link=None,
                egress_router=None,
            )
        order = sorted(rib)
        max_sweeps = self.net.num_ases + 5
        for _sweep in range(max_sweeps):
            changed = False
            for asn in order:
                if asn == origin:
                    continue
                best = self._select(asn, prefix, rib, state)
                if best != rib[asn]:
                    rib[asn] = best
                    changed = True
            if not changed:
                logger.debug(
                    "prefix %s converged in %d sweeps", prefix, _sweep + 1
                )
                return {asn: route for asn, route in rib.items() if route is not None}
        raise ConvergenceError(
            f"prefix {prefix} did not converge within {max_sweeps} sweeps; "
            "the policy configuration is not Gao-Rexford safe"
        )

    def _select(
        self,
        asn: int,
        prefix: str,
        rib: Dict[int, Optional[BgpRoute]],
        state: NetworkState,
    ) -> Optional[BgpRoute]:
        """Best candidate route of ``asn`` given neighbours' selections."""
        best: Optional[BgpRoute] = None
        for link_id, nbr_asn, own_router in self._sessions[asn]:
            candidate = self._import_over(
                asn, prefix, link_id, nbr_asn, own_router, rib, state
            )
            if candidate is None:
                continue
            if best is None or candidate.preference_key() > best.preference_key():
                best = candidate
        return best

    def _import_over(
        self,
        asn: int,
        prefix: str,
        link_id: int,
        nbr_asn: int,
        own_router: int,
        rib: Dict[int, Optional[BgpRoute]],
        state: NetworkState,
    ) -> Optional[BgpRoute]:
        """The route ``asn`` would learn over one session, or ``None``."""
        if not self.net.link_up(link_id, state):
            return None
        nbr_route = rib.get(nbr_asn)
        if nbr_route is None:
            return None
        # Sender-side loop prevention: never announce a path back into it.
        if asn == nbr_asn or nbr_route.traverses(asn):
            return None
        learned_from = self._learned_relationship(nbr_asn, nbr_route)
        to_rel = self.net.relationship(nbr_asn, asn)
        assert to_rel is not None  # add_link enforced a declared relationship
        if not policy.may_export(learned_from, to_rel):
            return None
        exporting_router = self.net.endpoint_in_as(link_id, nbr_asn)
        if policy.filtered(state.filters, link_id, exporting_router, prefix):
            return None
        rel_to_nbr = self.net.relationship(asn, nbr_asn)
        assert rel_to_nbr is not None
        return BgpRoute(
            prefix=prefix,
            as_path=(nbr_asn,) + nbr_route.as_path,
            local_pref=policy.local_pref(rel_to_nbr),
            ingress_link=link_id,
            egress_router=own_router,
        )

    def _learned_relationship(
        self, holder_asn: int, route: BgpRoute
    ) -> Optional[Relationship]:
        """Relationship of the route holder towards the AS it learned from."""
        if route.is_origin:
            return None
        rel = self.net.relationship(holder_asn, route.neighbor_asn)
        assert rel is not None
        return rel

    def _compute_adj_out(
        self, ribs: Dict[str, Dict[int, BgpRoute]], state: NetworkState
    ) -> Dict[Tuple[int, int], FrozenSet[str]]:
        """Per directed session, the prefixes actually advertised."""
        adj: Dict[Tuple[int, int], set] = {}
        for link in self.net.inter_links():
            if not self.net.link_up(link.lid, state):
                continue
            asn_a = self.net.asn_of_router(link.a)
            asn_b = self.net.asn_of_router(link.b)
            for exporter, importer in ((asn_a, asn_b), (asn_b, asn_a)):
                key = (link.lid, exporter)
                adj.setdefault(key, set())
                for prefix, per_as in ribs.items():
                    route = per_as.get(exporter)
                    if route is None:
                        continue
                    if importer == exporter or route.traverses(importer):
                        continue
                    learned_from = self._learned_relationship(exporter, route)
                    to_rel = self.net.relationship(exporter, importer)
                    assert to_rel is not None
                    if not policy.may_export(learned_from, to_rel):
                        continue
                    exporting_router = self.net.endpoint_in_as(link.lid, exporter)
                    if policy.filtered(
                        state.filters, link.lid, exporting_router, prefix
                    ):
                        continue
                    adj[key].add(prefix)
        return {key: frozenset(prefixes) for key, prefixes in adj.items()}

    def _as_alive(self, asn: int, state: NetworkState) -> bool:
        """True when the AS still has at least one alive router."""
        autsys = self.net.autonomous_system(asn)
        return any(rid not in state.failed_routers for rid in autsys.router_ids)
