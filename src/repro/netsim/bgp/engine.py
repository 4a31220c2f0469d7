"""AS-level BGP route computation (the C-BGP substitute).

The paper only ever consumes *converged* C-BGP states ("after letting
C-BGP converge to a stable network state") plus the withdrawals one AS
logs between two states, which fall out of diffing the per-session
Adj-RIB-Out of the two (:mod:`repro.netsim.bgp.messages`).

**Three phases per prefix.**  Under Gao-Rexford policies (an acyclic
customer→provider graph, customer > peer > provider preference,
valley-free export) the stable state is unique (Gao & Rexford 2001), so
each prefix is built in O(E) over a :class:`SessionTable` resolved once:

1. *customer routes* climb the provider DAG breadth-first from the origin
   (only own and customer routes are exported upwards);
2. *peer routes* take one peering hop from those ASes (peer and provider
   routes are never exported to peers);
3. *provider routes* descend to customers through a bucket queue by path
   length, seeded with every AS routed in the first two phases.

An AS takes the first phase that reaches it (its local-pref class) and
in it the offer minimising (path length, neighbour ASN, link id), the
tie-breaks of :meth:`~repro.netsim.bgp.route.BgpRoute.preference_key`.
Lengths settle in increasing order, so any later offer is longer: every
AS holds its best route given its neighbours' routes — a stable state, so
*the* stable state.  Down links and routers, per-prefix export filters and
the sender-side AS-path loop check prune sessions as in BGP.  A provider
cycle voids the premise; the engine rejects it with a ConvergenceError.

**Incremental re-convergence.**  After the first (baseline) state, most
states are pure degradations of it.  The stable state being unique,
removing elements no selected route of a prefix uses leaves that prefix's
routes unchanged.  So the engine records, per prefix, the inter-AS links
its baseline routes were learned over (plus their endpoint routers and
the origin AS's routers) and re-solves only prefixes whose set meets a
newly failed or filtered element; the rest share the baseline's RIB dict.
IGP weight overrides never enter the BGP decision process.
``REPRO_FULL_CONVERGE=1`` forces a full recomputation for every state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.errors import ConvergenceError, RoutingError
from repro.netsim.bgp import policy
from repro.netsim.bgp.rib import (
    AdjRibOut,
    CowRibTable,
    RibSharingStats,
    RoutingState,
    SessionTable,
)
from repro.netsim.bgp.route import BgpRoute
from repro.netsim.cache import LruCache
from repro.netsim.topology import Internetwork, NetworkState, Relationship
from repro.netsim.validate import _find_cycle

__all__ = ["BgpEngine", "ConvergenceCounters", "DEFAULT_ROUTING_CACHE_CAPACITY"]

#: Converged states kept per engine; one baseline plus the live working set
#: of failure states of a batch fit comfortably.
DEFAULT_ROUTING_CACHE_CAPACITY = 256


def full_converge_forced() -> bool:
    """True when ``REPRO_FULL_CONVERGE`` disables the incremental path."""
    return os.environ.get("REPRO_FULL_CONVERGE", "") not in ("", "0")


@dataclass
class ConvergenceCounters:
    """Accounting of one engine's convergence work.

    ``prefixes_converged`` counts :meth:`BgpEngine._solve_prefix` runs
    (the per-prefix route computations); ``prefixes_reused`` counts prefixes
    whose baseline routes were shared instead.  Their ratio is the direct
    measure of what incremental re-convergence saves.
    """

    full_converges: int = 0
    incremental_converges: int = 0
    prefixes_converged: int = 0
    prefixes_reused: int = 0


class BgpEngine:
    """Computes stable :class:`RoutingState` objects for a fixed topology.

    Parameters
    ----------
    net:
        The internetwork.  Its customer→provider graph must be acyclic, or
        the constructor raises :class:`~repro.errors.ConvergenceError`.
    prefixes:
        Mapping ``prefix -> origin ASN``.  In the experiments this is the
        set of sensor-AS prefixes (plus AS-X's own prefix) — the only
        destinations the paper's measurements ever exercise — which keeps
        convergence cheap without changing any observable the algorithms
        consume.
    cache_capacity:
        Converged states kept in the LRU cache (``0`` = unbounded).  The
        baseline state is pinned outside the cache and never evicted.
    incremental:
        Enables baseline-relative incremental re-convergence (see the
        module docstring).  ``REPRO_FULL_CONVERGE=1`` overrides this at
        call time.
    """

    def __init__(
        self,
        net: Internetwork,
        prefixes: Mapping[str, int],
        cache_capacity: int = DEFAULT_ROUTING_CACHE_CAPACITY,
        incremental: bool = True,
    ) -> None:
        self.net = net
        self._prefixes: Dict[str, int] = dict(prefixes)
        for prefix, asn in self._prefixes.items():
            autsys = net.autonomous_system(asn)  # validates the ASN
            if autsys.prefix != prefix:
                # Allow extra prefixes, but they must at least be registered
                # to a real AS; originating someone else's block would break
                # the IP-to-AS mapping assumptions.
                raise RoutingError(
                    f"prefix {prefix} is not the allocated prefix of AS {asn}"
                )
        self._sessions = SessionTable(net)
        providers = self._sessions.toward[Relationship.CUSTOMER_PROVIDER]
        cycle = _find_cycle(
            {asn: [s.neighbour for s in out] for asn, out in providers.items()}
        )
        if cycle:
            pretty = " -> ".join(f"AS{asn}" for asn in cycle)
            raise ConvergenceError(f"provider cycle {pretty} is not Gao-Rexford safe")
        self._cache: LruCache[NetworkState, RoutingState] = LruCache(
            cache_capacity
        )
        self.incremental = incremental
        self.counters = ConvergenceCounters()
        # Accumulated copy-on-write RIB accounting across every converge.
        self.rib_sharing = RibSharingStats()
        # (state, routing) of the first converged state; dependency sets are
        # derived from it lazily (prefix -> (inter link ids, router ids)).
        self._baseline: Optional[Tuple[NetworkState, RoutingState]] = None
        self._deps: Optional[
            Dict[str, Tuple[FrozenSet[int], FrozenSet[int]]]
        ] = None

    @classmethod
    def for_sensor_ases(
        cls,
        net: Internetwork,
        asns: Mapping[int, None] | List[int],
        **kwargs,
    ) -> "BgpEngine":
        """Convenience constructor: converge the prefixes of ``asns``."""
        prefixes = {
            net.autonomous_system(asn).prefix: asn for asn in sorted(set(asns))
        }
        return cls(net, prefixes, **kwargs)

    # ----------------------------------------------------------------- public

    @property
    def prefixes(self) -> Dict[str, int]:
        """Mapping prefix -> origin ASN this engine converges."""
        return dict(self._prefixes)

    def converge(self, state: NetworkState) -> RoutingState:
        """Return the stable routing state under ``state`` (cached).

        The first state ever converged becomes the engine's *baseline*:
        it is pinned (never evicted) and later states that only add
        failures/filters on top of it re-converge only the affected
        prefixes (see the module docstring).
        """
        if self._baseline is not None and state == self._baseline[0]:
            self._cache.hits += 1  # the pinned entry is logically cached
            return self._baseline[1]
        cached = self._cache.get(state)
        if cached is not None:
            return cached
        if self._baseline is None:
            routing = self._full_converge(state)
            self._baseline = (state, routing)
            return routing
        if (
            self.incremental
            and not full_converge_forced()
            and self._is_degradation_of_baseline(state)
        ):
            routing = self._incremental_converge(state)
        else:
            routing = self._full_converge(state)
        self._cache.put(state, routing)
        return routing

    # --------------------------------------------------------------- internal

    def _full_converge(self, state: NetworkState) -> RoutingState:
        """Solve every prefix from scratch."""
        table = CowRibTable()
        for prefix in sorted(self._prefixes):
            table.own(prefix, self._solve_prefix(prefix, state, {}))
            self.counters.prefixes_converged += 1
        self.counters.full_converges += 1
        return self._routing_state(table, state)

    def _routing_state(self, table: CowRibTable, state: NetworkState) -> RoutingState:
        self.rib_sharing.absorb(table.stats)
        ribs = table.mapping()
        return RoutingState(
            ribs, AdjRibOut(ribs, state, self._sessions), dict(self._prefixes)
        )

    def _is_degradation_of_baseline(self, state: NetworkState) -> bool:
        """True when ``state`` only *adds* failures/filters to the baseline.

        Monotone degradations are the only states the dependency argument
        covers: elements coming back up could create routes anywhere, so
        anything else falls back to a full recomputation.  IGP weight
        overrides are ignored — the AS-level decision process never reads
        them.
        """
        base = self._baseline[0]
        return (
            base.failed_links <= state.failed_links
            and base.failed_routers <= state.failed_routers
            and set(base.filters) <= set(state.filters)
        )

    def _dependencies(self) -> Dict[str, Tuple[FrozenSet[int], FrozenSet[int]]]:
        """Per-prefix dependency sets derived from the baseline routing.

        For each prefix: the inter-AS link ids its selected routes were
        learned over (when stable, every AS's path is its ingress session
        plus its neighbour's selected path, so the union of ``ingress_link``
        over the RIB covers every link any selected route traverses), and
        the router ids whose failure could perturb the prefix (endpoints of
        those links, plus the origin AS's routers for origin aliveness).
        """
        if self._deps is None:
            _, base_routing = self._baseline
            deps: Dict[str, Tuple[FrozenSet[int], FrozenSet[int]]] = {}
            for prefix, origin in self._prefixes.items():
                links = {
                    route.ingress_link
                    for route in base_routing.rib(prefix).values()
                    if route.ingress_link is not None
                }
                routers = set(self.net.autonomous_system(origin).router_ids)
                for lid in links:
                    link = self.net.link(lid)
                    routers.add(link.a)
                    routers.add(link.b)
                deps[prefix] = (frozenset(links), frozenset(routers))
            self._deps = deps
        return self._deps

    def _incremental_converge(self, state: NetworkState) -> RoutingState:
        """Re-converge only the prefixes the state's new failures touch."""
        base_state, base_routing = self._baseline
        added_links = state.failed_links - base_state.failed_links
        added_routers = state.failed_routers - base_state.failed_routers
        base_filters = set(base_state.filters)
        added_filters = [f for f in state.filters if f not in base_filters]
        deps = self._dependencies()

        table = CowRibTable(base=base_routing)
        for prefix in sorted(self._prefixes):
            dep_links, dep_routers = deps[prefix]
            affected = (
                bool(added_links & dep_links)
                or bool(added_routers & dep_routers)
                or any(
                    f.link_id in dep_links and prefix in f.prefixes
                    for f in added_filters
                )
            )
            if affected:
                # Copy-on-write divergence: the prefix is re-solved into a
                # new dict; the baseline's dict is never mutated.
                rib = self._solve_prefix(prefix, state, base_routing.rib(prefix))
                table.write(prefix, rib)
                self.counters.prefixes_converged += 1
            else:
                # Shares the baseline's per-prefix RIB object (read-only).
                table.share(prefix)
                self.counters.prefixes_reused += 1
        self.counters.incremental_converges += 1
        return self._routing_state(table, state)

    def _solve_prefix(
        self, prefix: str, state: NetworkState, reuse: Mapping[int, BgpRoute]
    ) -> Dict[int, BgpRoute]:
        """The stable routes towards ``prefix``, in the three phases above.

        An AS whose route equals its route in ``reuse`` keeps that object:
        routes are immutable, and most survive a failure unchanged.
        """
        origin = self._prefixes[prefix]
        origin_routers = self.net.autonomous_system(origin).router_ids
        if state.failed_routers.issuperset(origin_routers):
            return {}  # the origin is down: nobody has a route
        down = self._sessions.down_links(state)
        filters = state.filters
        blocked = {
            (f.link_id, f.at_router)
            for f in filters
            if policy.filtered(filters, f.link_id, f.at_router, prefix)
        }
        toward = self._sessions.toward
        rib = {origin: BgpRoute(prefix, (), policy.LOCAL_PREF_CUSTOMER, None, None)}

        def spread(exporters: List[int], rel: Relationship, pref: int) -> List[int]:
            """Route each unrouted AS behind a ``rel`` session of ``exporters``
            over its best offer: min (length, neighbour ASN, link id)."""
            best: Dict[int, tuple] = {}
            sessions_of = toward[rel]
            for exporter in exporters:
                path = rib[exporter].as_path
                for link, importer, router, egress, _ in sessions_of[exporter]:
                    if (
                        importer in rib
                        or link in down
                        or importer in path  # sender-side loop prevention
                        or (blocked and (link, router) in blocked)
                    ):
                        continue
                    offer = (len(path), exporter, link, egress)
                    held = best.get(importer)
                    if held is None or offer < held:
                        best[importer] = offer
            for importer, (_, exporter, link, egress) in best.items():
                path = (exporter,) + rib[exporter].as_path
                route = reuse.get(importer)
                if route is None or route.as_path != path or route.ingress_link != link:
                    route = BgpRoute(prefix, path, pref, link, egress)
                rib[importer] = route
            return list(best)

        # 1. Customer routes climb the provider DAG, one path length a pass.
        level = [origin]
        while level:
            level = spread(
                level, Relationship.CUSTOMER_PROVIDER, policy.LOCAL_PREF_CUSTOMER
            )
        # 2. One peering hop.  3. Provider routes descend, one path length a
        # pass, each pass also fed the ASes routed at that length before.
        spread(list(rib), Relationship.PEER, policy.LOCAL_PREF_PEER)
        buckets: Dict[int, List[int]] = {}
        for asn, route in rib.items():
            buckets.setdefault(len(route.as_path), []).append(asn)
        length = 0
        while level or buckets:
            level = spread(
                level + buckets.pop(length, []),
                Relationship.PROVIDER_CUSTOMER,
                policy.LOCAL_PREF_PROVIDER,
            )
            length += 1
        return rib
