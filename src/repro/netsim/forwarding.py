"""Data-plane path resolution over converged routing state.

Given a converged :class:`~repro.netsim.bgp.rib.RoutingState` and a
:class:`~repro.netsim.topology.NetworkState`, :func:`data_path` walks a
packet hop by hop from a source router to a destination router:

* inside an AS the packet follows IGP shortest paths to the egress border
  router chosen by the AS's BGP best route for the destination prefix,
* at the border it crosses the eBGP session link into the next AS,
* in the destination AS the IGP delivers it to the destination router.

The walk fails — producing the "unreachability" the sensors observe — when
an AS on the way holds no route (withdrawal/blackhole), when an intradomain
partition separates ingress from egress, or when a forwarding loop is
detected (possible transiently in real networks; in our converged states it
would indicate an engine bug, but the guard keeps the walk total).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

from repro.netsim.bgp.rib import RoutingState
from repro.netsim.igp import IgpView
from repro.netsim.topology import Internetwork, NetworkState

__all__ = ["ForwardingResult", "IgpCache", "data_path"]

#: Failure reason constants.
NO_ROUTE = "no-route"
IGP_PARTITION = "igp-partition"
LOOP = "as-loop"
DEAD_ENDPOINT = "dead-endpoint"


@dataclass(frozen=True)
class ForwardingResult:
    """Outcome of one data-plane walk.

    ``router_path`` lists every router the packet visited (source first).
    When ``reached`` is false the path ends at the router where forwarding
    stopped and ``failure_reason`` says why.
    """

    reached: bool
    router_path: Tuple[int, ...]
    failure_reason: Optional[str] = None

    def __len__(self) -> int:
        return len(self.router_path)


class IgpCache:
    """Caches :class:`IgpView` objects per (AS, IGP condition).

    A view is a pure function of the topology and of its AS's own IGP
    condition (:meth:`condition`), not of the whole state: every state
    that leaves an AS alone shares that AS's view and Dijkstra tables,
    which makes repeated traceroute meshes cheap.
    """

    def __init__(self, net: Internetwork) -> None:
        self.net = net
        self._views: Dict[Tuple[int, tuple], IgpView] = {}
        # Owning AS of every router and of every intradomain link.  Ids
        # the topology lacks own nothing, so a state naming one leaves
        # every view alone, as the views themselves do.
        self._router_asn = {router.rid: router.asn for router in net.routers()}
        self._intra_asn: Dict[int, int] = {}
        for link in net.links():
            asn = self._router_asn[link.a]
            if self._router_asn[link.b] == asn:
                self._intra_asn[link.lid] = asn
        # Conditions under the last state asked about, and the ASes the
        # last screened state changed: traces arrive one mesh (one state)
        # at a time.
        self._state: Optional[NetworkState] = None
        self._conditions: Dict[int, tuple] = {}
        self._screened: tuple = (None, None)
        self._changed: FrozenSet[int] = frozenset()

    def condition(self, asn: int, state: NetworkState) -> tuple:
        """The part of ``state`` the IGP of ``asn`` reads.

        Its failed intradomain links, its failed routers and the effective
        weight overrides on its intradomain links (of two overrides on one
        link the later wins, as in
        :meth:`~repro.netsim.topology.NetworkState.weight_of`).  States
        with equal conditions give ``asn`` identical views.
        """
        if state is not self._state:
            self._state, self._conditions = state, {}
        condition = self._conditions.get(asn)
        if condition is None:
            condition = self._conditions[asn] = self._condition(asn, state)
        return condition

    def _condition(self, asn: int, state: NetworkState) -> tuple:
        intra, router_asn = self._intra_asn, self._router_asn
        weights = {
            lid: weight
            for lid, weight in state.weight_overrides
            if intra.get(lid) == asn
        }
        return (
            frozenset(lid for lid in state.failed_links if intra.get(lid) == asn),
            frozenset(
                rid for rid in state.failed_routers if router_asn.get(rid) == asn
            ),
            tuple(sorted(weights.items())),
        )

    def changed_ases(
        self, state: NetworkState, base: NetworkState
    ) -> FrozenSet[int]:
        """The ASes whose :meth:`condition` under ``state`` differs from
        theirs under ``base``, screened once per state.

        Only an AS that owns an intradomain link or a router failed in one
        state but not the other, or an intradomain link named by either
        state's weight overrides, can differ: the overrides are taken
        whole, as two states with the same overrides in another order can
        end on different weights.  Each such candidate is then compared.
        """
        if state is not self._screened[0] or base is not self._screened[1]:
            intra, router_asn = self._intra_asn, self._router_asn
            candidates = {
                intra.get(lid) for lid in state.failed_links ^ base.failed_links
            }
            candidates.update(
                router_asn.get(rid)
                for rid in state.failed_routers ^ base.failed_routers
            )
            candidates.update(
                intra.get(lid)
                for lid, _ in state.weight_overrides + base.weight_overrides
            )
            candidates.discard(None)
            self._screened = (state, base)
            self._changed = frozenset(
                asn
                for asn in candidates
                if self._condition(asn, state) != self._condition(asn, base)
            )
        return self._changed

    def view(self, asn: int, state: NetworkState) -> IgpView:
        """Return the (cached) IGP view of ``asn`` under ``state``."""
        key = (asn, self.condition(asn, state))
        view = self._views.get(key)
        if view is None:
            view = IgpView(self.net, asn, state)
            self._views[key] = view
        return view


def data_path(
    net: Internetwork,
    routing: RoutingState,
    state: NetworkState,
    src_router: int,
    dst_router: int,
    igp_cache: Optional[IgpCache] = None,
) -> ForwardingResult:
    """Walk a packet from ``src_router`` to ``dst_router``.

    The destination prefix is the prefix of the destination router's AS
    (the only granularity the paper's sensors exercise).
    """
    cache = igp_cache or IgpCache(net)
    if src_router in state.failed_routers:
        return ForwardingResult(False, (), DEAD_ENDPOINT)
    if dst_router in state.failed_routers:
        # The walk can still progress; model the common observable instead:
        # probes towards a dead host die inside the destination AS.  We walk
        # normally and fail at delivery (handled below by the IGP view).
        pass

    dst_asn = net.asn_of_router(dst_router)
    prefix = net.autonomous_system(dst_asn).prefix
    path = [src_router]
    cur = src_router
    visited_ases = set()

    while net.asn_of_router(cur) != dst_asn:
        asn = net.asn_of_router(cur)
        if asn in visited_ases:
            return ForwardingResult(False, tuple(path), LOOP)
        visited_ases.add(asn)
        route = routing.best(asn, prefix)
        if route is None:
            return ForwardingResult(False, tuple(path), NO_ROUTE)
        assert route.egress_router is not None and route.ingress_link is not None
        segment = cache.view(asn, state).path(cur, route.egress_router)
        if segment is None:
            return ForwardingResult(False, tuple(path), IGP_PARTITION)
        path.extend(segment[1:])
        link = net.link(route.ingress_link)
        if not net.link_up(link.lid, state):
            # The engine never selects a dead session; treat defensively.
            return ForwardingResult(False, tuple(path), NO_ROUTE)
        cur = link.other(route.egress_router)
        path.append(cur)

    segment = cache.view(dst_asn, state).path(cur, dst_router)
    if segment is None:
        return ForwardingResult(False, tuple(path), IGP_PARTITION)
    path.extend(segment[1:])
    return ForwardingResult(True, tuple(path), None)
