"""Converged routing state: per-AS RIBs and per-session Adj-RIB-Out.

A :class:`RoutingState` is the output of one
:class:`~repro.netsim.bgp.engine.BgpEngine` convergence for one
:class:`~repro.netsim.topology.NetworkState`.  It answers the three
questions the rest of the system asks of BGP:

* ``best(asn, prefix)`` — which route does this AS use (drives the data
  plane and therefore traceroute)?
* ``as_path(asn, prefix)`` — what AS path would this AS's Looking Glass
  report (drives §3.4's UH mapping)?
* ``advertised(link_id, exporter_asn)`` — which prefixes flow over this
  eBGP session (diffing two states yields the withdrawal messages of §3.3)?

**Lazy Adj-RIB-Out.**  :class:`AdjRibOut` computes one session's
advertisements on first read: callers read a handful of sessions (AS-X's
inbound ones, one misconfigured session), the rest are never computed.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import RoutingError
from repro.netsim.bgp import policy
from repro.netsim.bgp.route import BgpRoute
from repro.netsim.topology import Internetwork, NetworkState, Relationship

__all__ = [
    "AdjRibOut",
    "RoutingState",
    "Session",
    "SessionTable",
]


class Session(NamedTuple):
    """One directed eBGP session, seen from the AS owning ``router``;
    ``relationship`` is that AS's relationship towards ``neighbour``."""

    link: int
    neighbour: int
    router: int
    neighbour_router: int
    relationship: Relationship


class SessionTable:
    """Every directed eBGP session of a topology, resolved once:
    ``of_as[asn]`` in link-id order, ``toward[rel][asn]`` split by
    relationship, ``by_key[(link id, asn)]`` one session."""

    def __init__(self, net: Internetwork) -> None:
        self.of_as: Dict[int, List[Session]] = {a.asn: [] for a in net.ases()}
        self.toward = {rel: {asn: [] for asn in self.of_as} for rel in Relationship}
        self.by_key: Dict[Tuple[int, int], Session] = {}
        self._router_links: Dict[int, List[int]] = {}
        for link in net.inter_links():
            for own, other in ((link.a, link.b), (link.b, link.a)):
                asn, nbr = net.asn_of_router(own), net.asn_of_router(other)
                rel = net.relationship(asn, nbr)  # declared: add_link checks
                session = Session(link.lid, nbr, own, other, rel)
                self.of_as[asn].append(session)
                self.toward[rel][asn].append(session)
                self.by_key[(link.lid, asn)] = session
                self._router_links.setdefault(own, []).append(link.lid)

    def down_links(self, state: NetworkState) -> FrozenSet[int]:
        """Links whose session is down: the link or an endpoint failed."""
        down = set(state.failed_links)
        for rid in state.failed_routers:
            down.update(self._router_links.get(rid, ()))
        return frozenset(down)

    def exports(
        self, route: BgpRoute, exporter: int, session: Session, filters
    ) -> bool:
        """True when ``exporter`` announces ``route`` over the up ``session``."""
        # Sender-side loop prevention: never announce a path back into it.
        if route.traverses(session.neighbour):
            return False
        learned_from = None
        if not route.is_origin:
            learned_from = self.by_key[(route.ingress_link, exporter)].relationship
        return policy.may_export(
            learned_from, session.relationship
        ) and not policy.filtered(filters, session.link, session.router, route.prefix)


class AdjRibOut(Mapping):
    """``(link id, exporter asn) -> prefixes advertised``, memoized on
    first read.  Keys are every session up in the state, silent ones
    included, so equality compares the full content."""

    def __init__(self, ribs, state: NetworkState, sessions: SessionTable) -> None:
        self._ribs: Dict[str, Dict[int, BgpRoute]] = ribs
        self._state = state
        self._sessions = sessions
        self._down = sessions.down_links(state)
        self._memo: Dict[Tuple[int, int], FrozenSet[str]] = {}

    def __getitem__(self, key: Tuple[int, int]) -> FrozenSet[str]:
        if key not in self._memo:
            session = self._sessions.by_key.get(key)
            if session is None or session.link in self._down:
                raise KeyError(key)
            exporter, filters = key[1], self._state.filters
            self._memo[key] = frozenset(
                prefix
                for prefix, rib in self._ribs.items()
                if exporter in rib
                and self._sessions.exports(rib[exporter], exporter, session, filters)
            )
        return self._memo[key]

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for key, session in self._sessions.by_key.items():
            if session.link not in self._down:
                yield key

    def __len__(self) -> int:
        return sum(1 for _ in self)


class RoutingState:
    """Immutable snapshot of converged BGP routing.

    Built by the engine; user code should treat it as read-only.
    """

    def __init__(
        self,
        ribs: Dict[str, Dict[int, BgpRoute]],
        adj_out: Mapping[Tuple[int, int], FrozenSet[str]],
        prefixes: Dict[str, int],
    ) -> None:
        # prefix -> asn -> selected route
        self._ribs = ribs
        # (link id, exporter asn) -> prefixes advertised over that session
        self._adj_out = adj_out
        # prefix -> origin asn
        self._prefixes = prefixes

    def best(self, asn: int, prefix: str) -> Optional[BgpRoute]:
        """Selected route of ``asn`` for ``prefix`` (``None`` = no route)."""
        if prefix not in self._ribs:
            raise RoutingError(f"prefix {prefix} was not part of this convergence")
        return self._ribs[prefix].get(asn)

    def rib(self, prefix: str) -> Dict[int, BgpRoute]:
        """The per-prefix RIB: ``asn -> selected route`` (read-only).

        The engine's incremental path *shares* these dicts between the
        baseline and derived routing states, so callers must never mutate
        the returned mapping.
        """
        if prefix not in self._ribs:
            raise RoutingError(f"prefix {prefix} was not part of this convergence")
        return self._ribs[prefix]

    def shares_rib_with(self, other: "RoutingState", prefix: str) -> bool:
        """True when both states hold the *same object* as ``prefix``'s RIB.

        Object identity (not equality): this is how tests observe that
        incremental re-convergence reused the baseline's routing objects
        for an unaffected prefix.
        """
        return self.rib(prefix) is other.rib(prefix)

    def equivalent_to(self, other: "RoutingState") -> bool:
        """Value equality of the full routing content.

        Compares every per-prefix RIB, the per-session Adj-RIB-Out and the
        prefix origins — the exact identity the incremental engine must
        preserve against a full recomputation.
        """
        return (
            self._prefixes == other._prefixes
            and self._ribs == other._ribs
            and self._adj_out == other._adj_out
        )

    def has_route(self, asn: int, prefix: str) -> bool:
        """True when ``asn`` holds any route towards ``prefix``."""
        return self.best(asn, prefix) is not None

    def as_path(self, asn: int, prefix: str) -> Optional[Tuple[int, ...]]:
        """Full AS path from ``asn`` to the origin, own AS included first.

        This is exactly what a Looking Glass located in ``asn`` reports for
        a query on ``prefix``.  ``None`` when the AS has no route.
        """
        route = self.best(asn, prefix)
        if route is None:
            return None
        return (asn,) + route.as_path

    def advertised(self, link_id: int, exporter_asn: int) -> FrozenSet[str]:
        """Prefixes the exporter announces over the given session.

        Empty when the session does not exist or is down in the state this
        routing was converged for.
        """
        return self._adj_out.get((link_id, exporter_asn), frozenset())

    def origin_of(self, prefix: str) -> int:
        """The AS that originates ``prefix``."""
        try:
            return self._prefixes[prefix]
        except KeyError:
            raise RoutingError(
                f"prefix {prefix} was not part of this convergence"
            ) from None

    @property
    def prefixes(self) -> Tuple[str, ...]:
        """All prefixes this state was converged for, sorted."""
        return tuple(sorted(self._prefixes))

    def reachable_ases(self, prefix: str) -> FrozenSet[int]:
        """ASes holding at least one route towards ``prefix``."""
        return frozenset(self.rib(prefix))
