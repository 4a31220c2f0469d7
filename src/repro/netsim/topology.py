"""Router-level multi-AS topology model.

This module holds the *static* description of the internetwork: autonomous
systems, routers, links (intra- and inter-domain) and the business
relationships between ASes.  Dynamic conditions — which links/routers are
currently failed and which export filters are misconfigured — live in
:class:`NetworkState` so that a single topology can be evaluated under many
failure scenarios without mutation.

Terminology follows the paper:

* an **intradomain link** connects two routers of the same AS and carries an
  IGP weight,
* an **interdomain link** connects border routers of two ASes and carries a
  BGP session whose policies derive from the AS relationship
  (:class:`Relationship`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.netsim.addressing import IpToAsMapper, PrefixAllocator

__all__ = [
    "Tier",
    "Relationship",
    "Router",
    "Link",
    "AutonomousSystem",
    "ExportFilter",
    "NetworkState",
    "Internetwork",
]


class Tier(enum.Enum):
    """Position of an AS in the scaled-down research-Internet hierarchy."""

    CORE = "core"
    TIER2 = "tier2"
    STUB = "stub"


class Relationship(enum.Enum):
    """Business relationship of an inter-AS link, seen from the lower ASN.

    ``PEER``                the two ASes exchange customer routes for free;
    ``CUSTOMER_PROVIDER``   the *first* AS of the link pays the second;
    ``PROVIDER_CUSTOMER``   the *first* AS of the link is paid by the second.
    """

    PEER = "peer"
    CUSTOMER_PROVIDER = "customer-provider"
    PROVIDER_CUSTOMER = "provider-customer"


@dataclass(frozen=True)
class Router:
    """A router: the unit at which traceroute hops are reported.

    ``address`` is the canonical (loopback) address the router answers
    traceroute probes with; see ``DESIGN.md`` §5 for why hops are reported
    at router granularity.
    """

    rid: int
    asn: int
    name: str
    address: str

    def __str__(self) -> str:  # pragma: no cover - debug convenience
        return f"{self.name}({self.address})"


@dataclass(frozen=True)
class Link:
    """An undirected physical link between two routers.

    ``lid`` orders links deterministically; ``weight`` is the IGP metric
    (meaningful for intradomain links only, but stored uniformly).
    """

    lid: int
    a: int  # router id, a < b by construction
    b: int
    weight: int = 1

    def other(self, rid: int) -> int:
        """Return the router id at the far end from ``rid``."""
        if rid == self.a:
            return self.b
        if rid == self.b:
            return self.a
        raise TopologyError(f"router {rid} is not an endpoint of link {self.lid}")

    def endpoints(self) -> Tuple[int, int]:
        """Return the endpoint router ids as an ordered pair."""
        return (self.a, self.b)


@dataclass
class AutonomousSystem:
    """An AS: a set of routers, one originated prefix and a tier."""

    asn: int
    name: str
    tier: Tier
    prefix: str
    router_ids: List[int] = field(default_factory=list)

    def __str__(self) -> str:  # pragma: no cover - debug convenience
        return f"AS{self.asn}[{self.name}]"


@dataclass(frozen=True)
class ExportFilter:
    """A (mis)configured outbound route filter on one eBGP session.

    The router ``at_router`` stops announcing routes for ``prefixes`` to the
    peer at the far end of ``link_id``.  This models the paper's §3.1
    misconfiguration: "apply an export-filter such that the selected routes
    are not advertised to the peer (only the peer at the other end of the
    misconfigured link)".
    """

    link_id: int
    at_router: int
    prefixes: FrozenSet[str]

    def blocks(self, link_id: int, exporting_router: int, prefix: str) -> bool:
        """True if this filter suppresses ``prefix`` on that directed session."""
        return (
            link_id == self.link_id
            and exporting_router == self.at_router
            and prefix in self.prefixes
        )


@dataclass(frozen=True)
class NetworkState:
    """Dynamic network condition: failed elements, misconfigs, TE tweaks.

    Immutable and hashable so routing computations can be cached per state.
    ``weight_overrides`` models IGP traffic engineering: operators retune
    link metrics routinely, shifting internal paths without any failure —
    a classic source of BGP-visible path changes ("hot-potato" events)
    that the robustness experiments inject alongside failures.

    ``key`` is the state's canonical value, derived once at construction:
    the sorted failed links, the sorted failed routers, the filters in
    order as ``(link_id, at_router, sorted prefixes)`` and the weight
    overrides in order.  Two states have equal keys exactly when they are
    equal.  It holds only tuples of ints and strings, which the garbage
    collector stops tracking, so caches that keep one entry per traced
    pair key by it instead of by the state.
    """

    failed_links: FrozenSet[int] = frozenset()
    failed_routers: FrozenSet[int] = frozenset()
    filters: Tuple[ExportFilter, ...] = ()
    weight_overrides: Tuple[Tuple[int, int], ...] = ()
    key: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "key",
            (
                tuple(sorted(self.failed_links)),
                tuple(sorted(self.failed_routers)),
                tuple(
                    (f.link_id, f.at_router, tuple(sorted(f.prefixes)))
                    for f in self.filters
                ),
                tuple(self.weight_overrides),
            ),
        )

    @classmethod
    def nominal(cls) -> "NetworkState":
        """The healthy network: nothing failed, nothing misconfigured."""
        return cls()

    def with_failed_links(self, link_ids: Iterable[int]) -> "NetworkState":
        """Return a copy with ``link_ids`` added to the failed-link set."""
        return NetworkState(
            failed_links=self.failed_links | frozenset(link_ids),
            failed_routers=self.failed_routers,
            filters=self.filters,
            weight_overrides=self.weight_overrides,
        )

    def with_failed_routers(self, router_ids: Iterable[int]) -> "NetworkState":
        """Return a copy with ``router_ids`` added to the failed-router set."""
        return NetworkState(
            failed_links=self.failed_links,
            failed_routers=self.failed_routers | frozenset(router_ids),
            filters=self.filters,
            weight_overrides=self.weight_overrides,
        )

    def with_filter(self, export_filter: ExportFilter) -> "NetworkState":
        """Return a copy with one more export filter applied."""
        return NetworkState(
            failed_links=self.failed_links,
            failed_routers=self.failed_routers,
            filters=self.filters + (export_filter,),
            weight_overrides=self.weight_overrides,
        )

    def with_weight(self, link_id: int, weight: int) -> "NetworkState":
        """Return a copy with one IGP metric retuned (later wins)."""
        if weight < 1:
            raise TopologyError(f"IGP weight must be >= 1, got {weight}")
        return NetworkState(
            failed_links=self.failed_links,
            failed_routers=self.failed_routers,
            filters=self.filters,
            weight_overrides=self.weight_overrides + ((link_id, weight),),
        )

    def weight_of(self, link: "Link") -> int:
        """The effective IGP weight of ``link`` under this state."""
        weight = link.weight
        for lid, override in self.weight_overrides:
            if lid == link.lid:
                weight = override
        return weight

    def is_nominal(self) -> bool:
        """True when nothing is failed, filtered or retuned."""
        return not (
            self.failed_links
            or self.failed_routers
            or self.filters
            or self.weight_overrides
        )


class Internetwork:
    """The full multi-AS topology plus its address plan.

    Construction is incremental (``add_as`` / ``add_router`` / ``add_link``)
    and validating: inter-AS links require a declared relationship, parallel
    links between the same router pair are rejected (traceroute hops are
    reported at router granularity, so a parallel link would be
    indistinguishable — see ``DESIGN.md`` §5).
    """

    def __init__(self, allocator: Optional[PrefixAllocator] = None) -> None:
        self.allocator = allocator or PrefixAllocator()
        self._ases: Dict[int, AutonomousSystem] = {}
        self._routers: Dict[int, Router] = {}
        self._links: Dict[int, Link] = {}
        self._link_by_pair: Dict[Tuple[int, int], int] = {}
        self._adj: Dict[int, List[int]] = {}  # router id -> sorted link ids
        self._relationships: Dict[Tuple[int, int], Relationship] = {}
        self._router_by_address: Dict[str, int] = {}
        self._next_rid = 0
        self._next_lid = 0

    # ------------------------------------------------------------------ build

    def add_as(self, asn: int, name: str, tier: Tier) -> AutonomousSystem:
        """Create an AS, allocating its prefix."""
        if asn in self._ases:
            raise TopologyError(f"AS {asn} already exists")
        prefix = self.allocator.allocate_as(asn)
        autsys = AutonomousSystem(asn=asn, name=name, tier=tier, prefix=prefix)
        self._ases[asn] = autsys
        return autsys

    def add_router(self, asn: int, name: Optional[str] = None) -> Router:
        """Create a router inside AS ``asn`` and return it."""
        if asn not in self._ases:
            raise TopologyError(f"cannot add router to unknown AS {asn}")
        rid = self._next_rid
        self._next_rid += 1
        address = self.allocator.next_router_address(asn)
        router = Router(
            rid=rid,
            asn=asn,
            name=name or f"r{rid}.as{asn}",
            address=address,
        )
        self._routers[rid] = router
        self._router_by_address[address] = rid
        self._adj[rid] = []
        self._ases[asn].router_ids.append(rid)
        return router

    def add_link(self, rid_a: int, rid_b: int, weight: int = 1) -> Link:
        """Connect two routers; inter-AS pairs must have a relationship set
        beforehand via :meth:`set_relationship`."""
        if rid_a == rid_b:
            raise TopologyError("self-links are not allowed")
        for rid in (rid_a, rid_b):
            if rid not in self._routers:
                raise TopologyError(f"unknown router {rid}")
        lo, hi = min(rid_a, rid_b), max(rid_a, rid_b)
        if (lo, hi) in self._link_by_pair:
            raise TopologyError(f"parallel link between routers {lo} and {hi}")
        asn_a = self._routers[lo].asn
        asn_b = self._routers[hi].asn
        if asn_a != asn_b and self.relationship(asn_a, asn_b) is None:
            raise TopologyError(
                f"inter-AS link AS{asn_a}-AS{asn_b} requires a declared relationship"
            )
        if weight < 1:
            raise TopologyError(f"IGP weight must be >= 1, got {weight}")
        lid = self._next_lid
        self._next_lid += 1
        link = Link(lid=lid, a=lo, b=hi, weight=weight)
        self._links[lid] = link
        self._link_by_pair[(lo, hi)] = lid
        self._adj[lo].append(lid)
        self._adj[hi].append(lid)
        return link

    def set_relationship(self, asn_a: int, asn_b: int, rel: Relationship) -> None:
        """Declare the business relationship between two ASes.

        Stored canonically under ``(min, max)``; :meth:`relationship` returns
        the view from whichever AS is asked first.
        """
        if asn_a == asn_b:
            raise TopologyError("relationship requires two distinct ASes")
        for asn in (asn_a, asn_b):
            if asn not in self._ases:
                raise TopologyError(f"unknown AS {asn}")
        key = (min(asn_a, asn_b), max(asn_a, asn_b))
        if key in self._relationships:
            raise TopologyError(f"relationship for AS pair {key} already declared")
        if asn_a > asn_b:
            rel = _flip(rel)
        self._relationships[key] = rel

    # ----------------------------------------------------------------- lookup

    def autonomous_system(self, asn: int) -> AutonomousSystem:
        """Return the AS object for ``asn``."""
        try:
            return self._ases[asn]
        except KeyError:
            raise TopologyError(f"unknown AS {asn}") from None

    def router(self, rid: int) -> Router:
        """Return the router object for ``rid``."""
        try:
            return self._routers[rid]
        except KeyError:
            raise TopologyError(f"unknown router {rid}") from None

    def router_by_address(self, address: str) -> Router:
        """Return the router answering with ``address``."""
        try:
            return self._routers[self._router_by_address[address]]
        except KeyError:
            raise TopologyError(f"no router with address {address}") from None

    def link(self, lid: int) -> Link:
        """Return the link object for ``lid``."""
        try:
            return self._links[lid]
        except KeyError:
            raise TopologyError(f"unknown link {lid}") from None

    def link_between(self, rid_a: int, rid_b: int) -> Optional[Link]:
        """Return the link connecting two routers, or ``None``."""
        lid = self._link_by_pair.get((min(rid_a, rid_b), max(rid_a, rid_b)))
        return self._links[lid] if lid is not None else None

    def relationship(self, asn_from: int, asn_to: int) -> Optional[Relationship]:
        """Relationship of ``asn_from`` towards ``asn_to`` (``None`` if
        undeclared)."""
        key = (min(asn_from, asn_to), max(asn_from, asn_to))
        rel = self._relationships.get(key)
        if rel is None:
            return None
        return rel if asn_from <= asn_to else _flip(rel)

    # -------------------------------------------------------------- iteration

    def ases(self) -> Iterator[AutonomousSystem]:
        """All ASes in ASN order."""
        for asn in sorted(self._ases):
            yield self._ases[asn]

    def routers(self) -> Iterator[Router]:
        """All routers in id order."""
        for rid in sorted(self._routers):
            yield self._routers[rid]

    def links(self) -> Iterator[Link]:
        """All links in id order."""
        for lid in sorted(self._links):
            yield self._links[lid]

    def links_of_router(self, rid: int) -> List[Link]:
        """Links incident to a router, in link-id order."""
        if rid not in self._adj:
            raise TopologyError(f"unknown router {rid}")
        return [self._links[lid] for lid in sorted(self._adj[rid])]

    def intra_links(self, asn: int) -> List[Link]:
        """Intradomain links of one AS, in link-id order."""
        autsys = self.autonomous_system(asn)
        rset = set(autsys.router_ids)
        seen = set()
        out: List[Link] = []
        for rid in autsys.router_ids:
            for link in self.links_of_router(rid):
                if link.lid in seen:
                    continue
                if link.a in rset and link.b in rset:
                    seen.add(link.lid)
                    out.append(link)
        return sorted(out, key=lambda l: l.lid)

    def inter_links(self) -> List[Link]:
        """Every interdomain link, in link-id order."""
        return [l for l in self.links() if self.is_interdomain(l.lid)]

    def inter_links_of_as(self, asn: int) -> List[Link]:
        """Interdomain links with one endpoint in AS ``asn``."""
        autsys = self.autonomous_system(asn)
        out: List[Link] = []
        for rid in autsys.router_ids:
            for link in self.links_of_router(rid):
                if self.is_interdomain(link.lid) and link not in out:
                    out.append(link)
        return sorted(out, key=lambda l: l.lid)

    # ------------------------------------------------------------- predicates

    def is_interdomain(self, lid: int) -> bool:
        """True if the link connects two different ASes."""
        link = self.link(lid)
        return self._routers[link.a].asn != self._routers[link.b].asn

    def link_up(self, lid: int, state: NetworkState) -> bool:
        """True if the link and both endpoint routers are alive in ``state``."""
        if lid in state.failed_links:
            return False
        link = self.link(lid)
        return (
            link.a not in state.failed_routers and link.b not in state.failed_routers
        )

    def asn_of_router(self, rid: int) -> int:
        """AS number owning ``rid`` (the hottest lookup of a traceroute)."""
        try:
            return self._routers[rid].asn
        except KeyError:
            raise TopologyError(f"unknown router {rid}") from None

    def link_asns(self, lid: int) -> Tuple[int, ...]:
        """The (one or two) AS numbers a link touches, sorted."""
        link = self.link(lid)
        asns = {self._routers[link.a].asn, self._routers[link.b].asn}
        return tuple(sorted(asns))

    def endpoint_in_as(self, lid: int, asn: int) -> int:
        """Return the router id of the link endpoint inside AS ``asn``."""
        link = self.link(lid)
        if self._routers[link.a].asn == asn:
            return link.a
        if self._routers[link.b].asn == asn:
            return link.b
        raise TopologyError(f"link {lid} has no endpoint in AS {asn}")

    def ip_to_as_mapper(self) -> IpToAsMapper:
        """Build the IP-to-AS mapper from this topology's address plan."""
        return IpToAsMapper.from_allocator(self.allocator)

    # ------------------------------------------------------------------ sizes

    @property
    def num_ases(self) -> int:
        return len(self._ases)

    @property
    def num_routers(self) -> int:
        return len(self._routers)

    @property
    def num_links(self) -> int:
        return len(self._links)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"Internetwork(ases={self.num_ases}, routers={self.num_routers}, "
            f"links={self.num_links})"
        )


def _flip(rel: Relationship) -> Relationship:
    """Reverse the point of view of a relationship."""
    if rel is Relationship.CUSTOMER_PROVIDER:
        return Relationship.PROVIDER_CUSTOMER
    if rel is Relationship.PROVIDER_CUSTOMER:
        return Relationship.CUSTOMER_PROVIDER
    return rel
