"""Link tokens: the elements diagnosis algorithms reason over.

The hitting-set machinery is agnostic to what a "link" is; this module
defines the token types the paper's graphs contain and the projections
between granularities.

§2.3 defines G as a *directed* graph built from the union of traceroute
paths, and directedness is load-bearing: each probe direction contributes
its own token, so the greedy score of a link reflects per-direction
evidence and a physical link shared by forward and reverse probes cannot
shadow a directional culprit.  The token types:

* :class:`IpLink` — a directed pair of consecutive traceroute hop
  endpoints.  An endpoint is an identified address (``str``) or an
  :class:`UhNode` (a ``'*'``).  A link with a UH endpoint is the paper's
  *unidentified link*.
* :class:`LogicalLink` — a directed interdomain link annotated with the
  out-neighbour AS tag of §3.1.  The paper splits the physical link u→v
  into u→v(W) and v(W)→v; those two halves are traversed by exactly the
  same paths, so one token represents the series pair (``DESIGN.md`` §5).
* :class:`PhysicalLink` — an *undirected* canonical endpoint pair, used
  only by the metrics: ground truth is physical (a fibre cut kills both
  directions), so hypotheses are compared after
  :func:`undirected_projection`.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, Tuple, Union

__all__ = [
    "ORIGIN_TAG",
    "UNKNOWN_TAG",
    "UhNode",
    "Endpoint",
    "IpLink",
    "LogicalLink",
    "PhysicalLink",
    "LinkToken",
    "ip_link",
    "physical_link",
    "physical_projection",
    "undirected_projection",
    "sort_key",
    "is_unidentified",
]

#: Out-neighbour tag for a logical link whose path terminates in the far AS
#: (the route is originated there, so there is no next AS).
ORIGIN_TAG = 0

#: Out-neighbour tag when the next AS could not be determined (e.g. the path
#: dives into a blocked region right after the link, or the trace truncated).
UNKNOWN_TAG = -1


@dataclass(frozen=True, order=True)
class UhNode:
    """An unidentified hop: one ``'*'`` at a position of one traceroute.

    Identity is per (probe pair, epoch, hop index): the paper requires an
    unidentified link to "appear in only one path", which holds by
    construction because two different traceroutes can never share a UH
    node.  ``epoch`` separates pre-failure from post-failure traces.
    """

    src: str
    dst: str
    epoch: str
    index: int


Endpoint = Union[str, UhNode]


def _endpoint_key(endpoint: Endpoint) -> Tuple:
    """Total order over endpoints: identified addresses first, numerically."""
    if isinstance(endpoint, str):
        return _address_key(endpoint)
    return (1, endpoint.src, endpoint.dst, endpoint.epoch, endpoint.index)


@lru_cache(maxsize=1 << 16)
def _address_key(address: str) -> Tuple[int, int]:
    """Parsed once per address (bounded); a non-address raises ValueError."""
    return (0, int(ipaddress.ip_address(address)))


@dataclass(frozen=True)
class IpLink:
    """A directed link between two consecutive traceroute hop endpoints."""

    src: Endpoint
    dst: Endpoint

    @property
    def identified(self) -> bool:
        """True when both endpoints answered with addresses."""
        return isinstance(self.src, str) and isinstance(self.dst, str)

    def endpoints(self) -> Tuple[Endpoint, Endpoint]:
        return (self.src, self.dst)

    def physical(self) -> "PhysicalLink":
        """The undirected physical link this token measures."""
        return physical_link(self.src, self.dst)

    def __str__(self) -> str:  # pragma: no cover - debug convenience
        return f"{_show(self.src)}->{_show(self.dst)}"


def ip_link(src: Endpoint, dst: Endpoint) -> IpLink:
    """Build the directed :class:`IpLink` from hop ``src`` to hop ``dst``."""
    return IpLink(src, dst)


@dataclass(frozen=True)
class LogicalLink:
    """A directed interdomain link tagged with its out-neighbour AS (§3.1).

    ``src``/``dst`` are the identified addresses of the routers on either
    side, in the direction the annotated paths flow; ``tag`` is the AS the
    paths continue to after the far router's AS (``ORIGIN_TAG`` when they
    terminate there, ``UNKNOWN_TAG`` when undeterminable).

    A BGP export-filter misconfiguration at ``dst``'s router towards
    ``src``'s router manifests as exactly one of these tokens failing while
    the physical link keeps carrying other tags.
    """

    src: str
    dst: str
    tag: int

    @property
    def identified(self) -> bool:
        return True

    def physical(self) -> "PhysicalLink":
        """The undirected physical link this logical link annotates."""
        return physical_link(self.src, self.dst)

    def __str__(self) -> str:  # pragma: no cover - debug convenience
        tag = {ORIGIN_TAG: "origin", UNKNOWN_TAG: "?"}.get(self.tag, str(self.tag))
        return f"{self.src}->{self.dst}({tag})"


@dataclass(frozen=True)
class PhysicalLink:
    """An undirected endpoint pair — the metrics' ground-truth granularity.

    Always construct through :func:`physical_link`, which canonicalises
    endpoint order.
    """

    lo: Endpoint
    hi: Endpoint

    @property
    def identified(self) -> bool:
        return isinstance(self.lo, str) and isinstance(self.hi, str)

    def endpoints(self) -> Tuple[Endpoint, Endpoint]:
        return (self.lo, self.hi)

    def __str__(self) -> str:  # pragma: no cover - debug convenience
        return f"{_show(self.lo)}--{_show(self.hi)}"


def physical_link(a: Endpoint, b: Endpoint) -> PhysicalLink:
    """Canonical undirected :class:`PhysicalLink` over two endpoints."""
    if _endpoint_key(a) <= _endpoint_key(b):
        return PhysicalLink(a, b)
    return PhysicalLink(b, a)


LinkToken = Union[IpLink, LogicalLink]


def is_unidentified(token: LinkToken) -> bool:
    """True for links with at least one UH endpoint."""
    return isinstance(token, IpLink) and not token.identified


def physical_projection(tokens: Iterable[LinkToken]) -> FrozenSet[IpLink]:
    """Collapse logical links onto directed physical links.

    Logical tags vanish; direction is preserved.  Unidentified links pass
    through unchanged.
    """
    projected = set()
    for token in tokens:
        if isinstance(token, LogicalLink):
            projected.add(IpLink(token.src, token.dst))
        else:
            projected.add(token)
    return frozenset(projected)


def undirected_projection(tokens: Iterable[LinkToken]) -> FrozenSet[PhysicalLink]:
    """Collapse tokens onto undirected physical links (metric space)."""
    return frozenset(token.physical() for token in tokens)


def sort_key(token: LinkToken) -> Tuple:
    """Deterministic total order over mixed token sets."""
    if isinstance(token, LogicalLink):
        return (1, _endpoint_key(token.src), _endpoint_key(token.dst), token.tag)
    return (0, _endpoint_key(token.src), _endpoint_key(token.dst))


def _show(endpoint: Endpoint) -> str:  # pragma: no cover - debug convenience
    return endpoint if isinstance(endpoint, str) else f"*{endpoint.index}"
