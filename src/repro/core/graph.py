"""The inferred graph G: union of traceroute paths, with traversal info.

§2.2: "the topology graph G is inferred from the union of these traceroute
paths".  For diagnosability (§4) we additionally need, per link, the set of
probe pairs traversing it — the link's *hitting set* h(l).  The graph can
be built at physical granularity (:meth:`InferredGraph.from_paths`) or at
logical granularity (:meth:`InferredGraph.from_logical_paths`), the latter
applying the §3.1 logical-link expansion.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Optional,
    Set,
    Tuple,
)

from repro.core.linkspace import LinkToken, PhysicalLink, sort_key, undirected_projection
from repro.core.logical import logicalize
from repro.core.pathset import Pair, ProbePath

__all__ = ["InferredGraph"]


class InferredGraph:
    """Union of probe paths with per-link traversal sets.

    A graph over a ``base`` extends it copy-on-write: reads fall through,
    and a traversal set is copied only when a path adds a pair to it, so
    a shared T- graph is never copied whole nor modified.

    Values read off the whole graph are memoised on it (see
    :meth:`derived`) until the next :meth:`add_path`.
    """

    def __init__(self, base: Optional["InferredGraph"] = None) -> None:
        self._base = base
        self._traversals: Dict[LinkToken, Set[Pair]] = {}
        self._size = len(base) if base is not None else 0
        self._derived: Dict[str, Any] = {}

    # -------------------------------------------------------------- builders

    @classmethod
    def from_paths(cls, paths: Iterable[ProbePath]) -> "InferredGraph":
        """Physical-granularity graph: tokens are directed IpLinks."""
        graph = cls()
        for path in paths:
            graph.add_path(path.pair, path.links())
        return graph

    @classmethod
    def from_logical_paths(
        cls,
        paths: Iterable[ProbePath],
        asn_of: Callable[[str], Optional[int]],
    ) -> "InferredGraph":
        """Logical-granularity graph: interdomain links carry §3.1 tags."""
        graph = cls()
        for path in paths:
            graph.add_path(path.pair, logicalize(path, asn_of))
        return graph

    def add_path(self, pair: Pair, tokens: Iterable[LinkToken]) -> None:
        """Record that ``pair``'s path traverses ``tokens``."""
        self._derived = {}
        own = self._traversals
        for token in tokens:
            pairs = own.get(token)
            if pairs is None:
                inherited = (
                    self._base._pairs(token) if self._base is not None else None
                )
                if inherited is None:
                    self._size += 1
                    pairs = own[token] = set()
                elif pair in inherited:
                    continue
                else:
                    pairs = own[token] = set(inherited)
            pairs.add(pair)

    # --------------------------------------------------------------- queries

    def _pairs(self, token: LinkToken) -> Optional[Set[Pair]]:
        pairs = self._traversals.get(token)
        if pairs is None and self._base is not None:
            return self._base._pairs(token)
        return pairs

    def __iter__(self) -> Iterator[LinkToken]:
        """All links, in no particular order."""
        own = self._traversals
        if self._base is None:
            return iter(own)
        return chain(own, (token for token in self._base if token not in own))

    def tokens(self) -> Tuple[LinkToken, ...]:
        """All links, deterministically ordered."""
        return tuple(sorted(self, key=sort_key))

    def __contains__(self, token: LinkToken) -> bool:
        return self._pairs(token) is not None

    def __len__(self) -> int:
        return self._size

    def traversed_by(self, token: LinkToken) -> FrozenSet[Pair]:
        """The hitting set h(l): probe pairs whose path crosses ``token``."""
        return frozenset(self._pairs(token) or ())

    def traversed_beyond(
        self, pairs: AbstractSet[Pair], tokens: Iterable[LinkToken]
    ) -> Set[LinkToken]:
        """The links some pair outside ``pairs`` traverses: every link
        whose h(l) is not a subset of ``pairs``.

        ``tokens`` must cover the links the pairs in ``pairs`` traverse;
        any other link is traversed by outside pairs only, so only these
        need the subset check.
        """
        beyond = set(self)
        beyond.difference_update(
            token for token in set(tokens) if self._pairs(token) <= pairs
        )
        return beyond

    def derived(self, key: str, build: Callable[[], Any]) -> Any:
        """``build()`` once per ``key`` until the next :meth:`add_path`;
        callers share the result, so it must be read-only."""
        memo = self._derived
        if key not in memo:
            memo[key] = build()
        return memo[key]

    def physical_links(self) -> FrozenSet[PhysicalLink]:
        """The links projected to undirected physical links, memoised: a
        graph over a base adds its own tokens' projection to the base's."""
        return self.derived("physical", self._project)

    def _project(self) -> FrozenSet[PhysicalLink]:
        own = undirected_projection(self._traversals)
        if self._base is None:
            return own
        return self._base.physical_links() | own

