"""Interned token universes: set families as numpy boolean matrices.

The localisation algorithms are set-cover computations over token sets
(§2.3): candidate failure sets, reroute sets and the per-pair
reachability matrix.  At paper scale (165 ASes) plain Python sets are
fine; at internet scale (:mod:`repro.netsim.gen.powerlaw`, 5k-50k ASes)
the greedy cover-counting inner loop dominates a diagnosis.  This module
provides the shared dense representation:

* :class:`TokenUniverse` interns an ordered token universe — every
  token maps to one column index, ordered by
  :func:`~repro.core.linkspace.sort_key` so that column order *is*
  deterministic tie-break order;
* :meth:`TokenUniverse.membership_matrix` encodes a family of token
  sets as one ``(n_sets, n_tokens)`` boolean matrix.

Encodings are memoised in a small :class:`~repro.cache.LruCache` keyed
by the input family: solvers called twice on the same instance
(ablations re-run greedy and exact on identical inputs) must not pay
the interning twice.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from repro.cache import LruCache
from repro.core.linkspace import LinkToken, sort_key

__all__ = [
    "TokenUniverse",
    "InternedFamily",
    "intern_family",
    "intern_universe",
    "encoding_cache_counters",
    "clear_encoding_cache",
]

TokenSet = FrozenSet[LinkToken]

#: Interned universes kept; one diagnosis round touches a handful of
#: distinct families (failure sets, reroute sets, per-variant reruns).
_ENCODING_CACHE_CAPACITY = 128


class TokenUniverse:
    """An interned, ordered token universe with dense set encodings.

    ``tokens`` holds every token in :func:`sort_key` order;
    ``column_of`` maps a token to its column index.  Matrices built
    against the universe therefore agree on tie-break order with every
    algorithm that sorts winners by ``sort_key``.
    """

    __slots__ = ("tokens", "column_of", "token_set", "_set_columns")

    def __init__(self, tokens: Iterable[LinkToken]) -> None:
        self.tokens: Tuple[LinkToken, ...] = tuple(
            sorted(set(tokens), key=sort_key)
        )
        self.column_of: Dict[LinkToken, int] = {
            token: column for column, token in enumerate(self.tokens)
        }
        # Set view: lets callers intersect large exoneration sets with the
        # universe at C speed (set ops reuse stored hashes) before touching
        # per-token column lookups.
        self.token_set: FrozenSet[LinkToken] = frozenset(self.tokens)
        self._set_columns: Dict[FrozenSet[LinkToken], List[int]] = {}

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: LinkToken) -> bool:
        return token in self.column_of

    def membership_matrix(self, sets: Sequence[TokenSet]):
        """Encode ``sets`` as an ``(len(sets), len(self))`` bool matrix.

        Tokens outside the universe are ignored (callers build the
        universe from the same family, so none are in practice).
        """
        matrix = np.zeros((len(sets), len(self.tokens)), dtype=bool)
        column_of = self.column_of
        for row, tokens in enumerate(sets):
            for token in tokens:
                column = column_of.get(token)
                if column is not None:
                    matrix[row, column] = True
        return matrix

    def columns(self, tokens: Iterable[LinkToken]) -> List[int]:
        """Column indices of the given tokens (unknown tokens skipped)."""
        column_of = self.column_of
        out: List[int] = []
        for token in tokens:
            column = column_of.get(token)
            if column is not None:
                out.append(column)
        return out

    def columns_of_set(self, tokens: FrozenSet[LinkToken]) -> List[int]:
        """Memoised :meth:`columns` for frozensets (cluster member lookups
        recur with the same frozenset on every solver call)."""
        cached = self._set_columns.get(tokens)
        if cached is None:
            cached = self.columns(tokens)
            self._set_columns[tokens] = cached
        return cached


class InternedFamily:
    """One memoised set family: its universe and its dense encoding.

    The membership matrix is built lazily and marked read-only — every
    consumer that needs to mutate (e.g. cluster expansion in the greedy
    solver) must copy first.
    """

    __slots__ = ("sets", "universe", "_matrix", "_cluster_key", "_cluster_matrix")

    def __init__(self, sets: Tuple[TokenSet, ...]) -> None:
        self.sets = sets
        self.universe = TokenUniverse(
            token for tokens in sets for token in tokens
        )
        self._matrix = None
        self._cluster_key = None
        self._cluster_matrix = None

    def matrix(self):
        """The family's membership matrix (shared, read-only)."""
        if self._matrix is None:
            self._matrix = self.universe.membership_matrix(self.sets)
            self._matrix.setflags(write=False)
        return self._matrix

    def effective_matrix(self, cluster_of):
        """The cluster-expanded matrix (§3.4): a column also hits every
        set any of its cluster siblings is in.

        Columns are grouped by cluster so each distinct cluster costs one
        member-union and one broadcast OR instead of one op per column.
        Single-slot memo keyed by ``cluster_of``'s identity: repeated
        solver calls on the same instance (ablations, benchmarks) pass
        the same callable, and a cluster map never mutates between them.
        """
        if cluster_of is None:
            return self.matrix()
        if self._cluster_key is cluster_of:
            return self._cluster_matrix
        matrix = self.matrix()
        universe = self.universe
        cluster_columns: Dict[TokenSet, List[int]] = {}
        for column, token in enumerate(universe.tokens):
            cluster = cluster_of(token)
            if cluster:
                cluster_columns.setdefault(cluster, []).append(column)
        if not cluster_columns:
            effective = matrix
        else:
            effective = matrix.copy()
            for cluster, group in cluster_columns.items():
                member_cols = universe.columns_of_set(cluster)
                if member_cols:
                    union = matrix[:, member_cols].any(axis=1)
                    effective[:, group] |= union[:, None]
            effective.setflags(write=False)
        self._cluster_key = cluster_of
        self._cluster_matrix = effective
        return effective


_encodings = LruCache(_ENCODING_CACHE_CAPACITY)


def intern_family(sets: Sequence[TokenSet]) -> InternedFamily:
    """The interned encoding of a set family (memoised).

    The key is the family itself as an (order-sensitive) tuple — cheap
    to hash relative to re-sorting the union, and exact: a repeated call
    on the same instance returns the same :class:`InternedFamily`
    object, matrix included.
    """
    key = tuple(sets)
    cached = _encodings.get(key)
    if cached is not None:
        return cached
    family = InternedFamily(key)
    _encodings.put(key, family)
    return family


def intern_universe(sets: Sequence[TokenSet]) -> TokenUniverse:
    """The interned :class:`TokenUniverse` of a set family (memoised)."""
    return intern_family(sets).universe


def encoding_cache_counters() -> Dict[str, int]:
    """Hit/miss counters of the universe-interning cache."""
    return {"hits": _encodings.hits, "misses": _encodings.misses}


def clear_encoding_cache() -> None:
    """Drop every interned universe and zero the counters (tests use
    this for isolation)."""
    global _encodings
    _encodings = LruCache(_ENCODING_CACHE_CAPACITY)
