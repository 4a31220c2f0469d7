"""Minimum Hitting Set machinery shared by every NetDiagnoser variant.

§2.3 reduces fault localisation to Minimum Hitting Set: find the smallest
link set H intersecting every failure set while avoiding every
working-path link.  The optimisation problem is NP-hard (dual of Min Set
Cover); :func:`greedy_hitting_set` implements the paper's greedy heuristic
(Algorithm 1) generalised with the extensions later sections bolt on:

* **reroute sets** (§3.2) scored with weight ``b`` against the failure
  sets' weight ``a`` (paper uses a = b = 1);
* **preseeded links** (§3.3): IGP link-down messages put links into H
  before the greedy loop starts;
* **exclusions** (§2.4 working paths, §3.3 withdrawal exoneration): links
  that may never enter the candidate set;
* **link clusters** (§3.4): an unidentified link scores — and explains —
  the failure sets of every cluster member.

The greedy loop encodes the family as a numpy boolean matrix over an
interned token universe (:mod:`repro.core.bitsets`) and scores every
candidate with column sums instead of per-candidate cover counting.  The
historical set-based loop survives as the oracle the property tests
compare it against (``tests/core/greedy_oracle.py``).

:func:`exact_hitting_set` is a branch-and-bound exact solver used by the
optimality-gap ablation; it is exponential and guarded by an expansion
budget.  Its result only depends on the *set* of pruned failure sets and
the budget, so repeated calls on the same instance (the ablation scores
greedy against exact on identical inputs) are served from a memo instead
of re-running the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.cache import LruCache
from repro.core.bitsets import intern_family
from repro.core.linkspace import LinkToken, sort_key
from repro.errors import DiagnosisError

__all__ = [
    "GreedyResult",
    "greedy_hitting_set",
    "exact_hitting_set",
    "exact_cache_counters",
    "clear_exact_cache",
]

TokenSet = FrozenSet[LinkToken]

#: Memoised exact-solver instances kept (keyed by pruned family + budget).
_EXACT_CACHE_CAPACITY = 256


@dataclass
class GreedyResult:
    """Outcome of one greedy hitting-set run.

    ``unexplained_failures`` / ``unexplained_reroutes`` are the input sets
    the hypothesis could not intersect (their candidates were all excluded
    or exhausted) — non-empty values mean the observations are mutually
    inconsistent with the exclusion constraints, which the diagnosis report
    surfaces rather than hides.
    """

    hypothesis: TokenSet
    unexplained_failures: Tuple[TokenSet, ...]
    unexplained_reroutes: Tuple[TokenSet, ...]
    iterations: int
    preseeded: TokenSet = frozenset()

    @property
    def fully_explained(self) -> bool:
        """True when every failure and reroute set is hit."""
        return not (self.unexplained_failures or self.unexplained_reroutes)


def _normalise(
    failure_sets: Sequence[Iterable[LinkToken]],
    reroute_sets: Sequence[Iterable[LinkToken]],
) -> Tuple[List[TokenSet], List[TokenSet]]:
    """Freeze the input families and reject empty sets."""
    failures = [frozenset(s) for s in failure_sets]
    reroutes = [frozenset(s) for s in reroute_sets]
    if any(not s for s in failures) or any(not s for s in reroutes):
        raise DiagnosisError("empty failure/reroute set: a failed path with no links")
    return failures, reroutes


def greedy_hitting_set(
    failure_sets: Sequence[Iterable[LinkToken]],
    reroute_sets: Sequence[Iterable[LinkToken]] = (),
    excluded: Iterable[LinkToken] = (),
    preseed: Iterable[LinkToken] = (),
    failure_weight: int = 1,
    reroute_weight: int = 1,
    cluster_of: Optional[Callable[[LinkToken], TokenSet]] = None,
) -> GreedyResult:
    """Run the paper's greedy Minimum Hitting Set heuristic.

    Parameters mirror Algorithm 1 plus the NetDiagnoser extensions; see the
    module docstring.  ``cluster_of`` maps a candidate link to the set of
    links clustered with it (§3.4); links absent from any cluster should
    map to an empty set.

    Columns of the interned universe are ordered by
    :func:`~repro.core.linkspace.sort_key`, so iterating winner columns in
    ascending order *is* the deterministic tie-break, and the
    tie-equivalence classes are compared as boolean evidence vectors
    masked to nonzero-weight sets.
    """
    failures, reroutes = _normalise(failure_sets, reroute_sets)
    excluded_set: TokenSet = frozenset(excluded)
    preseed_set: TokenSet = frozenset(preseed)
    n_failures = len(failures)
    all_sets: List[TokenSet] = failures + reroutes
    n_sets = len(all_sets)

    hypothesis: Set[LinkToken] = set(preseed_set)
    if n_sets == 0:
        return GreedyResult(
            hypothesis=frozenset(hypothesis),
            unexplained_failures=(),
            unexplained_reroutes=(),
            iterations=0,
            preseeded=preseed_set,
        )

    family = intern_family(tuple(all_sets))
    universe = family.universe
    tokens = universe.tokens
    column_of = universe.column_of
    n_tokens = len(tokens)
    matrix = family.matrix()  # (n_sets, n_tokens) bool, read-only

    # Effective hits: base membership plus cluster expansion (§3.4) — a
    # candidate also hits every set any of its cluster siblings is in.
    # Memoised on the family: re-solving the same instance skips the
    # per-token cluster walk entirely.
    effective = family.effective_matrix(cluster_of)

    # Sets whose weight is zero never enter the scored evidence classes.
    weight_nonzero = np.ones(n_sets, dtype=bool)
    if failure_weight == 0:
        weight_nonzero[:n_failures] = False
    if reroute_weight == 0:
        weight_nonzero[n_failures:] = False

    unexplained = np.ones(n_sets, dtype=bool)
    for token in preseed_set:
        column = column_of.get(token)
        if column is not None:
            unexplained &= ~effective[:, column]
        elif cluster_of is not None:
            cluster = cluster_of(token)
            if cluster:
                member_cols = universe.columns_of_set(cluster)
                if member_cols:
                    unexplained &= ~matrix[:, member_cols].any(axis=1)

    candidate = np.ones(n_tokens, dtype=bool)
    # Intersect first: exoneration sets (every working-path link) are far
    # larger than the universe, and frozenset intersection runs at C speed
    # on stored hashes.
    for token in (excluded_set | hypothesis) & universe.token_set:
        candidate[column_of[token]] = False

    eff_failures = effective[:n_failures]
    eff_reroutes = effective[n_failures:]
    iterations = 0
    while unexplained.any() and candidate.any():
        iterations += 1
        hits_f = eff_failures[unexplained[:n_failures]].sum(
            axis=0, dtype=np.int64
        )
        hits_r = eff_reroutes[unexplained[n_failures:]].sum(
            axis=0, dtype=np.int64
        )
        any_hit = (hits_f + hits_r) > 0
        scores = failure_weight * hits_f + reroute_weight * hits_r
        scored = candidate & any_hit
        if not scored.any():
            break
        best_score = int(scores[scored].max())
        if best_score <= 0:
            break  # remaining sets have no admissible candidate
        # Ascending column order == sort_key order: the all-ties rule with
        # per-evidence-class dedup, exactly as the set-based oracle does.
        winner_cols = np.nonzero(scored & (scores == best_score))[0]
        at_scoring = unexplained.copy()
        added_classes: Set[bytes] = set()
        for column in winner_cols:
            evidence = effective[:, column]
            class_key = (evidence & at_scoring & weight_nonzero).tobytes()
            explains_new = bool((evidence & unexplained).any())
            if not explains_new and class_key not in added_classes:
                continue
            hypothesis.add(tokens[column])
            candidate[column] = False
            unexplained &= ~evidence
            added_classes.add(class_key)

    leftover_ids = np.nonzero(unexplained)[0]
    leftover_f = [all_sets[i] for i in leftover_ids if i < n_failures]
    leftover_r = [all_sets[i] for i in leftover_ids if i >= n_failures]
    return GreedyResult(
        hypothesis=frozenset(hypothesis),
        unexplained_failures=tuple(leftover_f),
        unexplained_reroutes=tuple(leftover_r),
        iterations=iterations,
        preseeded=preseed_set,
    )


_exact_cache = LruCache(_EXACT_CACHE_CAPACITY)

#: Cache sentinel: distinguishes "no admissible/proven solution" from a miss.
_NO_SOLUTION = object()


def exact_cache_counters() -> Dict[str, int]:
    """Hit/miss counters of the exact-solver memo."""
    return {"hits": _exact_cache.hits, "misses": _exact_cache.misses}


def clear_exact_cache() -> None:
    """Drop every memoised exact result and zero the counters (tests use
    this for isolation)."""
    global _exact_cache
    _exact_cache = LruCache(_EXACT_CACHE_CAPACITY)


def exact_hitting_set(
    failure_sets: Sequence[Iterable[LinkToken]],
    excluded: Iterable[LinkToken] = (),
    max_expansions: int = 200_000,
) -> Optional[TokenSet]:
    """Exact minimum hitting set via branch and bound (memoised).

    Returns ``None`` when no admissible hitting set exists (every candidate
    of some set is excluded) or when the expansion budget truncated the
    search — callers treat both as "fall back to greedy".  A truncated
    search returns ``None`` even if *some* hitting set had already been
    found: an unexplored branch could still hold a smaller one, so
    returning the interim ``best`` would pass off a possibly non-minimal
    set as the optimum (the optimality-gap ablation would then understate
    greedy's gap).  Deterministic: branches explore candidates in
    :func:`~repro.core.linkspace.sort_key` order.

    The result depends only on the *set* of pruned failure sets and the
    budget (branching always picks the unique most-constrained set, so
    input order and duplicates are irrelevant), which makes the instance
    safely memoisable: a second call on the same instance is a cache hit
    instead of a full search.
    """
    excluded_set = frozenset(excluded)
    sets: List[TokenSet] = []
    for s in failure_sets:
        pruned = frozenset(s) - excluded_set
        if not pruned:
            return None
        sets.append(pruned)
    if not sets:
        return frozenset()

    memo_key = (frozenset(sets), max_expansions)
    cached = _exact_cache.get(memo_key)
    if cached is not None:
        return cached if cached is not _NO_SOLUTION else None

    best: List[Optional[FrozenSet[LinkToken]]] = [None]
    budget = [max_expansions]
    truncated = [False]

    def search(chosen: Set[LinkToken], remaining: List[TokenSet]) -> None:
        if budget[0] <= 0:
            truncated[0] = True  # a branch was cut: `best` is unproven
            return
        budget[0] -= 1
        if best[0] is not None and len(chosen) >= len(best[0]):
            return
        if not remaining:
            best[0] = frozenset(chosen)
            return
        # Branch on the smallest uncovered set (most constrained first).
        target = min(remaining, key=lambda s: (len(s), sorted(map(sort_key, s))))
        for token in sorted(target, key=sort_key):
            chosen.add(token)
            search(chosen, [s for s in remaining if token not in s])
            chosen.discard(token)

    search(set(), sets)
    result = None if truncated[0] else best[0]
    _exact_cache.put(memo_key, result if result is not None else _NO_SOLUTION)
    return result
