"""The retired set-based greedy hitting set, kept as a test oracle.

Before :func:`repro.core.hitting_set.greedy_hitting_set` became a numpy
computation over an interned token universe, Algorithm 1 ran over Python
sets: an inverted token -> set-id index, per-candidate cover counting in
every iteration, and winners taken in
:func:`~repro.core.linkspace.sort_key` order.  The function below is that
implementation, unchanged.  The property tests and the scale benchmark
require the production solver to return exactly its
:class:`~repro.core.hitting_set.GreedyResult` (hypothesis, unexplained
sets in input order, iteration count, preseeds).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Set

from repro.core.hitting_set import GreedyResult, _normalise
from repro.core.linkspace import LinkToken, sort_key

TokenSet = FrozenSet[LinkToken]


def _greedy_hitting_set_python(
    failure_sets: Sequence[Iterable[LinkToken]],
    reroute_sets: Sequence[Iterable[LinkToken]] = (),
    excluded: Iterable[LinkToken] = (),
    preseed: Iterable[LinkToken] = (),
    failure_weight: int = 1,
    reroute_weight: int = 1,
    cluster_of: Optional[Callable[[LinkToken], TokenSet]] = None,
) -> GreedyResult:
    """The set-based reference implementation of Algorithm 1."""
    failures, reroutes = _normalise(failure_sets, reroute_sets)
    excluded_set: TokenSet = frozenset(excluded)
    preseed_set: TokenSet = frozenset(preseed)

    # Inverted index: token -> ids of the sets containing it.  Reroute set
    # ids are offset past the failure ids so one id space covers both.
    index: Dict[LinkToken, Set[int]] = {}
    for set_id, s in enumerate(failures + reroutes):
        for token in s:
            index.setdefault(token, set()).add(set_id)
    n_failures = len(failures)

    def ids_hit_by(token: LinkToken) -> Set[int]:
        """Set ids hit by the token or anything clustered with it."""
        hit = set(index.get(token, ()))
        if cluster_of is not None:
            cluster = cluster_of(token)
            if cluster:
                cached = cluster_hits.get(cluster)
                if cached is None:
                    cached = set()
                    for member in cluster:
                        cached |= index.get(member, set())
                    cluster_hits[cluster] = cached
                hit |= cached
        return hit

    cluster_hits: Dict[TokenSet, Set[int]] = {}
    hypothesis: Set[LinkToken] = set(preseed_set)
    unexplained: Set[int] = set(range(len(failures) + len(reroutes)))
    for token in preseed_set:
        unexplained -= ids_hit_by(token)

    candidates: Set[LinkToken] = set(index)
    candidates -= excluded_set
    candidates -= hypothesis

    iterations = 0
    while unexplained and candidates:
        iterations += 1
        best_score = 0
        scores: Dict[LinkToken, int] = {}
        hit_sets: Dict[LinkToken, FrozenSet[int]] = {}
        for token in candidates:
            hit = ids_hit_by(token) & unexplained
            if not hit:
                continue
            score = 0
            for set_id in hit:
                score += failure_weight if set_id < n_failures else reroute_weight
            scores[token] = score
            # Equivalence class on *scored* evidence only: a set whose
            # weight is zero contributes nothing to the ranking, so it
            # must not make two otherwise-identical winners look
            # distinguishable either.
            hit_sets[token] = frozenset(
                set_id
                for set_id in hit
                if (failure_weight if set_id < n_failures else reroute_weight)
            )
            if score > best_score:
                best_score = score
        if best_score <= 0:
            break  # remaining sets have no admissible candidate
        # Algorithm 1 lines 13-17: add *every* maximum-score link.  Tied
        # winners with the *same* hit-set are indistinguishable on the
        # evidence and are all blamed (that is the point of the all-ties
        # rule: the true link must not be dropped in favour of a peer of
        # its equivalence class).  But a tied winner whose sets were all
        # explained by *distinguishably different* earlier winners of the
        # same iteration carries no evidence of its own — re-scored, it
        # would no longer win — so adding it would inflate |H| beyond
        # Algorithm 1's intent.
        winners = sorted(
            (t for t, score in scores.items() if score == best_score),
            key=sort_key,
        )
        added_classes: Set[FrozenSet[int]] = set()
        for token in winners:
            explains_new = bool(ids_hit_by(token) & unexplained)
            if not explains_new and hit_sets[token] not in added_classes:
                continue
            hypothesis.add(token)
            candidates.discard(token)
            unexplained -= ids_hit_by(token)
            added_classes.add(hit_sets[token])

    all_sets = failures + reroutes
    leftover_f = [
        all_sets[set_id] for set_id in sorted(unexplained) if set_id < n_failures
    ]
    leftover_r = [
        all_sets[set_id] for set_id in sorted(unexplained) if set_id >= n_failures
    ]
    return GreedyResult(
        hypothesis=frozenset(hypothesis),
        unexplained_failures=tuple(leftover_f),
        unexplained_reroutes=tuple(leftover_r),
        iterations=iterations,
        preseeded=preseed_set,
    )
