"""Tests for the interned bitset layer and the solver caches."""

from repro.core.bitsets import (
    clear_encoding_cache,
    encoding_cache_counters,
    intern_family,
    intern_universe,
)
from repro.core.hitting_set import (
    clear_exact_cache,
    exact_cache_counters,
    exact_hitting_set,
)
from repro.core.linkspace import ip_link, sort_key
from repro.core.pathset import ProbePath


def L(n):  # short link-token factory
    return ip_link(f"10.0.0.{n}", f"10.0.0.{n + 100}")


class TestTokenUniverse:
    def test_columns_follow_sort_key_order(self):
        universe = intern_universe([frozenset({L(3), L(1)}), frozenset({L(2)})])
        assert list(universe.tokens) == sorted(universe.tokens, key=sort_key)
        for column, token in enumerate(universe.tokens):
            assert universe.column_of[token] == column
            assert token in universe

    def test_columns_of_set_is_memoised(self):
        universe = intern_universe([frozenset({L(1), L(2)})])
        cluster = frozenset({L(1), L(2), L(99)})  # L(99) outside universe
        first = universe.columns_of_set(cluster)
        assert first == universe.columns(cluster)
        assert universe.columns_of_set(cluster) is first


class TestInternFamily:
    def setup_method(self):
        clear_encoding_cache()

    def test_repeated_family_returns_same_object(self):
        sets = (frozenset({L(1), L(2)}), frozenset({L(2), L(3)}))
        first = intern_family(sets)
        second = intern_family(tuple(sets))
        assert second is first
        counters = encoding_cache_counters()
        assert counters["hits"] == 1
        assert counters["misses"] == 1

    def test_matrix_is_shared_and_read_only(self):
        family = intern_family((frozenset({L(1)}), frozenset({L(1), L(2)})))
        matrix = family.matrix()
        assert matrix is family.matrix()
        assert not matrix.flags.writeable
        assert matrix.shape == (2, 2)
        assert matrix.sum() == 3

    def test_effective_matrix_memoised_per_cluster_callable(self):
        family = intern_family((frozenset({L(1)}), frozenset({L(2)})))
        assert family.effective_matrix(None) is family.matrix()
        cluster = frozenset({L(1), L(2)})
        cluster_of = {L(1): cluster, L(2): cluster}.get
        expanded = family.effective_matrix(cluster_of)
        # Expansion: each column also hits its sibling's set.
        assert expanded.all()
        assert family.effective_matrix(cluster_of) is expanded
        # A different callable misses the single-slot memo but computes
        # the same expansion.
        other = family.effective_matrix({L(1): cluster, L(2): cluster}.get)
        assert other is not expanded
        assert (other == expanded).all()


class TestEncodingCache:
    def test_clear_resets_counters(self):
        """Clearing drops the interned families and zeroes the counters,
        although a plain ``LruCache.clear`` keeps them."""
        clear_encoding_cache()
        sets = (frozenset({L(1)}),)
        intern_family(sets)
        intern_family(sets)
        assert encoding_cache_counters() == {"hits": 1, "misses": 1}
        clear_encoding_cache()
        assert encoding_cache_counters() == {"hits": 0, "misses": 0}
        intern_family(sets)
        assert encoding_cache_counters() == {"hits": 0, "misses": 1}


class TestExactMemoization:
    def setup_method(self):
        clear_exact_cache()

    def test_second_call_hits_the_cache(self):
        sets = [[L(1), L(2)], [L(2), L(3)]]
        first = exact_hitting_set(sets)
        assert exact_cache_counters() == {"hits": 0, "misses": 1}
        assert exact_hitting_set(sets) == first
        assert exact_cache_counters() == {"hits": 1, "misses": 1}

    def test_key_ignores_set_order_and_duplicates(self):
        """The B&B result depends only on the *family*: permuted or
        duplicated inputs reuse the memoized search."""
        first = exact_hitting_set([[L(1), L(2)], [L(3)]])
        assert exact_hitting_set([[L(3)], [L(1), L(2)], [L(3)]]) == first
        assert exact_cache_counters() == {"hits": 1, "misses": 1}

    def test_truncated_none_is_cached(self):
        """A budget-truncated search memoizes its None under that budget
        (the _NO_SOLUTION sentinel, not a cache miss)."""
        sets = [[L(a), L(b)] for a in range(1, 5) for b in range(a + 1, 5)]
        assert exact_hitting_set(sets, max_expansions=1) is None
        assert exact_hitting_set(sets, max_expansions=1) is None
        assert exact_cache_counters() == {"hits": 1, "misses": 1}

    def test_pruned_infeasible_short_circuits_before_the_cache(self):
        """Every-candidate-excluded is decided during pruning; no search
        runs, so nothing is cached."""
        assert exact_hitting_set([[L(1)]], excluded=[L(1)]) is None
        assert exact_cache_counters() == {"hits": 0, "misses": 0}

    def test_budget_is_part_of_the_key(self):
        """A truncated search must not poison the unbounded one."""
        sets = [
            [L(a), L(b)] for a in range(1, 5) for b in range(a + 1, 5)
        ]
        truncated = exact_hitting_set(sets, max_expansions=1)
        full = exact_hitting_set(sets)
        assert truncated is None
        assert full is not None
        assert exact_cache_counters()["misses"] == 2


class TestPathMemoization:
    def test_probe_path_links_cached(self):
        path = ProbePath(
            src="10.0.0.1",
            dst="10.0.0.3",
            hops=("10.0.0.1", "10.0.0.2", "10.0.0.3"),
            reached=True,
        )
        assert path.links() is path.links()
