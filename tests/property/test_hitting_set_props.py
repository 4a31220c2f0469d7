"""Property-based tests for the hitting-set solvers (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hitting_set import (
    clear_exact_cache,
    exact_hitting_set,
    greedy_hitting_set,
)
from repro.core.linkspace import ip_link
from tests.core.greedy_oracle import _greedy_hitting_set_python

# A small universe of link tokens.
TOKENS = [ip_link(f"10.0.0.{i}", f"10.0.1.{i}") for i in range(12)]

token_sets = st.lists(
    st.sets(st.sampled_from(TOKENS), min_size=1, max_size=5),
    min_size=0,
    max_size=8,
)


@given(sets=token_sets)
def test_greedy_hits_every_set_when_feasible(sets):
    result = greedy_hitting_set(sets)
    # No exclusions: every set has candidates, so everything is explained.
    assert result.fully_explained
    for s in sets:
        assert s & result.hypothesis


@given(sets=token_sets, excluded=st.sets(st.sampled_from(TOKENS), max_size=6))
def test_greedy_never_selects_excluded_links(sets, excluded):
    result = greedy_hitting_set(sets, excluded=excluded)
    assert not (result.hypothesis - result.preseeded) & excluded
    # Sets whose candidates were all excluded are reported, not hidden.
    for unexplained in result.unexplained_failures:
        assert unexplained <= frozenset(excluded) | result.hypothesis
        assert not unexplained & result.hypothesis


@given(sets=token_sets)
def test_greedy_hypothesis_is_subset_of_candidates(sets):
    result = greedy_hitting_set(sets)
    universe = set().union(*sets) if sets else set()
    assert result.hypothesis <= universe


@given(sets=token_sets, preseed=st.sets(st.sampled_from(TOKENS), max_size=3))
def test_preseed_always_lands_in_hypothesis(sets, preseed):
    result = greedy_hitting_set(sets, preseed=preseed)
    assert frozenset(preseed) <= result.hypothesis


@given(sets=token_sets)
def test_greedy_is_deterministic(sets):
    a = greedy_hitting_set(sets)
    b = greedy_hitting_set(list(sets))
    assert a.hypothesis == b.hypothesis
    assert a.iterations == b.iterations


@given(
    sets=st.lists(
        st.sets(st.sampled_from(TOKENS[:8]), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60)
def test_exact_is_minimal_and_greedy_is_valid(sets):
    exact = exact_hitting_set(sets)
    greedy = greedy_hitting_set(sets)
    assert exact is not None
    # Exact hits everything.
    for s in sets:
        assert s & exact
    # Greedy is a valid hitting set and never smaller than the optimum.
    assert len(exact) <= len(greedy.hypothesis)


@given(
    sets=token_sets,
    reroutes=st.lists(
        st.sets(st.sampled_from(TOKENS), min_size=1, max_size=4), max_size=4
    ),
)
def test_reroute_sets_are_also_explained(sets, reroutes):
    result = greedy_hitting_set(sets, reroute_sets=reroutes)
    assert result.fully_explained
    for s in reroutes:
        assert s & result.hypothesis


# --- vectorized == set-based oracle equivalence ------------------------


@st.composite
def cluster_maps(draw):
    """A random partition of TOKENS into link clusters (§3.4); only
    groups of two or more enter the map, mirroring nd_edge's UH
    clustering."""
    order = draw(st.permutations(TOKENS))
    mapping = {}
    index = 0
    while index < len(order):
        size = draw(st.integers(min_value=1, max_value=3))
        group = frozenset(order[index : index + size])
        index += size
        if len(group) > 1:
            for token in group:
                mapping[token] = group
    return mapping


@given(
    sets=token_sets,
    reroutes=st.lists(
        st.sets(st.sampled_from(TOKENS), min_size=1, max_size=4), max_size=4
    ),
    excluded=st.sets(st.sampled_from(TOKENS), max_size=5),
    preseed=st.sets(st.sampled_from(TOKENS), max_size=2),
    failure_weight=st.integers(min_value=0, max_value=3),
    reroute_weight=st.integers(min_value=0, max_value=3),
    clusters=st.none() | cluster_maps(),
)
@settings(max_examples=150)
def test_vectorized_greedy_is_bit_identical(
    sets, reroutes, excluded, preseed, failure_weight, reroute_weight, clusters
):
    """The full GreedyResult (hypothesis, unexplained tuples in input
    order, iteration count, preseeds) matches across implementations for
    every kwarg combination — including zero weights and clusters."""
    kwargs = dict(
        excluded=excluded,
        preseed=preseed,
        failure_weight=failure_weight,
        reroute_weight=reroute_weight,
        cluster_of=None if clusters is None else clusters.get,
    )
    reference = _greedy_hitting_set_python(sets, reroutes, **kwargs)
    vectorized = greedy_hitting_set(sets, reroutes, **kwargs)
    assert reference == vectorized


@given(sets=token_sets, duplicates=st.integers(min_value=2, max_value=3))
@settings(max_examples=80)
def test_vectorized_tie_classes_match_with_duplicated_sets(sets, duplicates):
    """Duplicating every set forces score ties among all its members;
    both paths must admit exactly one winner per tie-equivalence class."""
    tied = [s for s in sets for _ in range(duplicates)]
    reference = _greedy_hitting_set_python(tied)
    vectorized = greedy_hitting_set(tied)
    assert reference == vectorized
    assert reference.iterations == vectorized.iterations


@given(
    sets=st.lists(
        st.sets(st.sampled_from(TOKENS), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    ),
    reroutes=st.lists(
        st.sets(st.sampled_from(TOKENS), min_size=1, max_size=4),
        min_size=1,
        max_size=4,
    ),
)
@settings(max_examples=60)
def test_vectorized_zero_weight_drops_sets_from_tie_classes(sets, reroutes):
    """Zero-weight sets score nothing and never split an equivalence
    class — in either implementation."""
    for weights in ((0, 1), (1, 0), (0, 0)):
        kwargs = dict(failure_weight=weights[0], reroute_weight=weights[1])
        reference = _greedy_hitting_set_python(sets, reroutes, **kwargs)
        vectorized = greedy_hitting_set(sets, reroutes, **kwargs)
        assert reference == vectorized


@given(
    sets=st.lists(
        st.sets(st.sampled_from(TOKENS[:8]), min_size=1, max_size=4),
        min_size=1,
        max_size=6,
    ),
    budget=st.integers(min_value=1, max_value=50),
)
@settings(max_examples=60)
def test_exact_budget_truncation_is_stable_and_sound(sets, budget):
    """A truncated exact search either proves an optimum or returns
    None — and the memoized second call agrees with the first."""
    clear_exact_cache()
    first = exact_hitting_set(sets, max_expansions=budget)
    second = exact_hitting_set(sets, max_expansions=budget)
    assert first == second
    if first is not None:
        for s in sets:
            assert s & first
        # A solution under a truncated budget is still the optimum.
        full = exact_hitting_set(sets)
        assert full is not None
        assert len(full) == len(first)
