"""``NetworkState.key`` is a faithful stand-in for the state.

The simulator keys its trace cache by the key instead of the state, so
two keys must be equal exactly when their states are: sets compare
unordered, the filters and the weight overrides in order (of two
overrides on one link the later wins, so order is part of the state).
Pairs are drawn both independently and as reorderings of one state's
filters and overrides, so the equal and the unequal side both occur.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.topology import ExportFilter, NetworkState

PREFIXES = ("10.0.16.0/20", "10.0.32.0/20", "10.0.48.0/20")

filters = st.lists(
    st.builds(
        ExportFilter,
        link_id=st.integers(0, 3),
        at_router=st.integers(0, 3),
        prefixes=st.frozensets(st.sampled_from(PREFIXES), min_size=1),
    ),
    max_size=3,
)
overrides = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from([1, 10, 20])), max_size=3
)
states = st.builds(
    NetworkState,
    failed_links=st.frozensets(st.integers(0, 5), max_size=3),
    failed_routers=st.frozensets(st.integers(0, 5), max_size=2),
    filters=filters.map(tuple),
    weight_overrides=overrides.map(tuple),
)


@st.composite
def reordered(draw, state):
    """``state`` with its filters and overrides permuted: equal only when
    the permutation keeps every position's entry."""
    return NetworkState(
        failed_links=frozenset(sorted(state.failed_links, reverse=True)),
        failed_routers=state.failed_routers,
        filters=tuple(draw(st.permutations(state.filters))),
        weight_overrides=tuple(draw(st.permutations(state.weight_overrides))),
    )


@given(data=st.data(), first=states)
@settings(max_examples=300, deadline=None)
def test_key_equality_is_state_equality(data, first):
    second = data.draw(st.one_of(states, reordered(first)))
    assert (first.key == second.key) == (first == second)
    if first == second:
        assert hash(first.key) == hash(second.key)


def test_swapped_overrides_and_filters_are_distinct_states():
    one = ExportFilter(1, 2, frozenset({PREFIXES[0]}))
    two = ExportFilter(3, 4, frozenset({PREFIXES[1]}))
    a = NetworkState(filters=(one, two), weight_overrides=((5, 10), (5, 20)))
    b = NetworkState(filters=(one, two), weight_overrides=((5, 20), (5, 10)))
    c = NetworkState(filters=(two, one), weight_overrides=((5, 10), (5, 20)))
    assert a != b and a.key != b.key
    assert a != c and a.key != c.key
    same = NetworkState(filters=(one, two), weight_overrides=((5, 10), (5, 20)))
    assert same is not a and same.key == a.key
