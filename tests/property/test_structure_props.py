"""Property-based tests on data structures: tokens, paths, graphs, SCFS."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diagnosability import diagnosability
from repro.core.graph import InferredGraph
from repro.core.linkspace import (
    LogicalLink,
    UhNode,
    ip_link,
    physical_link,
    sort_key,
    undirected_projection,
)
from repro.core.pathset import ProbePath
from repro.core.scfs import scfs

addresses = st.integers(1, 250).map(lambda i: f"10.0.0.{i}")


@given(a=addresses, b=addresses)
def test_physical_link_is_order_insensitive(a, b):
    assert physical_link(a, b) == physical_link(b, a)


@given(a=addresses, b=addresses)
def test_directed_tokens_project_to_one_physical(a, b):
    forward, backward = ip_link(a, b), ip_link(b, a)
    assert undirected_projection([forward, backward]) == frozenset(
        {physical_link(a, b)}
    )


@given(hops=st.lists(addresses, min_size=2, max_size=8, unique=True))
def test_probe_path_links_reconstruct_hops(hops):
    path = ProbePath(src=hops[0], dst=hops[-1], hops=tuple(hops), reached=True)
    links = path.links()
    assert len(links) == len(hops) - 1
    rebuilt = [links[0].src] + [link.dst for link in links]
    assert rebuilt == list(hops)


@given(
    paths=st.lists(
        st.lists(addresses, min_size=2, max_size=6, unique=True),
        min_size=1,
        max_size=6,
    )
)
def test_inferred_graph_traversals_partition_tokens(paths):
    probe_paths = []
    for index, hops in enumerate(paths):
        probe_paths.append(
            ProbePath(
                src=hops[0],
                dst=hops[-1],
                hops=tuple(hops),
                reached=True,
            )
        )
    # Pairs must be unique per store semantics; the graph itself accepts
    # duplicates, merging their traversals.
    graph = InferredGraph()
    for index, path in enumerate(probe_paths):
        graph.add_path((path.src, f"probe-{index}"), path.links())
    for token in graph.tokens():
        assert graph.traversed_by(token)
    # Token ordering is a total order.
    keys = [sort_key(t) for t in graph.tokens()]
    assert keys == sorted(keys)


endpoints = st.one_of(
    addresses,
    st.builds(
        UhNode,
        st.just("10.0.0.1"),
        st.just("10.0.0.2"),
        st.sampled_from(["pre", "post"]),
        st.integers(0, 4),
    ),
)
tokens = st.one_of(
    st.builds(ip_link, endpoints, endpoints),
    st.builds(LogicalLink, addresses, addresses, st.integers(-1, 3)),
)
pair_paths = st.lists(
    st.tuples(st.tuples(addresses, addresses), st.lists(tokens, max_size=6)),
    max_size=6,
)


def fresh_diagnosability(graph):
    links = list(graph)
    assert len(links) == len(graph)
    if not links:
        return 0.0
    return len({graph.traversed_by(token) for token in links}) / len(links)


def assert_memos_fresh(graph):
    projected = graph.physical_links()
    assert projected == undirected_projection(graph)
    assert graph.physical_links() is projected  # memoised
    assert diagnosability(graph) == fresh_diagnosability(graph)


@given(base_paths=pair_paths, own_paths=pair_paths, later_paths=pair_paths)
@settings(max_examples=200)
def test_graph_memos_equal_a_fresh_computation(
    base_paths, own_paths, later_paths
):
    """The memoised undirected projection and D(G) equal a fresh
    computation on a fresh graph, on a copy-on-write graph over it, and
    again after a further ``add_path`` to either kind."""
    base = InferredGraph()
    for pair, links in base_paths:
        base.add_path(pair, links)
    assert_memos_fresh(base)
    extended = InferredGraph(base=base)
    for pair, links in own_paths:
        extended.add_path(pair, links)
    assert_memos_fresh(extended)
    assert_memos_fresh(base)
    for pair, links in later_paths:
        extended.add_path(pair, links)
        assert_memos_fresh(extended)
    solo = InferredGraph()
    for pair, links in base_paths + later_paths:
        solo.add_path(pair, links)
        assert_memos_fresh(solo)


@st.composite
def random_tree(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    parent = {}
    for node in range(1, n):
        parent[node] = draw(st.integers(min_value=0, max_value=node - 1))
    leaves = [n for n in range(1, len(parent) + 1) if n not in parent.values()]
    if 0 not in parent.values():
        leaves.append(0)  # degenerate: root with no children handled below
    status = {leaf: draw(st.booleans()) for leaf in leaves if leaf != 0}
    return parent, status


@given(data=random_tree())
@settings(max_examples=80)
def test_scfs_blames_iff_bad_leaves_exist(data):
    parent, status = data
    if not status:
        return
    blamed = scfs(parent, 0, status)
    if all(status.values()):
        assert blamed == frozenset()
    else:
        assert blamed
    # Every blamed edge exists in the tree and points away from the root.
    for par, child in blamed:
        assert parent.get(child) == par


@given(
    src=addresses,
    dst=addresses,
    epoch=st.sampled_from(["pre", "post"]),
    index=st.integers(0, 30),
)
def test_uh_nodes_identity(src, dst, epoch, index):
    a = UhNode(src, dst, epoch, index)
    b = UhNode(src, dst, epoch, index)
    assert a == b and hash(a) == hash(b)
    other = UhNode(src, dst, "post" if epoch == "pre" else "pre", index)
    assert a != other
