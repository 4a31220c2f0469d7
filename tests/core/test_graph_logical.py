"""Unit tests for the inferred graph and the logical-link expansion."""

import pytest

from repro.core.graph import InferredGraph
from repro.core.linkspace import (
    ORIGIN_TAG,
    UNKNOWN_TAG,
    LogicalLink,
    UhNode,
    ip_link,
)
from repro.core.logical import logicalize
from repro.core.pathset import EPOCH_PRE, ProbePath

ASN_OF = {
    "10.0.16.1": 1,
    "10.0.16.2": 1,
    "10.0.32.1": 2,
    "10.0.32.2": 2,
    "10.0.48.1": 3,
    "10.0.48.99": 3,  # sensor host in AS 3
    "10.0.16.99": 1,  # sensor host in AS 1
}.get


def make_path(hops, reached=True):
    return ProbePath(src=hops[0], dst=hops[-1] if reached else "10.0.48.99",
                     hops=tuple(hops), reached=reached, epoch=EPOCH_PRE)


class TestLogicalize:
    def test_intradomain_pairs_stay_physical(self):
        p = make_path(["10.0.16.99", "10.0.16.1", "10.0.16.2"])
        # sensor->router and router->router inside AS 1
        assert logicalize(p, ASN_OF) == (
            ip_link("10.0.16.99", "10.0.16.1"),
            ip_link("10.0.16.1", "10.0.16.2"),
        )

    def test_interdomain_pair_gets_next_as_tag(self):
        p = make_path(
            ["10.0.16.99", "10.0.16.1", "10.0.32.1", "10.0.48.1", "10.0.48.99"]
        )
        tokens = logicalize(p, ASN_OF)
        assert tokens[1] == LogicalLink("10.0.16.1", "10.0.32.1", tag=3)
        assert tokens[2] == LogicalLink("10.0.32.1", "10.0.48.1", tag=ORIGIN_TAG)

    def test_terminal_tag_is_unknown_for_truncated_traces(self):
        p = make_path(["10.0.16.99", "10.0.16.1", "10.0.32.1"], reached=False)
        tokens = logicalize(p, ASN_OF)
        assert tokens[1] == LogicalLink("10.0.16.1", "10.0.32.1", tag=UNKNOWN_TAG)

    def test_uh_interrupts_tagging(self):
        uh = UhNode("10.0.16.99", "10.0.48.99", EPOCH_PRE, 3)
        p = ProbePath(
            src="10.0.16.99",
            dst="10.0.48.99",
            hops=("10.0.16.99", "10.0.16.1", "10.0.32.1", uh, "10.0.48.99"),
            reached=True,
        )
        tokens = logicalize(p, ASN_OF)
        # The scan for the AS after AS2 hits the star: tag unknown.
        assert tokens[1] == LogicalLink("10.0.16.1", "10.0.32.1", tag=UNKNOWN_TAG)
        # Links touching the star stay physical.
        assert tokens[2] == ip_link("10.0.32.1", uh)
        assert tokens[3] == ip_link(uh, "10.0.48.99")

    def test_unmappable_address_stays_physical(self):
        p = make_path(["10.0.16.99", "10.0.16.1", "192.168.0.1", "10.0.48.99"])
        tokens = logicalize(p, lambda a: ASN_OF(a))
        assert tokens[1] == ip_link("10.0.16.1", "192.168.0.1")

    def test_same_as_run_skipped_when_scanning(self):
        """The out-neighbour scan skips hops inside the far AS itself."""
        p = make_path(
            ["10.0.16.99", "10.0.16.1", "10.0.32.1", "10.0.32.2", "10.0.48.1",
             "10.0.48.99"]
        )
        tokens = logicalize(p, ASN_OF)
        assert tokens[1] == LogicalLink("10.0.16.1", "10.0.32.1", tag=3)
        assert tokens[2] == ip_link("10.0.32.1", "10.0.32.2")


class TestInferredGraph:
    def test_from_paths_records_traversals(self):
        p1 = make_path(["10.0.16.99", "10.0.16.1", "10.0.16.2"])
        p2 = ProbePath(
            src="10.0.16.2",
            dst="10.0.16.99",
            hops=("10.0.16.2", "10.0.16.1", "10.0.16.99"),
            reached=True,
        )
        graph = InferredGraph.from_paths([p1, p2])
        assert len(graph) == 4  # two directed links per direction
        token = ip_link("10.0.16.1", "10.0.16.2")
        assert graph.traversed_by(token) == frozenset({p1.pair})
        assert graph.traversed_by(ip_link("10.0.16.2", "10.0.16.1")) == frozenset(
            {p2.pair}
        )

    def test_contains_and_tokens_sorted(self):
        p = make_path(["10.0.16.99", "10.0.16.1", "10.0.16.2"])
        graph = InferredGraph.from_paths([p])
        assert ip_link("10.0.16.99", "10.0.16.1") in graph
        assert ip_link("10.0.16.1", "10.0.16.99") not in graph
        assert list(graph.tokens()) == sorted(
            graph.tokens(), key=lambda t: __import__(
                "repro.core.linkspace", fromlist=["sort_key"]
            ).sort_key(t)
        )

    def test_merge_unions_traversals(self):
        p1 = make_path(["10.0.16.99", "10.0.16.1", "10.0.16.2"])
        p2 = ProbePath(
            src="10.0.16.99",
            dst="10.0.16.2",
            hops=("10.0.16.99", "10.0.16.1", "10.0.16.2"),
            reached=True,
        )
        g1 = InferredGraph.from_paths([p1])
        g2 = InferredGraph.from_paths([p2])
        merged = g1.merge(g2)
        token = ip_link("10.0.16.1", "10.0.16.2")
        assert merged.traversed_by(token) == frozenset({p1.pair, p2.pair})

    def test_extension_copies_on_write(self):
        p1 = make_path(["10.0.16.99", "10.0.16.1", "10.0.16.2"])
        p2 = make_path(["10.0.16.98", "10.0.16.1", "10.0.16.2"])
        base = InferredGraph.from_paths([p1])
        extended = InferredGraph(base=base)
        extended.add_path(p1.pair, p1.links())  # already in the base
        extended.add_path(p2.pair, p2.links())
        shared = ip_link("10.0.16.1", "10.0.16.2")
        assert base.traversed_by(shared) == frozenset({p1.pair})
        assert len(base) == 2
        assert extended.traversed_by(shared) == frozenset({p1.pair, p2.pair})
        assert ip_link("10.0.16.98", "10.0.16.1") in extended
        assert ip_link("10.0.16.98", "10.0.16.1") not in base
        union = base.merge(InferredGraph.from_paths([p2]))
        assert len(extended) == len(union) == 3
        assert set(extended) == set(union)
        assert extended.tokens() == union.tokens()
        assert extended.hitting_sets() == union.hitting_sets()

    def test_logical_graph_contains_tagged_tokens(self):
        p = make_path(
            ["10.0.16.99", "10.0.16.1", "10.0.32.1", "10.0.48.1", "10.0.48.99"]
        )
        graph = InferredGraph.from_logical_paths([p], ASN_OF)
        assert LogicalLink("10.0.16.1", "10.0.32.1", tag=3) in graph

    def test_hitting_sets_align_with_tokens(self):
        p = make_path(["10.0.16.99", "10.0.16.1", "10.0.16.2"])
        graph = InferredGraph.from_paths([p])
        assert len(graph.hitting_sets()) == len(graph)
        assert all(hs == frozenset({p.pair}) for hs in graph.hitting_sets())
