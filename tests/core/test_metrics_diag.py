"""Unit tests for metrics and diagnosability."""

import pytest

from repro.core.diagnosability import diagnosability, indistinguishable_classes
from repro.core.graph import InferredGraph
from repro.core.linkspace import (
    LogicalLink,
    UhNode,
    ip_link,
    physical_link,
)
from repro.core.metrics import (
    MetricPair,
    as_projection,
    physical_metrics,
    sensitivity,
    specificity,
)
from repro.core.pathset import EPOCH_PRE
from repro.errors import DiagnosisError


class TestSensitivitySpecificity:
    def test_paper_example_numbers(self):
        """§4: |E|=150, |F|=1, |H|=10 -> specificity 140/149."""
        universe = frozenset(range(150))
        truth = frozenset({0})
        hypothesis = frozenset(range(10))
        assert specificity(universe, truth, hypothesis) == pytest.approx(140 / 149)
        assert sensitivity(truth, hypothesis) == 1.0

    def test_sensitivity_counts_true_positives(self):
        assert sensitivity(frozenset({1, 2}), frozenset({2, 9})) == 0.5
        assert sensitivity(frozenset({1}), frozenset()) == 0.0

    def test_empty_truth_rejected(self):
        with pytest.raises(DiagnosisError):
            sensitivity(frozenset(), frozenset({1}))

    def test_specificity_with_no_negatives(self):
        assert specificity(frozenset({1}), frozenset({1}), frozenset()) == 1.0

    def test_metric_pair_accessors(self):
        pair = MetricPair(0.25, 0.75)
        assert pair.sensitivity == 0.25
        assert pair.specificity == 0.75
        assert tuple(pair) == (0.25, 0.75)

    def test_physical_metrics_projects_hypothesis(self):
        truth = frozenset({physical_link("1.1.1.1", "2.2.2.2")})
        universe = truth | {physical_link("3.3.3.3", "4.4.4.4")}
        hypothesis_tokens = [LogicalLink("2.2.2.2", "1.1.1.1", tag=7)]
        pair = physical_metrics(universe, truth, hypothesis_tokens)
        assert pair.sensitivity == 1.0
        assert pair.specificity == 1.0


class TestAsProjection:
    ASN = {"10.0.16.1": 1, "10.0.32.1": 2}.get

    def test_identified_endpoints_map_through(self):
        tokens = [ip_link("10.0.16.1", "10.0.32.1")]
        assert as_projection(tokens, self.ASN) == frozenset({1, 2})

    def test_logical_links_project_their_endpoints(self):
        tokens = [LogicalLink("10.0.16.1", "10.0.32.1", tag=9)]
        assert as_projection(tokens, self.ASN) == frozenset({1, 2})

    def test_uh_endpoints_use_tags(self):
        uh = UhNode("s", "d", EPOCH_PRE, 3)
        tokens = [ip_link("10.0.16.1", uh)]
        assert as_projection(tokens, self.ASN, {uh: frozenset({5, 6})}) == (
            frozenset({1, 5, 6})
        )

    def test_unknown_pieces_contribute_nothing(self):
        uh = UhNode("s", "d", EPOCH_PRE, 3)
        tokens = [ip_link("9.9.9.9", uh)]
        assert as_projection(tokens, self.ASN) == frozenset()


class TestDiagnosability:
    def test_perfectly_diagnosable_graph(self):
        graph = InferredGraph()
        graph.add_path(("a", "b"), [ip_link("1.1.1.1", "2.2.2.2")])
        graph.add_path(("a", "c"), [ip_link("1.1.1.1", "3.3.3.3")])
        assert diagnosability(graph) == 1.0

    def test_shared_segment_halves_diagnosability(self):
        shared = [ip_link("1.1.1.1", "2.2.2.2"), ip_link("2.2.2.2", "3.3.3.3")]
        graph = InferredGraph()
        graph.add_path(("a", "b"), shared)
        assert diagnosability(graph) == 0.5  # 1 distinct hitting set, 2 links

    def test_empty_graph_is_zero(self):
        assert diagnosability(InferredGraph()) == 0.0

    def test_indistinguishable_classes_sorted_by_size(self):
        graph = InferredGraph()
        graph.add_path(
            ("a", "b"),
            [
                ip_link("1.1.1.1", "2.2.2.2"),
                ip_link("2.2.2.2", "3.3.3.3"),
                ip_link("3.3.3.3", "4.4.4.4"),
            ],
        )
        graph.add_path(("a", "c"), [ip_link("1.1.1.1", "2.2.2.2")])
        classes = indistinguishable_classes(graph)
        assert len(classes[0]) == 2  # the two links only (a,b) crosses
        assert len(classes[1]) == 1

