"""Unit tests for the SCFS baseline (Duffield), including the paper's
Figure 1 example."""

import pytest

from repro.core.scfs import scfs
from repro.errors import DiagnosisError


@pytest.fixture
def figure1_tree():
    """The tree of Figure 1: paths from s1 towards s2 and s3.

    s1 - r6 - r7 - r9 - r11 - s2
                \\- r8 - r10 - s3   (shape, not exact router numbers)
    """
    parent = {
        "r6": "s1",
        "r7": "r6",
        "r9": "r7",
        "r11": "r9",
        "s2": "r11",
        "r8": "r7",
        "r10": "r8",
        "s3": "r10",
    }
    return parent


class TestScfs:
    def test_figure1_example(self, figure1_tree):
        """Failure of r9-r11 breaks s2 only; SCFS blames the highest link
        whose subtree is all-bad: r7-r9 (nearest the source below the
        branch point)."""
        blamed = scfs(figure1_tree, "s1", {"s2": False, "s3": True})
        assert blamed == frozenset({("r7", "r9")})

    def test_all_leaves_bad_blames_root_links(self, figure1_tree):
        blamed = scfs(figure1_tree, "s1", {"s2": False, "s3": False})
        assert blamed == frozenset({("s1", "r6")})

    def test_no_bad_leaves_blames_nothing(self, figure1_tree):
        assert scfs(figure1_tree, "s1", {"s2": True, "s3": True}) == frozenset()

    def test_two_independent_subtree_failures(self):
        parent = {"a": "root", "b": "root", "la": "a", "lb": "b"}
        blamed = scfs(parent, "root", {"la": False, "lb": False})
        # Both subtrees all-bad but the root still has... no good leaf:
        # everything bad -> blame the root's own links.
        assert blamed == frozenset({("root", "a"), ("root", "b")})

    def test_partial_subtree_failure_descends(self):
        parent = {"a": "root", "la1": "a", "la2": "a", "b": "root", "lb": "b"}
        blamed = scfs(parent, "root", {"la1": False, "la2": True, "lb": True})
        assert blamed == frozenset({("a", "la1")})

    def test_missing_leaf_status_raises(self, figure1_tree):
        with pytest.raises(DiagnosisError):
            scfs(figure1_tree, "s1", {"s2": False})

    def test_root_with_parent_rejected(self):
        with pytest.raises(DiagnosisError):
            scfs({"s1": "x"}, "s1", {"x": True})

    def test_single_leaf_tree(self):
        assert scfs({"leaf": "root"}, "root", {"leaf": False}) == frozenset(
            {("root", "leaf")}
        )
        assert scfs({"leaf": "root"}, "root", {"leaf": True}) == frozenset()


class TestScfsDiagnose:
    """The snapshot adapter and the facade's ``scfs`` variant."""

    @pytest.fixture
    def b1b2_snapshot(self, fig2, fig2_sim, nominal):
        from repro.measurement.collector import take_snapshot
        from repro.measurement.sensors import deploy_sensors
        from repro.netsim.events import LinkFailureEvent

        sensors = deploy_sensors(
            fig2.net, [fig2.sensor_routers[s] for s in ("s1", "s2", "s3")]
        )
        lid = fig2.link_between("b1", "b2").lid
        after = fig2_sim.apply(LinkFailureEvent((lid,)))
        return take_snapshot(fig2_sim, sensors, nominal, after)

    def test_facade_dispatches_scfs(self, b1b2_snapshot):
        from repro.core.diagnoser import VARIANTS, NetDiagnoser

        assert "scfs" in VARIANTS
        result = NetDiagnoser("scfs").diagnose(b1b2_snapshot)
        assert result.algorithm == "scfs"
        assert result.hypothesis  # the cut produced a non-empty blame set

    def test_matches_direct_adapter_call(self, b1b2_snapshot):
        from repro.core.diagnoser import NetDiagnoser
        from repro.core.scfs import scfs_diagnose

        via_facade = NetDiagnoser("scfs").diagnose(b1b2_snapshot)
        direct = scfs_diagnose(b1b2_snapshot)
        assert via_facade.hypothesis == direct.hypothesis
        # The adapter's own details must pass through the facade unchanged.
        for key, value in direct.details.items():
            assert via_facade.details[key] == value

    def test_details_surface_tree_inconsistencies(self, b1b2_snapshot):
        from repro.core.scfs import scfs_diagnose

        details = scfs_diagnose(b1b2_snapshot).details
        assert details["sources"] >= 1
        assert details["truncated_paths"] >= 0
        assert details["shadowed_leaves"] >= 0
