"""Unit tests for the scaling sweep harness."""

import pytest

from repro.experiments import scaling
from repro.experiments.scaling import ScalePoint, render_scaling, scaling_sweep


class TestScalingSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return scaling_sweep(sizes=((4, 16), (8, 32)), failures=2, seed=1)

    def test_sizes_recorded(self, points):
        assert [(p.n_tier2, p.n_stub) for p in points] == [(4, 16), (8, 32)]
        assert points[0].n_ases == 23
        assert points[1].n_ases == 43

    def test_measurements_are_sane(self, points):
        for p in points:
            assert p.convergence_seconds >= 0.0
            assert p.mesh_seconds >= 0.0
            assert p.diagnosis_seconds > 0.0
            assert 0.0 < p.diagnosability <= 1.0
            assert 0.0 <= p.nd_edge_sensitivity <= 1.0
            assert 0.0 <= p.nd_edge_specificity <= 1.0

    def test_growth_monotone_in_structure(self, points):
        assert points[1].n_routers > points[0].n_routers
        assert points[1].n_links > points[0].n_links

    def test_render_table(self, points):
        table = render_scaling(points)
        lines = table.splitlines()
        assert len(lines) == 3  # header + two rows
        assert "ASes" in lines[0] and "bgpigp" in lines[0]
        assert "23" in lines[1]


def test_mesh_timing_walks_every_ordered_pair(monkeypatch):
    """The timed mesh makes one real walk per ordered sensor pair; the
    simulator's own walks, made while the sampler probed the mesh, do
    not stand in for it."""
    walks = []

    def counting_walk(*args, **kwargs):
        walks.append(args[3:5])
        return trace_route(*args, **kwargs)

    trace_route = scaling.trace_route
    monkeypatch.setattr(scaling, "trace_route", counting_walk)
    point = scaling._scale_point((4, 16), n_sensors=5, failures=1, seed=1)
    assert len(walks) == 5 * 4
    assert point.mesh_seconds > 0.0
