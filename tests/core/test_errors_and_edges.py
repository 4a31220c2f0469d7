"""Edge cases and error-path coverage across small modules."""

import pickle

import pytest

from repro import errors
from repro.errors import (
    AddressingError,
    ConvergenceError,
    DiagnosisError,
    MeasurementError,
    ReproError,
    RoutingError,
    ScenarioError,
    TopologyError,
)


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            TopologyError,
            AddressingError,
            RoutingError,
            ConvergenceError,
            MeasurementError,
            DiagnosisError,
            ScenarioError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_convergence_is_a_routing_error(self):
        assert issubclass(ConvergenceError, RoutingError)

    @pytest.mark.parametrize("name", errors.__all__)
    def test_survives_pickling(self, name):
        """A process pool pickles the error a worker raises: the parent
        must get the same type, message and fields back."""
        if name == "ValidationError":
            error = errors.ValidationError(
                "trace-loop", "probe 10.0.0.1->10.0.9.2 [post]", "hop 3"
            )
        elif name == "EpisodeOverflowError":
            error = errors.EpisodeOverflowError("queue full", shard=1)
        else:
            error = getattr(errors, name)("boom")
        restored = pickle.loads(pickle.dumps(error))
        assert type(restored) is type(error)
        assert str(restored) == str(error)
        assert vars(restored) == vars(error)


class TestEdgeInputsHelpers:
    def test_cluster_of_handles_missing_map(self):
        from repro.core.graph import InferredGraph
        from repro.core.linkspace import ip_link
        from repro.core.nd_edge import EdgeInputs

        inputs = EdgeInputs(
            failure_sets={},
            working_excluded=frozenset(),
            reroute_map={},
            graph=InferredGraph(),
            logical_clusters=None,
        )
        assert inputs.cluster_of(ip_link("1.1.1.1", "2.2.2.2")) == frozenset()
        assert inputs.excluded() == frozenset()


class TestMultipathEdges:
    def test_enumerate_rejects_bad_cap(self, fig2, fig2_sim, nominal):
        from repro.errors import RoutingError as RErr
        from repro.netsim.multipath import enumerate_data_paths

        with pytest.raises(RErr):
            enumerate_data_paths(
                fig2.net,
                fig2_sim.routing(nominal),
                nominal,
                fig2.sensor_routers["s1"],
                fig2.sensor_routers["s2"],
                max_paths=0,
            )

    def test_single_path_world_yields_the_data_path(self, fig2, fig2_sim, nominal):
        from repro.netsim.forwarding import data_path
        from repro.netsim.multipath import enumerate_data_paths

        src = fig2.sensor_routers["s1"]
        dst = fig2.sensor_routers["s2"]
        routing = fig2_sim.routing(nominal)
        paths = enumerate_data_paths(fig2.net, routing, nominal, src, dst)
        assert len(paths) == 1
        assert paths[0] == data_path(fig2.net, routing, nominal, src, dst).router_path

    def test_dead_endpoint_yields_empty(self, fig2, fig2_sim):
        from repro.netsim.multipath import enumerate_data_paths
        from repro.netsim.topology import NetworkState

        src = fig2.sensor_routers["s1"]
        dst = fig2.sensor_routers["s2"]
        state = NetworkState.nominal().with_failed_routers([src])
        assert (
            enumerate_data_paths(
                fig2.net, fig2_sim.routing(state), state, src, dst
            )
            == []
        )


class TestDiagnoserConfig:
    def test_weights_forwarded_to_algorithms(self, fig2, fig2_sim, nominal):
        from repro.core.diagnoser import NetDiagnoser
        from repro.measurement.collector import take_snapshot
        from repro.measurement.sensors import deploy_sensors
        from repro.netsim.events import LinkFailureEvent

        sensors = deploy_sensors(
            fig2.net, [fig2.sensor_routers[s] for s in ("s1", "s2", "s3")]
        )
        lid = fig2.link_between("b1", "b2").lid
        after = fig2_sim.apply(LinkFailureEvent((lid,)))
        snap = take_snapshot(fig2_sim, sensors, nominal, after)
        default = NetDiagnoser("nd-edge").diagnose(snap)
        reweighted = NetDiagnoser("nd-edge", reroute_weight=0).diagnose(snap)
        # Both are valid diagnoses of the same snapshot.
        assert default.algorithm == reweighted.algorithm == "nd-edge"
        assert default.fully_explained and reweighted.fully_explained

    def test_variants_tuple_is_stable_api(self):
        from repro.core.diagnoser import VARIANTS

        assert VARIANTS == ("scfs", "tomo", "nd-edge", "nd-bgpigp", "nd-lg")


class TestVersionExport:
    def test_package_version(self):
        import repro

        assert repro.__version__ == "1.0.0"
        assert "NetDiagnoser" in (repro.__doc__ or "")
