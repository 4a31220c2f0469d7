"""EmpathyDiagnoser end-to-end plus the Diagnoser protocol contract."""

import pickle

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.core.protocol import Diagnoser
from repro.empathy import EmpathyDiagnoser
from repro.errors import DiagnosisError


@pytest.fixture
def b1b2_snapshot(fig2, fig2_sim, nominal):
    from repro.measurement.collector import take_snapshot
    from repro.measurement.sensors import deploy_sensors
    from repro.netsim.events import LinkFailureEvent

    sensors = deploy_sensors(
        fig2.net, [fig2.sensor_routers[s] for s in ("s1", "s2", "s3")]
    )
    lid = fig2.link_between("b1", "b2").lid
    after = fig2_sim.apply(LinkFailureEvent((lid,)))
    return take_snapshot(fig2_sim, sensors, nominal, after)


class TestDiagnoserProtocol:
    @pytest.mark.parametrize(
        "instance",
        [
            EmpathyDiagnoser(),
            NetDiagnoser("nd-edge"),
            NetDiagnoser("scfs"),
            NetDiagnoser("tomo"),
        ],
        ids=lambda d: getattr(d, "variant", "?"),
    )
    def test_engines_satisfy_the_protocol(self, instance):
        assert isinstance(instance, Diagnoser)
        assert isinstance(instance.variant, str)

    def test_ensemble_satisfies_the_protocol(self):
        from repro.empathy import EnsembleDiagnoser

        assert isinstance(EnsembleDiagnoser(), Diagnoser)

    def test_non_diagnoser_rejected(self):
        assert not isinstance(object(), Diagnoser)


class TestEmpathyDiagnoser:
    def test_variant_and_poolability(self):
        engine = EmpathyDiagnoser()
        assert engine.variant == "empathy"
        # The batch runner's worker pool ships diagnosers by pickle.
        assert pickle.loads(pickle.dumps(engine)).variant == "empathy"

    def test_requires_a_failure(self, fig2, fig2_sim, nominal):
        from repro.measurement.collector import take_snapshot
        from repro.measurement.sensors import deploy_sensors

        sensors = deploy_sensors(
            fig2.net, [fig2.sensor_routers[s] for s in ("s1", "s2")]
        )
        quiet = take_snapshot(fig2_sim, sensors, nominal, nominal)
        with pytest.raises(DiagnosisError):
            EmpathyDiagnoser().diagnose(quiet)

    def test_localizes_the_failed_link(self, fig2, b1b2_snapshot):
        from repro.core.linkspace import physical_link

        link = fig2.link_between("b1", "b2")
        broken = physical_link(
            fig2.net.router(link.a).address, fig2.net.router(link.b).address
        )
        result = EmpathyDiagnoser().diagnose(b1b2_snapshot)
        assert result.algorithm == "empathy"
        assert broken in result.physical_hypothesis()
        assert result.fully_explained

    def test_working_paths_prune_the_segment(self, b1b2_snapshot):
        """Links seen alive on T+ working paths never survive into the
        hypothesis — the empathy twin of tomo's exoneration rule."""
        result = EmpathyDiagnoser().diagnose(b1b2_snapshot)
        alive = {
            link
            for pair in b1b2_snapshot.working_pairs()
            for link in b1b2_snapshot.after.get(pair).links()
        }
        assert not (set(result.hypothesis) & alive)
        assert not (set(result.hypothesis) & set(result.excluded))

    def test_details_carry_per_event_attribution(self, b1b2_snapshot):
        result = EmpathyDiagnoser().diagnose(b1b2_snapshot)
        empathy = result.details["empathy"]
        assert empathy["events"] >= 1
        assert empathy["failed_traces"] >= 1
        events = result.details["empathy_events"]
        assert len(events) == empathy["events"]
        for event in events:
            assert event["pairs"]
            assert event["segment_size"] == len(event["segment"])
            assert all("->" in pair for pair in event["pairs"])

    def test_picklable_for_worker_pools(self, b1b2_snapshot):
        engine = pickle.loads(pickle.dumps(EmpathyDiagnoser()))
        direct = EmpathyDiagnoser().diagnose(b1b2_snapshot)
        assert engine.diagnose(b1b2_snapshot).hypothesis == direct.hypothesis

    def test_diagnosis_is_deterministic(self, b1b2_snapshot):
        first = EmpathyDiagnoser().diagnose(b1b2_snapshot)
        second = EmpathyDiagnoser().diagnose(b1b2_snapshot)
        assert first.hypothesis == second.hypothesis
        assert first.excluded == second.excluded
        assert first.details == second.details
