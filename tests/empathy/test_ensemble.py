"""Ensemble verdict grading, the disagreement tally, and the registry."""

import pickle

import pytest

from repro.core.linkspace import physical_link
from repro.empathy import (
    VERDICT_AGREE,
    VERDICT_CONFLICT,
    VERDICT_PARTIAL,
    VERDICTS,
    EnsembleDiagnoser,
    EnsembleDisagreement,
    compare_hypotheses,
)
from repro.errors import DiagnosisError, EmpathyError

PL1 = physical_link("10.0.0.1", "10.0.0.2")
PL2 = physical_link("10.0.0.3", "10.0.0.4")
PL3 = physical_link("10.0.0.5", "10.0.0.6")


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


class TestCompareHypotheses:
    def test_identical_sets_agree(self):
        assert compare_hypotheses(frozenset({PL1}), frozenset({PL1})) == VERDICT_AGREE

    def test_both_empty_agree(self):
        assert compare_hypotheses(frozenset(), frozenset()) == VERDICT_AGREE

    def test_overlap_is_partial(self):
        assert (
            compare_hypotheses(frozenset({PL1, PL2}), frozenset({PL1, PL3}))
            == VERDICT_PARTIAL
        )

    def test_disjoint_is_conflict(self):
        assert compare_hypotheses(frozenset({PL1}), frozenset({PL2})) == VERDICT_CONFLICT

    def test_one_empty_is_conflict(self):
        assert compare_hypotheses(frozenset(), frozenset({PL1})) == VERDICT_CONFLICT


class TestEnsembleDisagreement:
    def test_record_and_rate(self):
        tally = EnsembleDisagreement()
        for verdict in ("agree", "agree", "partial", "conflict"):
            tally.record(verdict)
        assert tally.total == 4
        assert tally.agreement_rate() == pytest.approx(0.75)
        assert tally.as_dict() == {"agree": 2, "partial": 1, "conflict": 1}

    def test_empty_tally_rate_is_one(self):
        assert EnsembleDisagreement().agreement_rate() == 1.0

    def test_merge_sums_counters(self):
        a = EnsembleDisagreement(agree=1, partial=2)
        b = EnsembleDisagreement(conflict=3)
        a.merge(b)
        assert a.as_dict() == {"agree": 1, "partial": 2, "conflict": 3}

    def test_unknown_verdict_raises_typed_error(self):
        with pytest.raises(EmpathyError):
            EnsembleDisagreement().record("shrug")

    def test_verdicts_ordered_best_to_worst(self):
        assert VERDICTS == ("agree", "partial", "conflict")


class TestEnsembleDiagnoser:
    def test_fewer_than_two_members_rejected(self):
        from repro.empathy import EmpathyDiagnoser

        with pytest.raises(EmpathyError):
            EnsembleDiagnoser({"solo": EmpathyDiagnoser()})
        with pytest.raises(EmpathyError):
            EnsembleDiagnoser({})

    def test_default_members_and_poolability(self):
        ensemble = EnsembleDiagnoser()
        assert ensemble.variant == "ensemble"
        assert set(ensemble.members) == {"nd-edge", "empathy"}
        # The batch runner's worker pool ships diagnosers by pickle.
        revived = pickle.loads(pickle.dumps(ensemble))
        assert set(revived.members) == {"nd-edge", "empathy"}

    def test_requires_a_failure(self, fig2, fig2_sim, nominal):
        from repro.measurement.collector import take_snapshot
        from repro.measurement.sensors import deploy_sensors

        sensors = deploy_sensors(
            fig2.net, [fig2.sensor_routers[s] for s in ("s1", "s2")]
        )
        quiet = take_snapshot(fig2_sim, sensors, nominal, nominal)
        with pytest.raises(DiagnosisError):
            EnsembleDiagnoser().diagnose(quiet)

    def test_verdict_and_attribution_in_details(self, b1b2_snapshot):
        result = EnsembleDiagnoser().diagnose(b1b2_snapshot)
        ensemble = result.details["ensemble"]
        assert result.algorithm == "ensemble"
        assert ensemble["verdict"] in VERDICTS
        assert list(ensemble["pairwise"]) == ["nd-edge|empathy"]
        assert ensemble["pairwise"]["nd-edge|empathy"] == ensemble["verdict"]
        assert set(ensemble["members"]) == {"nd-edge", "empathy"}
        assert ensemble["errors"] == {}

    def test_hypothesis_is_the_member_union(self, b1b2_snapshot):
        from repro.core.diagnoser import NetDiagnoser
        from repro.empathy import EmpathyDiagnoser

        result = EnsembleDiagnoser().diagnose(b1b2_snapshot)
        nd = NetDiagnoser("nd-edge").diagnose(b1b2_snapshot)
        emp = EmpathyDiagnoser().diagnose(b1b2_snapshot)
        assert result.hypothesis == nd.hypothesis | emp.hypothesis

    def test_members_agree_on_figure2_single_failure(self, b1b2_snapshot):
        """Both families localize the b1-b2 cut — the verdict must at
        least overlap (no conflict on the textbook scenario)."""
        result = EnsembleDiagnoser().diagnose(b1b2_snapshot)
        assert result.details["ensemble"]["verdict"] != VERDICT_CONFLICT

    def test_failing_member_is_reported_not_fatal(self, b1b2_snapshot):
        from repro.empathy import EmpathyDiagnoser

        class Broken:
            variant = "broken"

            def diagnose(self, snapshot, control=None, lg_lookup=None):
                raise DiagnosisError("boom")

        ensemble = EnsembleDiagnoser(
            {"empathy": EmpathyDiagnoser(), "broken": Broken()}
        )
        result = ensemble.diagnose(b1b2_snapshot)
        assert result.details["ensemble"]["errors"] == {"broken": "boom"}
        assert result.details["ensemble"]["verdict"] == VERDICT_AGREE  # solo

    def test_all_members_failing_raises(self, b1b2_snapshot):
        class Broken:
            variant = "broken"

            def diagnose(self, snapshot, control=None, lg_lookup=None):
                raise DiagnosisError("boom")

        ensemble = EnsembleDiagnoser({"b1": Broken(), "b2": Broken()})
        with pytest.raises(DiagnosisError):
            ensemble.diagnose(b1b2_snapshot)

    def test_picklable_for_worker_pools(self, b1b2_snapshot):
        ensemble = pickle.loads(pickle.dumps(EnsembleDiagnoser()))
        direct = EnsembleDiagnoser().diagnose(b1b2_snapshot)
        revived = ensemble.diagnose(b1b2_snapshot)
        assert revived.hypothesis == direct.hypothesis
        assert revived.details == direct.details


class TestRegistry:
    def test_every_registered_name_constructs_a_diagnoser(self):
        from repro.core.protocol import Diagnoser
        from repro.diagnosers import DIAGNOSER_NAMES, make_diagnoser

        assert "scfs" in DIAGNOSER_NAMES
        assert "empathy" in DIAGNOSER_NAMES
        assert "ensemble" in DIAGNOSER_NAMES
        for name in DIAGNOSER_NAMES:
            engine = make_diagnoser(name)
            assert isinstance(engine, Diagnoser)
            assert engine.variant == name

    def test_unknown_name_raises_typed_error(self):
        from repro.diagnosers import make_diagnoser, make_diagnosers

        with pytest.raises(EmpathyError):
            make_diagnoser("quantum")
        with pytest.raises(EmpathyError):
            make_diagnosers(("nd-edge", "quantum"))

    def test_mapping_spec_forwards_options(self):
        from repro.diagnosers import make_diagnosers

        engines = make_diagnosers(
            {"nd-bgpigp": {"ignore_unidentified": True}, "empathy": None}
        )
        assert list(engines) == ["nd-bgpigp", "empathy"]
        assert engines["nd-bgpigp"].variant == "nd-bgpigp"
