"""Unit tests for the AS-X-side collector (snapshots, control, LG glue)."""

import pytest

from repro.core.pathset import EPOCH_POST, EPOCH_PRE
from repro.errors import MeasurementError
from repro.measurement.collector import (
    collect_control_plane,
    make_lg_lookup,
    take_snapshot,
)
from repro.faults import FaultConfig, FaultPlan
from repro.measurement.probing import probe_mesh
from repro.measurement.sensors import deploy_sensors
from repro.netsim.events import LinkFailureEvent
from repro.netsim.lookingglass import LookingGlassService


@pytest.fixture
def setup(fig2, fig2_sim):
    sensors = deploy_sensors(
        fig2.net, [fig2.sensor_routers[s] for s in ("s1", "s2", "s3")]
    )
    return fig2, fig2_sim, sensors


class TestTakeSnapshot:
    def test_snapshot_epochs_and_asn_mapping(self, setup, nominal):
        fig, sim, sensors = setup
        lid = fig.link_between("b1", "b2").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        snap = take_snapshot(sim, sensors, nominal, after)
        assert all(p.epoch == EPOCH_PRE for p in snap.before.paths())
        assert all(p.epoch == EPOCH_POST for p in snap.after.paths())
        assert snap.asn_of(fig.router("y1").address) == fig.asn("Y")
        assert snap.failed_pairs()

    def test_nominal_after_state_has_no_failures(self, setup, nominal):
        _fig, sim, sensors = setup
        snap = take_snapshot(sim, sensors, nominal, nominal)
        assert not snap.any_failure()
        assert snap.rerouted_pairs() == ()

    def test_a_reused_baseline_is_the_t_minus_round(self, setup, nominal):
        fig, sim, sensors = setup
        after = sim.apply(LinkFailureEvent((fig.link_between("b1", "b2").lid,)))
        fresh = take_snapshot(sim, sensors, nominal, after)
        reused = take_snapshot(sim, sensors, nominal, after, baseline=fresh.before)
        assert reused.before is fresh.before
        assert reused.failed_pairs() == fresh.failed_pairs()
        assert reused.changed_pairs() == fresh.changed_pairs()

    def test_a_reused_baseline_cannot_be_faulted_or_screened(
        self, setup, nominal
    ):
        from repro.validate import Validator

        _fig, sim, sensors = setup
        baseline = take_snapshot(sim, sensors, nominal, nominal).before
        plan = FaultPlan(0, FaultConfig(trace_drop_rate=0.5))
        with pytest.raises(MeasurementError):
            take_snapshot(
                sim, sensors, nominal, nominal, faults=plan, baseline=baseline
            )
        with pytest.raises(MeasurementError):
            take_snapshot(
                sim, sensors, nominal, nominal,
                validator=Validator("strict"), baseline=baseline,
            )


    def test_a_reused_t_plus_round_probes_only_touched_pairs(
        self, setup, nominal
    ):
        fig, sim, sensors = setup
        after = sim.apply(LinkFailureEvent((fig.link_between("b1", "b2").lid,)))
        fresh = take_snapshot(sim, sensors, nominal, after)
        post = probe_mesh(sim, sensors, nominal, epoch=EPOCH_POST)
        reused = take_snapshot(
            sim, sensors, nominal, after, baseline=fresh.before, baseline_post=post
        )
        touched = sim.touched_walks(after)
        for src in sensors:
            for dst in sensors:
                if src is dst:
                    continue
                pair = (src.address, dst.address)
                assert reused.after.get(pair) == fresh.after.get(pair)
                if (src.router_id, dst.router_id, ()) not in touched:
                    assert reused.after.get(pair) is post.get(pair)
        assert touched and reused.failed_pairs() == fresh.failed_pairs()
        assert reused.rerouted_pairs() == fresh.rerouted_pairs()

    def test_a_reused_t_plus_round_needs_the_pinned_baseline(
        self, setup, nominal
    ):
        fig, sim, sensors = setup
        lid = fig.link_between("b1", "b2").lid
        before = sim.apply(LinkFailureEvent((lid,)))
        baseline = take_snapshot(sim, sensors, nominal, nominal).before
        post = probe_mesh(sim, sensors, nominal, epoch=EPOCH_POST)
        with pytest.raises(MeasurementError):
            take_snapshot(
                sim, sensors, before, nominal,
                baseline=baseline, baseline_post=post,
            )
        with pytest.raises(MeasurementError):
            probe_mesh(
                sim, sensors, before, epoch=EPOCH_POST,
                faults=FaultPlan(0, FaultConfig(trace_drop_rate=0.5)),
                untouched=post,
            )


class TestControlPlaneCollection:
    def test_igp_observation_addresses(self, setup, nominal):
        fig, sim, sensors = setup
        lid = fig.link_between("y1", "y4").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        view = collect_control_plane(sim, fig.asn("Y"), nominal, after)
        assert view.asx_asn == fig.asn("Y")
        assert len(view.igp_link_down) == 1
        observed = view.igp_link_down[0]
        assert {observed.address_a, observed.address_b} == {
            fig.router("y1").address,
            fig.router("y4").address,
        }

    def test_withdrawal_observation_addresses(self, setup, nominal):
        fig, sim, sensors = setup
        lid = fig.link_between("y4", "b1").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        view = collect_control_plane(sim, fig.asn("X"), nominal, after)
        assert len(view.withdrawals) == 1
        w = view.withdrawals[0]
        assert w.at_address == fig.router("x2").address
        assert w.from_address == fig.router("y1").address
        assert w.from_asn == fig.asn("Y")
        assert w.covers(sensors[1].address)


class TestLgLookup:
    def test_lookup_uses_matching_epoch(self, setup, nominal):
        fig, sim, sensors = setup
        lid = fig.link_between("y4", "b1").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        lg = LookingGlassService.everywhere(fig.net)
        lookup = make_lg_lookup(sim, lg, nominal, after)
        dst = sensors[1].address  # sensor in B
        assert lookup(fig.asn("A"), dst, "pre") == (
            fig.asn("A"),
            fig.asn("X"),
            fig.asn("Y"),
            fig.asn("B"),
        )
        assert lookup(fig.asn("A"), dst, "post") is None  # route is gone

    def test_asx_bypasses_lg_availability(self, setup, nominal):
        fig, sim, sensors = setup
        lg = LookingGlassService(fig.net, [])  # nobody runs an LG
        lookup = make_lg_lookup(sim, lg, nominal, nominal, asx=fig.asn("X"))
        dst = sensors[1].address
        assert lookup(fig.asn("X"), dst, "pre") is not None
        assert lookup(fig.asn("A"), dst, "pre") is None

    def test_unknown_epoch_rejected(self, setup, nominal):
        fig, sim, sensors = setup
        lg = LookingGlassService.everywhere(fig.net)
        lookup = make_lg_lookup(sim, lg, nominal, nominal)
        with pytest.raises(MeasurementError):
            lookup(fig.asn("A"), sensors[1].address, "yesterday")

    def test_unknown_destination_returns_none(self, setup, nominal):
        fig, sim, _sensors = setup
        lg = LookingGlassService.everywhere(fig.net)
        lookup = make_lg_lookup(sim, lg, nominal, nominal)
        assert lookup(fig.asn("A"), "192.168.1.1", "pre") is None


class TestCorruptionSeams:
    """The collector-level corruption seams and the all-masked edge case."""

    def test_stale_replay_reuses_the_pre_round_path(self, setup, nominal):
        from repro.faults import DegradationReport, FaultConfig, FaultPlan

        fig, sim, sensors = setup
        lid = fig.link_between("b1", "b2").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        plan = FaultPlan(11, FaultConfig(stale_replay_rate=1.0))
        report = DegradationReport()
        snap = take_snapshot(
            sim, sensors, nominal, after, faults=plan, report=report
        )
        assert report.stale_replays == len(list(snap.after.pairs()))
        # The replayed records keep their T- epoch tag — the lie the
        # trace-epoch invariant exists to catch.
        assert all(p.epoch == EPOCH_PRE for p in snap.after.paths())
        assert not snap.any_failure()  # the lie hides the failure

    def test_validator_quarantines_every_stale_replay(self, setup, nominal):
        from repro.faults import DegradationReport, FaultConfig, FaultPlan
        from repro.validate import Validator

        fig, sim, sensors = setup
        lid = fig.link_between("b1", "b2").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        plan = FaultPlan(11, FaultConfig(stale_replay_rate=1.0))
        report = DegradationReport()
        validator = Validator("quarantine", degradation=report)
        snap = take_snapshot(
            sim, sensors, nominal, after,
            faults=plan, report=report, validator=validator,
        )
        assert report.stale_rounds_dropped == report.stale_replays > 0
        # Every after-round record was a replay, so nothing survives.
        assert list(snap.before.pairs()) == []
        assert list(snap.after.pairs()) == []
        assert not snap.any_failure()

    def test_feed_corruption_counts_and_screening(self, setup, nominal):
        from repro.faults import DegradationReport, FaultConfig, FaultPlan
        from repro.validate import Validator

        fig, sim, sensors = setup
        lid = fig.link_between("x1", "x2").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        plan = FaultPlan(13, FaultConfig(feed_duplicate_rate=1.0))
        report = DegradationReport()
        validator = Validator("quarantine", degradation=report)
        view = collect_control_plane(
            sim, fig.asn("X"), nominal, after,
            faults=plan, report=report, validator=validator,
        )
        assert report.feed_messages_duplicated > 0
        assert report.feed_messages_quarantined == report.feed_messages_duplicated
        # After screening the stream is duplicate-free again.
        assert len(set(view.igp_link_down)) == len(view.igp_link_down)

    def test_total_probe_loss_yields_a_valid_empty_snapshot(
        self, setup, nominal
    ):
        from repro.faults import DegradationReport, FaultConfig, FaultPlan

        fig, sim, sensors = setup
        lid = fig.link_between("b1", "b2").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        plan = FaultPlan(5, FaultConfig(trace_drop_rate=1.0))
        report = DegradationReport()
        snap = take_snapshot(
            sim, sensors, nominal, after, faults=plan, report=report
        )
        assert list(snap.before.pairs()) == []
        assert not snap.any_failure()
        assert snap.failed_pairs() == ()
