"""Tests for ND-bgpigp: IGP preseeding and withdrawal pruning (§3.3)."""

import pytest

from repro.core.control_plane import (
    ControlPlaneView,
    IgpLinkDownObservation,
    WithdrawalObservation,
)
from repro.core.diagnoser import NetDiagnoser
from repro.core.linkspace import LogicalLink, ip_link, physical_link
from repro.measurement.collector import collect_control_plane, take_snapshot
from repro.measurement.sensors import deploy_sensors
from repro.netsim.events import LinkFailureEvent, MisconfigurationEvent
from repro.netsim.topology import ExportFilter


@pytest.fixture
def fig2_setup(fig2, fig2_sim):
    sensors = deploy_sensors(
        fig2.net, [fig2.sensor_routers[s] for s in ("s1", "s2", "s3")]
    )
    return fig2, fig2_sim, sensors


def addr(fig, name):
    return fig.router(name).address


class TestIgpPreseed:
    def test_asx_internal_failure_is_pinned_exactly(self, fig2_setup, nominal):
        """With AS-X = Y and internal Y links down (partitioning Y), the
        IGP messages put the probed failed link straight into H."""
        fig, sim, sensors = fig2_setup
        lids = (
            fig.link_between("y1", "y4").lid,
            fig.link_between("y2", "y3").lid,
        )
        after = sim.apply(LinkFailureEvent(tuple(sorted(lids))))
        snap = take_snapshot(sim, sensors, nominal, after)
        assert snap.any_failure(), "partitioning Y must break transit"
        control = collect_control_plane(sim, fig.asn("Y"), nominal, after)
        assert len(control.igp_link_down) == 2
        result = NetDiagnoser("nd-bgpigp").diagnose(snap, control=control)
        truth = physical_link(addr(fig, "y1"), addr(fig, "y4"))
        assert truth in result.physical_hypothesis()
        assert result.details["igp_preseeded"] >= 1
        # The unprobed y2-y3 link stays out of H even though it is down.
        assert physical_link(addr(fig, "y2"), addr(fig, "y3")) not in (
            result.physical_hypothesis()
        )

    def test_preseed_requires_probed_link(self, fig2_setup, nominal):
        """An IGP-down link no probe crossed must not enter H."""
        fig, sim, sensors = fig2_setup
        lid = fig.link_between("b1", "b2").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        snap = take_snapshot(sim, sensors, nominal, after)
        control = ControlPlaneView(
            asx_asn=fig.asn("Y"),
            igp_link_down=(
                IgpLinkDownObservation(addr(fig, "y2"), addr(fig, "y3")),
            ),
        )
        result = NetDiagnoser("nd-bgpigp").diagnose(snap, control=control)
        assert physical_link(addr(fig, "y2"), addr(fig, "y3")) not in (
            result.physical_hypothesis()
        )


class TestWithdrawalPruning:
    def test_upstream_links_pruned_from_failed_sets(self, fig2_setup, nominal):
        """y4-b1 dies; AS-X = X hears Y withdraw B's prefix, so the s1->s2
        failure evidence shrinks to the segment beyond the X-Y session."""
        fig, sim, sensors = fig2_setup
        lid = fig.link_between("y4", "b1").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        snap = take_snapshot(sim, sensors, nominal, after)
        control = collect_control_plane(sim, fig.asn("X"), nominal, after)
        assert control.withdrawals  # X heard the withdrawal from Y
        with_cp = NetDiagnoser("nd-bgpigp").diagnose(snap, control=control)
        without_cp = NetDiagnoser("nd-edge").diagnose(snap)
        # Upstream-of-session links must not be blamed once pruned.
        upstream = physical_link(addr(fig, "a2"), addr(fig, "x1"))
        assert upstream not in with_cp.physical_hypothesis()
        assert with_cp.details["withdrawal_exonerated"] > 0
        # Sensitivity is preserved: the true link stays blamed.
        truth = physical_link(addr(fig, "y4"), addr(fig, "b1"))
        assert truth in with_cp.physical_hypothesis()
        assert truth in without_cp.physical_hypothesis()
        # And the control plane never *adds* false positives.
        assert len(with_cp.physical_hypothesis()) <= len(
            without_cp.physical_hypothesis()
        )

    def test_misconfigured_session_token_survives_pruning(
        self, fig2_setup, nominal
    ):
        """A misconfiguration at AS-X's own session looks like a withdrawal;
        the session's logical token must not be pruned away (module
        docstring of nd_bgpigp)."""
        fig, sim, sensors = fig2_setup
        link = fig.link_between("x2", "y1")
        prefix_c = fig.net.autonomous_system(fig.asn("C")).prefix
        after = sim.apply(
            MisconfigurationEvent(
                ExportFilter(
                    link_id=link.lid,
                    at_router=fig.router("y1").rid,
                    prefixes=frozenset({prefix_c}),
                )
            )
        )
        snap = take_snapshot(sim, sensors, nominal, after)
        control = collect_control_plane(sim, fig.asn("X"), nominal, after)
        assert control.withdrawals, "the filter must look like a withdrawal"
        result = NetDiagnoser("nd-bgpigp").diagnose(snap, control=control)
        assert (
            LogicalLink(addr(fig, "x2"), addr(fig, "y1"), tag=fig.asn("C"))
            in result.hypothesis
        )

    def test_withdrawal_for_unrelated_prefix_is_inert(self, fig2_setup, nominal):
        fig, sim, sensors = fig2_setup
        lid = fig.link_between("b1", "b2").lid
        after = sim.apply(LinkFailureEvent((lid,)))
        snap = take_snapshot(sim, sensors, nominal, after)
        bogus = ControlPlaneView(
            asx_asn=fig.asn("X"),
            withdrawals=(
                WithdrawalObservation(
                    prefix=fig.net.autonomous_system(fig.asn("C")).prefix,
                    at_address=addr(fig, "x2"),
                    from_address=addr(fig, "y1"),
                    from_asn=fig.asn("Y"),
                ),
            ),
        )
        with_bogus = NetDiagnoser("nd-bgpigp").diagnose(snap, control=bogus)
        plain = NetDiagnoser("nd-edge").diagnose(snap)
        assert with_bogus.physical_hypothesis() == plain.physical_hypothesis()


class TestControlPlaneTypes:
    def test_withdrawal_covers(self):
        w = WithdrawalObservation(
            prefix="10.0.64.0/20",
            at_address="10.0.32.2",
            from_address="10.0.48.1",
            from_asn=3,
        )
        assert w.covers("10.0.79.254")
        assert not w.covers("10.0.16.1")

    def test_withdrawal_covers_boundary_addresses(self):
        """Parsed once per string, the answers stay those of a fresh
        ``ip_address(address) in ip_network(prefix)`` at every boundary,
        and a malformed prefix or address raises ValueError every time."""
        import ipaddress

        def make(prefix):
            return WithdrawalObservation(
                prefix=prefix,
                at_address="10.0.32.2",
                from_address="10.0.48.1",
                from_asn=3,
            )

        cases = {
            "10.0.64.0/20": (
                "10.0.63.255", "10.0.64.0", "10.0.79.255", "10.0.80.0",
            ),
            "10.0.0.0/32": ("10.0.0.0", "10.0.0.1", "9.255.255.255"),
            "0.0.0.0/0": ("0.0.0.0", "255.255.255.255"),
            "2001:db8::/127": ("2001:db8::", "2001:db8::1", "2001:db8::2"),
        }
        for prefix, addresses in cases.items():
            network = ipaddress.ip_network(prefix)
            for address in addresses * 2:  # the second pass hits the cache
                want = ipaddress.ip_address(address) in network
                assert make(prefix).covers(address) is want, (prefix, address)
        edges = [make("10.0.64.0/20").covers(a) for a in cases["10.0.64.0/20"]]
        assert edges == [False, True, True, False]
        # An IPv4 address is never inside an IPv6 prefix, and vice versa.
        assert not make("::/0").covers("10.0.0.1")
        assert not make("0.0.0.0/0").covers("::1")
        for _ in range(2):
            with pytest.raises(ValueError):
                make("10.0.64.1/20").covers("10.0.64.1")  # host bits set
            with pytest.raises(ValueError):
                make("10.0.64.0/20").covers("10.0.64.256")
            with pytest.raises(ValueError):
                make("not-a-prefix").covers("10.0.64.1")

    def test_view_emptiness(self):
        assert ControlPlaneView(asx_asn=1).is_empty()
        assert not ControlPlaneView(
            asx_asn=1,
            igp_link_down=(IgpLinkDownObservation("1.1.1.1", "2.2.2.2"),),
        ).is_empty()
