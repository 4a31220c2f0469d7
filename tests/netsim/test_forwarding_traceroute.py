"""Unit tests for data-plane forwarding and traceroute simulation."""

import pytest

from repro.netsim.forwarding import IgpCache, data_path
from repro.netsim.topology import NetworkState
from repro.netsim.traceroute import trace_route


def names(fig, router_path):
    return [fig.net.router(rid).name for rid in router_path]


class TestDataPath:
    def test_nominal_path_matches_figure2(self, fig2, fig2_sim, nominal):
        routing = fig2_sim.routing(nominal)
        outcome = data_path(
            fig2.net,
            routing,
            nominal,
            fig2.sensor_routers["s1"],
            fig2.sensor_routers["s2"],
        )
        assert outcome.reached
        assert names(fig2, outcome.router_path) == [
            "a1", "a2", "x1", "x2", "y1", "y4", "b1", "b2",
        ]

    def test_same_as_uses_igp_only(self, fig2, fig2_sim, nominal):
        routing = fig2_sim.routing(nominal)
        y1, y3 = fig2.router("y1").rid, fig2.router("y3").rid
        outcome = data_path(fig2.net, routing, nominal, y1, y3)
        assert outcome.reached
        assert names(fig2, outcome.router_path) == ["y1", "y2", "y3"]

    def test_same_router_trivial(self, fig2, fig2_sim, nominal):
        routing = fig2_sim.routing(nominal)
        a1 = fig2.router("a1").rid
        outcome = data_path(fig2.net, routing, nominal, a1, a1)
        assert outcome.reached and outcome.router_path == (a1,)

    def test_no_route_blackhole(self, fig2, fig2_sim, nominal):
        lid = fig2.link_between("y4", "b1").lid
        state = nominal.with_failed_links([lid])
        routing = fig2_sim.routing(state)
        outcome = data_path(
            fig2.net,
            routing,
            state,
            fig2.sensor_routers["s1"],
            fig2.sensor_routers["s2"],
        )
        assert not outcome.reached
        assert outcome.failure_reason == "no-route"

    def test_igp_partition_in_destination_as(self, fig2, fig2_sim, nominal):
        lid = fig2.link_between("b1", "b2").lid
        state = nominal.with_failed_links([lid])
        routing = fig2_sim.routing(state)
        outcome = data_path(
            fig2.net,
            routing,
            state,
            fig2.sensor_routers["s1"],
            fig2.sensor_routers["s2"],
        )
        assert not outcome.reached
        assert outcome.failure_reason == "igp-partition"
        assert names(fig2, outcome.router_path)[-1] == "b1"

    def test_dead_source(self, fig2, fig2_sim, nominal):
        state = nominal.with_failed_routers([fig2.router("a1").rid])
        routing = fig2_sim.routing(state)
        outcome = data_path(
            fig2.net,
            routing,
            state,
            fig2.router("a1").rid,
            fig2.sensor_routers["s2"],
        )
        assert not outcome.reached
        assert outcome.failure_reason == "dead-endpoint"
        assert outcome.router_path == ()

    def test_dead_destination_router(self, fig2, fig2_sim, nominal):
        state = nominal.with_failed_routers([fig2.router("b2").rid])
        routing = fig2_sim.routing(state)
        outcome = data_path(
            fig2.net,
            routing,
            state,
            fig2.sensor_routers["s1"],
            fig2.router("b2").rid,
        )
        assert not outcome.reached

    def test_igp_cache_is_reused(self, fig2, fig2_sim, nominal):
        cache = IgpCache(fig2.net)
        view_a = cache.view(fig2.asn("Y"), nominal)
        view_b = cache.view(fig2.asn("Y"), nominal)
        assert view_a is view_b
        # Views are keyed by Y's own IGP condition: failing one of Y's
        # intradomain links gives another view ...
        y_link = fig2.link_between("y1", "y2").lid
        other = cache.view(fig2.asn("Y"), nominal.with_failed_links([y_link]))
        assert other is not view_a
        # ... while a failure outside Y (link 0 lies in AS A) leaves Y's
        # view shared.
        assert fig2.net.link_asns(0) == (fig2.asn("A"),)
        outside = cache.view(fig2.asn("Y"), nominal.with_failed_links([0]))
        assert outside is view_a


class TestTraceroute:
    def test_hops_report_router_addresses(self, fig2, fig2_sim, nominal):
        routing = fig2_sim.routing(nominal)
        trace = trace_route(
            fig2.net,
            routing,
            nominal,
            fig2.sensor_routers["s1"],
            fig2.sensor_routers["s3"],
        )
        assert trace.reached
        assert None not in trace.addresses()
        assert trace.addresses()[0] == fig2.net.router(
            fig2.sensor_routers["s1"]
        ).address

    def test_blocked_as_yields_stars(self, fig2, fig2_sim, nominal):
        routing = fig2_sim.routing(nominal)
        trace = trace_route(
            fig2.net,
            routing,
            nominal,
            fig2.sensor_routers["s1"],
            fig2.sensor_routers["s2"],
            blocked_ases=frozenset({fig2.asn("Y")}),
        )
        hidden = [
            rid
            for address, rid in zip(trace.addresses(), trace.router_path())
            if address is None
        ]
        assert len(hidden) == 2  # y1 and y4
        assert {fig2.net.asn_of_router(rid) for rid in hidden} == {
            fig2.asn("Y")
        }

    def test_endpoints_identified_even_when_blocked(self, fig2, fig2_sim, nominal):
        routing = fig2_sim.routing(nominal)
        trace = trace_route(
            fig2.net,
            routing,
            nominal,
            fig2.sensor_routers["s1"],
            fig2.sensor_routers["s2"],
            blocked_ases=frozenset({fig2.asn("A"), fig2.asn("B")}),
        )
        assert trace.addresses()[0] is not None  # source gateway
        assert trace.addresses()[-1] is not None  # destination gateway
        assert trace.addresses()[1] is None  # a2 hidden

    def test_failed_trace_is_truncated(self, fig2, fig2_sim, nominal):
        lid = fig2.link_between("b1", "b2").lid
        state = nominal.with_failed_links([lid])
        trace = trace_route(
            fig2.net,
            fig2_sim.routing(state),
            state,
            fig2.sensor_routers["s1"],
            fig2.sensor_routers["s2"],
        )
        assert not trace.reached
        assert names(fig2, trace.router_path())[-1] == "b1"

    def test_interior_of_blocked_as_stays_dark_on_failed_trace(
        self, fig2, fig2_sim, nominal
    ):
        lid = fig2.link_between("b1", "b2").lid
        state = nominal.with_failed_links([lid])
        trace = trace_route(
            fig2.net,
            fig2_sim.routing(state),
            state,
            fig2.sensor_routers["s1"],
            fig2.sensor_routers["s2"],
            blocked_ases=frozenset({fig2.asn("B")}),
        )
        assert not trace.reached
        # The last hop (b1, inside blocked B) is not an endpoint: dark.
        assert trace.addresses()[-1] is None
