"""Unit tests for the event-driven BGP simulator (beyond the equivalence
property tests: message mechanics, guards, speaker behaviour)."""

import pytest

from repro.errors import RoutingError
from repro.netsim.builders import TopologyBuilder
from repro.netsim.topology import NetworkState, Relationship, Tier

from tests.netsim.eventsim_oracle import BgpMessage, EventDrivenBgp


@pytest.fixture
def triangle():
    """Three ASes: origin stub S under providers P and Q that peer."""
    b = TopologyBuilder()
    b.autonomous_system("P", Tier.CORE, routers=1)
    b.autonomous_system("Q", Tier.CORE, routers=1)
    b.autonomous_system("S", Tier.STUB, routers=1)
    b.peers("P", "Q")
    b.customer_of("S", "P")
    b.customer_of("S", "Q")
    b.link("p1", "q1")
    b.link("s1", "p1")
    b.link("s1", "q1")
    prefixes = {b.net.autonomous_system(b.asn("S")).prefix: b.asn("S")}
    return b, prefixes


class TestMessageMechanics:
    def test_cold_start_announces_only(self, triangle):
        b, prefixes = triangle
        sim = EventDrivenBgp(b.net, prefixes)
        sim.converge(NetworkState.nominal())
        assert sim.message_log
        assert all(m.route is not None for m in sim.message_log)
        # The origin never announces a path containing the receiver.
        for message in sim.message_log:
            assert message.to_asn not in message.route

    def test_no_duplicate_adjacent_announcements(self, triangle):
        """Adj-out diffing suppresses no-op re-announcements: per session
        and prefix, consecutive messages always differ."""
        b, prefixes = triangle
        sim = EventDrivenBgp(b.net, prefixes)
        sim.converge(NetworkState.nominal())
        per_session = {}
        for message in sim.message_log:
            key = (message.link_id, message.from_asn, message.to_asn)
            assert per_session.get(key) != message.route
            per_session[key] = message.route

    def test_peers_do_not_relay_peer_routes(self, triangle):
        b, prefixes = triangle
        sim = EventDrivenBgp(b.net, prefixes)
        routing = sim.converge(NetworkState.nominal())
        # P learnt S directly (customer); it exports to its peer Q, but Q
        # must not re-export P's version anywhere (valley-freeness): Q's
        # best is its own customer route.
        prefix = next(iter(prefixes))
        assert routing.as_path(b.asn("P"), prefix) == (b.asn("P"), b.asn("S"))
        assert routing.as_path(b.asn("Q"), prefix) == (b.asn("Q"), b.asn("S"))

    def test_dead_origin_produces_silence(self, triangle):
        b, prefixes = triangle
        sim = EventDrivenBgp(b.net, prefixes)
        state = NetworkState.nominal().with_failed_routers(
            [b.router("s1").rid]
        )
        routing = sim.converge(state)
        assert sim.message_log == []
        prefix = next(iter(prefixes))
        assert routing.as_path(b.asn("P"), prefix) is None

    def test_failover_uses_peer_transit_when_allowed(self, triangle):
        """With S-P down, P reaches S... only if valley-freeness allows:
        Q's route to S is a customer route, exported to peer P."""
        b, prefixes = triangle
        lid = b.net.link_between(b.router("s1").rid, b.router("p1").rid).lid
        state = NetworkState.nominal().with_failed_links([lid])
        routing = EventDrivenBgp(b.net, prefixes).converge(state)
        prefix = next(iter(prefixes))
        assert routing.as_path(b.asn("P"), prefix) == (
            b.asn("P"),
            b.asn("Q"),
            b.asn("S"),
        )

    def test_foreign_prefix_rejected(self, triangle):
        b, _prefixes = triangle
        with pytest.raises(RoutingError):
            EventDrivenBgp(b.net, {"192.168.0.0/24": b.asn("S")})

    def test_message_is_a_value_object(self):
        a = BgpMessage("p", 1, 2, 3, (2, 9))
        b = BgpMessage("p", 1, 2, 3, (2, 9))
        assert a == b
        assert BgpMessage("p", 1, 2, 3, None).route is None
