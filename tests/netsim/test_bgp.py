"""Unit tests for the BGP substrate: routes, policies, engine, messages."""

import pytest

from repro.errors import RoutingError
from repro.netsim.bgp import BgpEngine, BgpRoute, withdrawals_observed_by
from repro.netsim.bgp import policy
from repro.netsim.builders import figure2_network
from repro.netsim.topology import (
    ExportFilter,
    Internetwork,
    NetworkState,
    Relationship,
    Tier,
)


class TestBgpRoute:
    def test_origin_route_properties(self):
        route = BgpRoute("10.0.16.0/20", (), 100, None, None)
        assert route.is_origin
        assert route.neighbor_asn is None
        assert route.origin_asn is None

    def test_learned_route_properties(self):
        route = BgpRoute("10.0.16.0/20", (7, 9), 80, 3, 11)
        assert not route.is_origin
        assert route.neighbor_asn == 7
        assert route.origin_asn == 9
        assert route.traverses(9)
        assert not route.traverses(11)

    def test_preference_order(self):
        high_pref = BgpRoute("p", (5, 6, 7), policy.LOCAL_PREF_CUSTOMER, 1, 1)
        low_pref = BgpRoute("p", (5,), policy.LOCAL_PREF_PROVIDER, 1, 1)
        assert high_pref.preference_key() > low_pref.preference_key()

    def test_shorter_path_wins_at_equal_pref(self):
        short = BgpRoute("p", (5, 9), 80, 1, 1)
        long = BgpRoute("p", (5, 6, 9), 80, 1, 1)
        assert short.preference_key() > long.preference_key()

    def test_lower_neighbor_wins_at_equal_length(self):
        low = BgpRoute("p", (5, 9), 80, 1, 1)
        high = BgpRoute("p", (6, 9), 80, 1, 1)
        assert low.preference_key() > high.preference_key()


class TestPolicy:
    def test_local_pref_ordering(self):
        assert (
            policy.local_pref(Relationship.PROVIDER_CUSTOMER)
            > policy.local_pref(Relationship.PEER)
            > policy.local_pref(Relationship.CUSTOMER_PROVIDER)
        )

    def test_valley_free_export_matrix(self):
        customer = Relationship.PROVIDER_CUSTOMER  # neighbour is my customer
        peer = Relationship.PEER
        provider = Relationship.CUSTOMER_PROVIDER
        # Own and customer routes go everywhere.
        for to_rel in (customer, peer, provider):
            assert policy.may_export(None, to_rel)
            assert policy.may_export(customer, to_rel)
        # Peer/provider routes go to customers only.
        for learned in (peer, provider):
            assert policy.may_export(learned, customer)
            assert not policy.may_export(learned, peer)
            assert not policy.may_export(learned, provider)

    def test_filtered(self):
        f = ExportFilter(link_id=4, at_router=2, prefixes=frozenset({"p"}))
        assert policy.filtered([f], 4, 2, "p")
        assert not policy.filtered([f], 4, 2, "q")
        assert not policy.filtered([], 4, 2, "p")


class TestEngineOnFigure2:
    @pytest.fixture
    def converged(self):
        fig = figure2_network()
        engine = BgpEngine.for_sensor_ases(
            fig.net, [fig.asn("A"), fig.asn("B"), fig.asn("C")]
        )
        return fig, engine, engine.converge(NetworkState.nominal())

    def test_every_as_reaches_every_prefix(self, converged):
        fig, engine, routing = converged
        for prefix in routing.prefixes:
            for autsys in fig.net.ases():
                assert routing.has_route(autsys.asn, prefix), (
                    f"AS {autsys.asn} lacks {prefix}"
                )

    def test_as_paths_follow_the_hierarchy(self, converged):
        fig, _engine, routing = converged
        prefix_b = fig.net.autonomous_system(fig.asn("B")).prefix
        assert routing.as_path(fig.asn("A"), prefix_b) == (
            fig.asn("A"),
            fig.asn("X"),
            fig.asn("Y"),
            fig.asn("B"),
        )

    def test_origin_as_path_is_itself(self, converged):
        fig, _engine, routing = converged
        prefix_b = fig.net.autonomous_system(fig.asn("B")).prefix
        assert routing.as_path(fig.asn("B"), prefix_b) == (fig.asn("B"),)

    def test_no_as_path_contains_loops(self, converged):
        fig, _engine, routing = converged
        for prefix in routing.prefixes:
            for autsys in fig.net.ases():
                path = routing.as_path(autsys.asn, prefix)
                assert path is not None
                assert len(path) == len(set(path))

    def test_convergence_is_cached(self, converged):
        _fig, engine, routing = converged
        assert engine.converge(NetworkState.nominal()) is routing

    def test_export_filter_blocks_prefix(self, converged):
        fig, engine, _nominal = converged
        prefix_c = fig.net.autonomous_system(fig.asn("C")).prefix
        link = fig.link_between("x2", "y1")
        state = NetworkState.nominal().with_filter(
            ExportFilter(
                link_id=link.lid,
                at_router=fig.router("y1").rid,
                prefixes=frozenset({prefix_c}),
            )
        )
        routing = engine.converge(state)
        # X (and its customer A) lose the route towards C; B is unaffected.
        assert not routing.has_route(fig.asn("X"), prefix_c)
        assert not routing.has_route(fig.asn("A"), prefix_c)
        prefix_b = fig.net.autonomous_system(fig.asn("B")).prefix
        assert routing.has_route(fig.asn("X"), prefix_b)

    def test_link_failure_withdraws_route(self, converged):
        fig, engine, _nominal = converged
        prefix_b = fig.net.autonomous_system(fig.asn("B")).prefix
        lid = fig.link_between("y4", "b1").lid
        routing = engine.converge(NetworkState.nominal().with_failed_links([lid]))
        for name in ("A", "X", "Y", "C"):
            assert not routing.has_route(fig.asn(name), prefix_b)

    def test_adj_rib_out_respects_valley_freeness(self, converged):
        fig, _engine, routing = converged
        # Y must not announce B's prefix to C (peer-less: C is customer, ok)
        # but A must never transit: A announces only its own prefix upstream.
        link = fig.link_between("a2", "x1")
        exported = routing.advertised(link.lid, fig.asn("A"))
        assert exported == frozenset(
            {fig.net.autonomous_system(fig.asn("A")).prefix}
        )

    def test_engine_rejects_foreign_prefix(self):
        fig = figure2_network()
        with pytest.raises(RoutingError):
            BgpEngine(fig.net, {"192.168.0.0/24": fig.asn("A")})

    def test_unknown_prefix_raises_routing_error_everywhere(self, converged):
        fig, _engine, routing = converged
        unknown = "192.168.0.0/24"
        queries = [
            lambda: routing.best(fig.asn("A"), unknown),
            lambda: routing.rib(unknown),
            lambda: routing.origin_of(unknown),
            lambda: routing.reachable_ases(unknown),
        ]
        for query in queries:
            with pytest.raises(RoutingError, match="not part of this convergence"):
                query()

    def test_adj_rib_out_is_lazy_and_covers_every_up_session(self, converged):
        fig, engine, routing = converged
        link = fig.link_between("a2", "x1")
        adj_out = routing._adj_out
        assert not adj_out._memo  # nothing computed before the first read
        routing.advertised(link.lid, fig.asn("A"))
        assert set(adj_out._memo) == {(link.lid, fig.asn("A"))}
        expected = {
            (inter.lid, asn)
            for inter in fig.net.inter_links()
            for asn in fig.net.link_asns(inter.lid)
        }
        assert set(adj_out) == expected and len(adj_out) == len(expected)
        # A failed session drops out of the mapping (and reads as empty).
        failed = engine.converge(NetworkState.nominal().with_failed_links([link.lid]))
        assert (link.lid, fig.asn("A")) not in failed._adj_out
        assert failed.advertised(link.lid, fig.asn("A")) == frozenset()


class TestMultihomingFailover:
    @pytest.fixture
    def multihomed(self):
        """Stub S multihomed to providers P1 and P2 which peer."""
        net = Internetwork()
        net.add_as(1, "p1", Tier.CORE)
        net.add_as(2, "p2", Tier.CORE)
        net.add_as(3, "s", Tier.STUB)
        p1 = net.add_router(1).rid
        p2 = net.add_router(2).rid
        s = net.add_router(3).rid
        net.set_relationship(1, 2, Relationship.PEER)
        net.set_relationship(3, 1, Relationship.CUSTOMER_PROVIDER)
        net.set_relationship(3, 2, Relationship.CUSTOMER_PROVIDER)
        l1 = net.add_link(s, p1)
        net.add_link(s, p2)
        net.add_link(p1, p2)
        engine = BgpEngine.for_sensor_ases(net, [3])
        return net, engine, l1.lid

    def test_failover_to_second_provider(self, multihomed):
        net, engine, l1 = multihomed
        prefix = net.autonomous_system(3).prefix
        nominal = engine.converge(NetworkState.nominal())
        assert nominal.as_path(1, prefix) == (1, 3)  # direct customer route
        failed = engine.converge(NetworkState.nominal().with_failed_links([l1]))
        assert failed.as_path(1, prefix) == (1, 2, 3)  # via the peer

    def test_withdrawal_observed_on_surviving_session(self, multihomed):
        net, engine, l1 = multihomed
        prefix = net.autonomous_system(3).prefix
        before = engine.converge(NetworkState.nominal())
        after_state = NetworkState.nominal().with_failed_links([l1])
        after = engine.converge(after_state)
        # P1 still hears the prefix from P2?  No: peer routes are not
        # exported to peers, so P2->P1 never carried it; but S->P1 session
        # died, which is a reset, not a withdrawal.
        withdrawals = withdrawals_observed_by(net, 1, before, after, after_state)
        assert withdrawals == []

    def test_customer_withdrawal_seen_by_provider(self):
        """Chain S - M - P: when S's access dies, P hears a withdrawal
        from M on a session that stays up."""
        net = Internetwork()
        net.add_as(1, "p", Tier.CORE)
        net.add_as(2, "m", Tier.TIER2)
        net.add_as(3, "s", Tier.STUB)
        p = net.add_router(1).rid
        m = net.add_router(2).rid
        s = net.add_router(3).rid
        net.set_relationship(2, 1, Relationship.CUSTOMER_PROVIDER)
        net.set_relationship(3, 2, Relationship.CUSTOMER_PROVIDER)
        pm = net.add_link(p, m)
        ms = net.add_link(m, s)
        engine = BgpEngine.for_sensor_ases(net, [3])
        before = engine.converge(NetworkState.nominal())
        after_state = NetworkState.nominal().with_failed_links([ms.lid])
        after = engine.converge(after_state)
        withdrawals = withdrawals_observed_by(net, 1, before, after, after_state)
        assert len(withdrawals) == 1
        w = withdrawals[0]
        assert w.prefix == net.autonomous_system(3).prefix
        assert w.from_asn == 2
        assert w.link_id == pm.lid
        assert w.at_router == p
        assert w.from_router == m
