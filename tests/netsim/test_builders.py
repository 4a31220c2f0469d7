"""Unit tests for the topology builder helpers and paper fixtures."""

import pytest

from repro.errors import TopologyError
from repro.netsim.builders import TopologyBuilder, chain_network, figure2_network
from repro.netsim.topology import Relationship, Tier


class TestTopologyBuilder:
    def test_named_construction(self):
        b = TopologyBuilder()
        b.autonomous_system("A", Tier.STUB, routers=2)
        b.autonomous_system("B", Tier.CORE, routers=1)
        b.customer_of("A", "B")
        link = b.link("a2", "b1")
        assert b.net.is_interdomain(link.lid)
        assert b.router("a1").asn == b.asn("A")

    def test_duplicate_as_name_rejected(self):
        b = TopologyBuilder()
        b.autonomous_system("A")
        with pytest.raises(TopologyError):
            b.autonomous_system("A")

    def test_unknown_names_raise(self):
        b = TopologyBuilder()
        with pytest.raises(TopologyError):
            b.router("nope")
        with pytest.raises(TopologyError):
            b.asn("nope")

    def test_explicit_asn(self):
        b = TopologyBuilder()
        assert b.autonomous_system("A", asn=77) == 77
        assert b.autonomous_system("B") == 78

    def test_peers_declaration(self):
        b = TopologyBuilder()
        b.autonomous_system("A")
        b.autonomous_system("B")
        b.peers("A", "B")
        assert b.net.relationship(b.asn("A"), b.asn("B")) is Relationship.PEER


class TestFigure2Fixture:
    def test_all_named_elements_resolve(self, fig2):
        for name in ("a1", "a2", "x1", "x2", "y1", "y2", "y3", "y4", "b1", "b2"):
            assert fig2.router(name).name == name
        for asn in ("A", "X", "Y", "B", "C"):
            fig2.asn(asn)
        assert set(fig2.sensor_routers) == {"s1", "s2", "s3"}

    def test_link_between_helper(self, fig2):
        link = fig2.link_between("x2", "y1")
        assert fig2.net.is_interdomain(link.lid)
        with pytest.raises(TopologyError):
            fig2.link_between("a1", "b1")

    def test_y_internal_shortcut_preferred(self, fig2):
        """y1-y4 direct must beat y1-y2-y3-y4 so the paper's paths hold."""
        direct = fig2.link_between("y1", "y4").weight
        detour = (
            fig2.link_between("y1", "y2").weight
            + fig2.link_between("y2", "y3").weight
            + fig2.link_between("y3", "y4").weight
        )
        assert direct < detour


class TestChainNetwork:
    def test_chain_is_linear_and_valley_free(self):
        b, names = chain_network(n_ases=5, routers_per_as=1)
        assert names == ["N1", "N2", "N3", "N4", "N5"]
        net = b.net
        assert net.num_ases == 5
        assert len(net.inter_links()) == 4
        middle = b.asn("N3")
        # Relationships climb to the middle and descend after it.
        assert (
            net.relationship(b.asn("N1"), b.asn("N2"))
            is Relationship.CUSTOMER_PROVIDER
        )
        assert (
            net.relationship(b.asn("N5"), b.asn("N4"))
            is Relationship.CUSTOMER_PROVIDER
        )
        assert net.autonomous_system(middle).tier is Tier.CORE

    def test_multi_router_chain_connectivity(self):
        b, names = chain_network(n_ases=3, routers_per_as=2)
        net = b.net
        for name in names:
            assert len(net.intra_links(b.asn(name))) == 1

    def test_end_to_end_forwarding_through_chain(self):
        from repro.netsim.simulator import Simulator
        from repro.netsim.topology import NetworkState

        b, names = chain_network(n_ases=5, routers_per_as=1)
        first = b.router("n11").rid
        last = b.router("n51").rid
        sim = Simulator(b.net, [b.asn(names[0]), b.asn(names[-1])])
        trace = sim.trace(NetworkState.nominal(), first, last)
        assert trace.reached
        assert len(trace.addresses()) == len(trace.router_path()) == 5

    def test_too_short_chain_rejected(self):
        with pytest.raises(TopologyError):
            chain_network(n_ases=1)
