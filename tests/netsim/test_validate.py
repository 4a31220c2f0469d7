"""Tests for the Gao-Rexford topology validator."""

import pytest

from repro.errors import ConvergenceError, TopologyError
from repro.netsim.bgp import BgpEngine
from repro.netsim.builders import TopologyBuilder
from repro.netsim.gen.internet import research_internet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Relationship, Tier
from repro.netsim.validate import validate_gao_rexford


def provider_cycle():
    """A pays B, B pays C, C pays A: everyone is their own provider."""
    b = TopologyBuilder()
    for name in ("A", "B", "C"):
        b.autonomous_system(name, Tier.TIER2, routers=1)
    b.customer_of("A", "B")
    b.customer_of("B", "C")
    b.customer_of("C", "A")
    b.link("a1", "b1")
    b.link("b1", "c1")
    b.link("c1", "a1")
    return b


class TestValidator:
    def test_generated_topologies_are_clean(self):
        topo = research_internet(n_tier2=4, n_stub=12, seed=6)
        assert validate_gao_rexford(topo.net) == []

    def test_figure2_is_clean(self, fig2):
        assert validate_gao_rexford(fig2.net) == []

    def test_provider_cycle_detected(self):
        b = provider_cycle()
        issues = validate_gao_rexford(b.net)
        kinds = {i.kind for i in issues}
        assert "provider-cycle" in kinds
        cycle = next(i for i in issues if i.kind == "provider-cycle")
        assert "AS" in cycle.detail

    def test_engine_rejects_provider_cycle_by_name(self):
        b = provider_cycle()
        asns = [b.asn(name) for name in ("A", "B", "C")]
        with pytest.raises(ConvergenceError, match="provider cycle AS") as info:
            BgpEngine.for_sensor_ases(b.net, asns)
        for asn in asns:
            assert f"AS{asn}" in str(info.value)

    def test_unvalidated_simulator_raises_convergence_error(self):
        b = provider_cycle()
        asns = [b.asn(name) for name in ("A", "B", "C")]
        with pytest.raises(ConvergenceError, match="provider cycle AS"):
            Simulator(b.net, asns, validate=False)
        with pytest.raises(TopologyError, match="provider-cycle"):
            Simulator(b.net, asns)

    def test_isolated_as_detected(self):
        b = TopologyBuilder()
        b.autonomous_system("A", Tier.STUB, routers=1)
        b.autonomous_system("B", Tier.STUB, routers=1)
        b.autonomous_system("LONER", Tier.STUB, routers=1)
        b.customer_of("A", "B")
        b.link("a1", "b1")
        issues = validate_gao_rexford(b.net)
        assert any(
            i.kind == "isolated-as" and "LONER" in i.detail for i in issues
        )

    def test_single_as_world_is_not_isolated(self):
        b = TopologyBuilder()
        b.autonomous_system("A", Tier.STUB, routers=2)
        b.link("a1", "a2")
        assert validate_gao_rexford(b.net) == []

    def test_peering_cycles_are_fine(self):
        """Only customer/provider cycles are unsafe; a peering triangle
        (like the three cores) is standard."""
        b = TopologyBuilder()
        for name in ("A", "B", "C"):
            b.autonomous_system(name, Tier.CORE, routers=1)
        b.peers("A", "B")
        b.peers("B", "C")
        b.peers("A", "C")
        b.link("a1", "b1")
        b.link("b1", "c1")
        b.link("c1", "a1")
        assert validate_gao_rexford(b.net) == []

