"""Network simulation substrate (the C-BGP replacement).

Public surface: topology construction (:mod:`repro.netsim.topology`,
:mod:`repro.netsim.builders`, :mod:`repro.netsim.gen`), converged routing
(:class:`~repro.netsim.bgp.BgpEngine`), data-plane measurement
(:func:`~repro.netsim.traceroute.trace_route`), control-plane observation
(:func:`~repro.netsim.igp.igp_link_down_events`,
:func:`~repro.netsim.bgp.withdrawals_observed_by`), Looking Glasses, and
the :class:`~repro.netsim.simulator.Simulator` facade gluing them together.
"""

from repro.netsim.addressing import IpToAsMapper, PrefixAllocator
from repro.netsim.bgp import (
    BgpEngine,
    BgpRoute,
    BgpWithdrawal,
    RoutingState,
    withdrawals_observed_by,
)
from repro.netsim.builders import TopologyBuilder, chain_network, figure2_network
from repro.netsim.events import (
    CompositeEvent,
    Event,
    LinkFailureEvent,
    MisconfigurationEvent,
    RouterFailureEvent,
    WeightChangeEvent,
)
from repro.netsim.forwarding import ForwardingResult, IgpCache, data_path
from repro.netsim.igp import IgpView, igp_link_down_events
from repro.netsim.lookingglass import LookingGlassService
from repro.netsim.multipath import enumerate_data_paths
from repro.netsim.simulator import Simulator
from repro.netsim.validate import ValidationIssue, validate_gao_rexford
from repro.netsim.topology import (
    AutonomousSystem,
    ExportFilter,
    Internetwork,
    Link,
    NetworkState,
    Relationship,
    Router,
    Tier,
)
from repro.netsim.traceroute import TraceHop, TraceResult, trace_route

__all__ = [
    "AutonomousSystem",
    "BgpEngine",
    "BgpRoute",
    "BgpWithdrawal",
    "CompositeEvent",
    "Event",
    "ExportFilter",
    "ForwardingResult",
    "IgpCache",
    "IgpView",
    "Internetwork",
    "IpToAsMapper",
    "Link",
    "LinkFailureEvent",
    "LookingGlassService",
    "MisconfigurationEvent",
    "NetworkState",
    "PrefixAllocator",
    "Relationship",
    "Router",
    "RouterFailureEvent",
    "RoutingState",
    "Simulator",
    "Tier",
    "ValidationIssue",
    "TopologyBuilder",
    "TraceHop",
    "TraceResult",
    "WeightChangeEvent",
    "chain_network",
    "data_path",
    "enumerate_data_paths",
    "figure2_network",
    "igp_link_down_events",
    "trace_route",
    "validate_gao_rexford",
    "withdrawals_observed_by",
]
