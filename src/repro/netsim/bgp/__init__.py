"""AS-level BGP substrate: routes, policies, route computation, messages."""

from repro.netsim.bgp.engine import BgpEngine
from repro.netsim.bgp.eventsim import BgpMessage, EventDrivenBgp
from repro.netsim.bgp.messages import BgpWithdrawal, withdrawals_observed_by
from repro.netsim.bgp.rib import RoutingState
from repro.netsim.bgp.route import BgpRoute

__all__ = [
    "BgpEngine",
    "BgpMessage",
    "BgpRoute",
    "BgpWithdrawal",
    "EventDrivenBgp",
    "RoutingState",
    "withdrawals_observed_by",
]
