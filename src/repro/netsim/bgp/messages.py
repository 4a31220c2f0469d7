"""Control-plane observations of AS-X: BGP withdrawals between two states.

Section 3.3 of the paper has AS-X log the BGP withdrawal messages its border
routers receive after a failure event, and use them to exonerate links
upstream of the session the withdrawal arrived on.  With a converged-state
engine the messages are recovered by diffing the per-session Adj-RIB-Out
between the pre-failure and post-failure converged states.

Only *explicit* withdrawals are modelled: if the session link itself died,
the routes over it vanish because the session reset, and no message saying
"the problem is beyond me" was ever received — treating a reset as a
withdrawal would wrongly exonerate the failed session link itself, so those
sessions are skipped (see ``DESIGN.md`` §5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.netsim.bgp.rib import RoutingState
from repro.netsim.topology import Internetwork, NetworkState

__all__ = ["BgpWithdrawal", "withdrawals_observed_by"]


@dataclass(frozen=True)
class BgpWithdrawal:
    """One withdrawal message logged by AS-X.

    ``at_router`` is AS-X's border router on the session; ``from_router``
    the neighbour's router that sent the withdrawal; ``from_asn`` the
    neighbour AS.  The pair (``at_router``, ``from_router``) identifies the
    directed session the message arrived on, which is what the exoneration
    rule of §3.3 keys on.
    """

    prefix: str
    link_id: int
    from_asn: int
    from_router: int
    at_router: int


def withdrawals_observed_by(
    net: Internetwork,
    asx: int,
    before: RoutingState,
    after: RoutingState,
    state_after: NetworkState,
) -> List[BgpWithdrawal]:
    """Withdrawal messages AS-X's routers received between two states.

    A withdrawal for prefix P exists on a session when the neighbour
    advertised P before the event, no longer advertises it after, and the
    session itself is still up (otherwise the loss is a session reset, not
    a message).
    """
    withdrawals: List[BgpWithdrawal] = []
    for link in net.inter_links_of_as(asx):
        if not net.link_up(link.lid, state_after):
            continue  # session reset, no explicit withdrawal received
        own_router = net.endpoint_in_as(link.lid, asx)
        nbr_router = link.other(own_router)
        nbr_asn = net.asn_of_router(nbr_router)
        if nbr_asn == asx:
            continue  # defensive: inter_links_of_as never yields these
        was = before.advertised(link.lid, nbr_asn)
        now = after.advertised(link.lid, nbr_asn)
        for prefix in sorted(was - now):
            withdrawals.append(
                BgpWithdrawal(
                    prefix=prefix,
                    link_id=link.lid,
                    from_asn=nbr_asn,
                    from_router=nbr_router,
                    at_router=own_router,
                )
            )
    return withdrawals
