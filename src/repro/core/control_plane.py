"""Control-plane observations of AS-X, as the diagnosis layer sees them.

The diagnosis algorithms speak addresses, not simulator ids: the
measurement collector converts the simulator's IGP events and BGP
withdrawal log into these address-level observations.  A real deployment
would produce the same records from the ISP's IS-IS listener and BGP route
monitor, which is why the types live in :mod:`repro.core` rather than the
simulator package.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

__all__ = ["IgpLinkDownObservation", "WithdrawalObservation", "ControlPlaneView"]


# Addresses and prefixes are parsed once per string (bounded caches); a
# malformed one raises ValueError on every call, as no exception is kept.
_address = lru_cache(maxsize=1 << 16)(ipaddress.ip_address)
_network = lru_cache(maxsize=1 << 12)(ipaddress.ip_network)


@dataclass(frozen=True)
class IgpLinkDownObservation:
    """An IGP "link down" message for one intradomain link of AS-X.

    Endpoints are the two routers' canonical addresses.  ``seq`` is the
    collector-assigned arrival sequence number (``-1`` = unsequenced);
    :mod:`repro.validate` checks sequenced feed streams for monotonic
    order and duplicates.
    """

    address_a: str
    address_b: str
    seq: int = -1


@dataclass(frozen=True)
class WithdrawalObservation:
    """A BGP withdrawal received by one of AS-X's border routers.

    ``at_address`` is AS-X's router on the eBGP session, ``from_address``
    the neighbour router that sent the withdrawal, ``prefix`` the withdrawn
    destination block.  §3.3 only uses withdrawals "for the most specific
    prefix known for a destination"; the collector guarantees that.
    ``seq`` is the collector-assigned arrival sequence number (``-1`` =
    unsequenced), screened by :mod:`repro.validate`.
    """

    prefix: str
    at_address: str
    from_address: str
    from_asn: int
    seq: int = -1

    def covers(self, address: str) -> bool:
        """True when ``address`` falls inside the withdrawn prefix."""
        return _address(address) in _network(self.prefix)


@dataclass(frozen=True)
class ControlPlaneView:
    """Everything AS-X's control plane contributed for one event.

    A lossy collector feed can silently eat messages; the loss/delay
    counters make that visible to the diagnosis layer and the reports.
    ``withdrawals_lost``/``igp_lost`` messages never arrived at all;
    ``*_delayed`` ones arrived after the diagnosis deadline — either
    way they are absent from the observation tuples, and the algorithms
    must (and do) treat the feed as best-effort rather than complete.
    """

    asx_asn: int
    igp_link_down: Tuple[IgpLinkDownObservation, ...] = ()
    withdrawals: Tuple[WithdrawalObservation, ...] = ()
    withdrawals_lost: int = 0
    withdrawals_delayed: int = 0
    igp_lost: int = 0
    igp_delayed: int = 0

    def is_empty(self) -> bool:
        """True when the control plane saw nothing useful."""
        return not (self.igp_link_down or self.withdrawals)

    def is_degraded(self) -> bool:
        """True when the feed is known to have missed messages."""
        return bool(
            self.withdrawals_lost
            or self.withdrawals_delayed
            or self.igp_lost
            or self.igp_delayed
        )
