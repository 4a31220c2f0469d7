"""Traceroute simulation, including ASes that block probes.

A simulated traceroute walks the data plane (:mod:`repro.netsim.forwarding`)
and reports one hop per router.  Routers in *blocked* ASes answer nothing —
the hop shows up as a ``'*'`` (address ``None``) exactly like the paper's
"unidentified hops" (UHs).  Per the paper's assumption, blocking is all or
nothing per AS: "if an AS blocks traceroutes, then no router in that AS will
respond, and if an AS allows traceroutes, each router in that AS will
respond with a valid IP address" (§3.4).

Ground truth (the actual router id of every hop) is retained on every
trace so that experiments can score the diagnosis; the diagnosis
algorithms themselves only ever look at the addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.netsim.bgp.rib import RoutingState
from repro.netsim.forwarding import ForwardingResult, IgpCache, data_path
from repro.netsim.topology import Internetwork, NetworkState

__all__ = [
    "TraceResult",
    "FORGED_ROUTER_ID",
    "trace_route",
    "degrade_trace",
    "corrupt_trace",
]

#: Ground-truth router id carried by a forged hop: no real router has a
#: negative id, so scoring code can never mistake a lie for a topology
#: router.
FORGED_ROUTER_ID = -1


@dataclass(frozen=True)
class TraceResult:
    """A complete traceroute between two routers.

    ``hop_addresses`` is what the probing sensor sees, one entry per hop
    (``None`` for a ``'*'``); ``hop_routers`` is the simulator's ground
    truth at the same positions, never consumed by diagnosis.  Both start
    at the source router and, when reached, end at the destination
    router.  ``reached`` mirrors end-to-end reachability: a failed trace
    ends at the last responding position before the blackhole.

    The hops are held as two tuples of strings, ``None`` and ints, which
    the garbage collector stops tracking: the simulator's caches keep
    hundreds of thousands of traces alive across a sweep.
    """

    src_router: int
    dst_router: int
    hop_addresses: Tuple[Optional[str], ...]
    hop_routers: Tuple[int, ...]
    reached: bool
    failure_reason: Optional[str] = None

    def addresses(self) -> Tuple[Optional[str], ...]:
        """The address sequence as the sensor records it."""
        return self.hop_addresses

    def router_path(self) -> Tuple[int, ...]:
        """Ground-truth router id sequence."""
        return self.hop_routers


def trace_route(
    net: Internetwork,
    routing: RoutingState,
    state: NetworkState,
    src_router: int,
    dst_router: int,
    blocked_ases: FrozenSet[int] = frozenset(),
    igp_cache: Optional[IgpCache] = None,
) -> TraceResult:
    """Simulate one traceroute from ``src_router`` to ``dst_router``.

    Every router on the forwarding path contributes a hop; routers whose AS
    is in ``blocked_ases`` contribute a star.  Source and destination
    routers are the sensors' gateways: the probing host knows its own
    gateway and the destination responds as an end host, so both endpoints
    are reported identified even inside blocking ASes (the interior of a
    blocking AS stays dark).
    """
    outcome: ForwardingResult = data_path(
        net, routing, state, src_router, dst_router, igp_cache=igp_cache
    )
    routers = outcome.router_path
    last = len(routers) - 1
    addresses = []
    for position, rid in enumerate(routers):
        endpoint = position == 0 or (outcome.reached and position == last)
        if not endpoint and net.asn_of_router(rid) in blocked_ases:
            addresses.append(None)
        else:
            addresses.append(net.router(rid).address)
    return TraceResult(
        src_router=src_router,
        dst_router=dst_router,
        hop_addresses=tuple(addresses),
        hop_routers=routers,
        reached=outcome.reached,
        failure_reason=outcome.failure_reason,
    )


def degrade_trace(
    trace: TraceResult,
    truncate_at: Optional[int] = None,
    anonymize: Iterable[int] = (),
) -> TraceResult:
    """Apply measurement-plane faults to a clean traceroute.

    ``truncate_at`` keeps only the first that-many hops and marks the
    trace as not reached (a probe that dies mid-path cannot confirm the
    destination); ``anonymize`` stars out the hops at those positions —
    transient anonymous answers on top of AS-level blocking.  The input
    is never mutated: clean traces stay cacheable and fault application
    stays a pure function of the fault plan's decisions.
    """
    anonymize = frozenset(anonymize)
    addresses = trace.hop_addresses
    routers = trace.hop_routers
    reached = trace.reached
    failure_reason = trace.failure_reason
    if truncate_at is not None and 0 < truncate_at < len(addresses):
        addresses = addresses[:truncate_at]
        routers = routers[:truncate_at]
        reached = False
        failure_reason = "fault:truncated"
    if anonymize:
        addresses = tuple(
            None if index in anonymize else address
            for index, address in enumerate(addresses)
        )
    if addresses == trace.hop_addresses and reached == trace.reached:
        return trace
    return TraceResult(
        src_router=trace.src_router,
        dst_router=trace.dst_router,
        hop_addresses=addresses,
        hop_routers=routers,
        reached=reached,
        failure_reason=failure_reason,
    )


def _nearest_identified(
    addresses: Sequence[Optional[str]], index: int, lo: int, hi: int
) -> Optional[int]:
    """The identified hop position in ``[lo, hi]`` closest to ``index``
    (ties resolve toward the start — deterministic)."""
    best = None
    for position in range(lo, hi + 1):
        if addresses[position] is None:
            continue
        if best is None or abs(position - index) < abs(best - index):
            best = position
    return best


def corrupt_trace(
    trace: TraceResult,
    forge: Optional[Tuple[int, str]] = None,
    duplicate_at: Optional[int] = None,
    loop: Optional[Tuple[int, int]] = None,
) -> Tuple[TraceResult, Tuple[str, ...]]:
    """Apply *corruption* faults — the measurement plane lying.

    Unlike :func:`degrade_trace` (data goes missing), these faults add
    records that were never true: ``forge`` inserts a hop with an
    off-topology address at the given position; ``duplicate_at``
    re-reports the identified hop at that position as two consecutive
    hops; ``loop`` ``(earlier, later)`` re-inserts the hop at ``earlier``
    after position ``later``, fabricating a routing loop.  Positions
    refer to the input trace and are clamped/retargeted to the nearest
    identified hop where the scheduled position is a star (a duplicated
    star is indistinguishable from a fresh UH node, i.e. not a lie).

    Returns the corrupted trace plus the tuple of corruption kinds that
    actually applied (``"hop-forge"``, ``"hop-dup"``, ``"loop-inject"``)
    so callers count only real injections.  The input is never mutated —
    clean traces stay cacheable, and every corruption is a pure function
    of the scheduled decisions.
    """
    addresses: List[Optional[str]] = list(trace.hop_addresses)
    routers: List[int] = list(trace.hop_routers)
    applied = []

    def insert(position: int, address: Optional[str], router: int) -> None:
        addresses.insert(position, address)
        routers.insert(position, router)

    if forge is not None and len(addresses) >= 2:
        index, address = forge
        index = max(1, min(index, len(addresses) - 1))
        insert(index, address, FORGED_ROUTER_ID)
        applied.append("hop-forge")
    if duplicate_at is not None and len(addresses) >= 3:
        index = max(1, min(duplicate_at, len(addresses) - 2))
        target = _nearest_identified(addresses, index, 1, len(addresses) - 2)
        if target is not None:
            insert(target + 1, addresses[target], routers[target])
            applied.append("hop-dup")
    if loop is not None and len(addresses) >= 3:
        earlier, later = loop
        later = max(1, min(later, len(addresses) - 2))
        earlier = _nearest_identified(addresses, earlier, 0, later - 1)
        if earlier is not None:
            insert(later + 1, addresses[earlier], routers[earlier])
            applied.append("loop-inject")
    if not applied:
        return trace, ()
    return (
        TraceResult(
            src_router=trace.src_router,
            dst_router=trace.dst_router,
            hop_addresses=tuple(addresses),
            hop_routers=tuple(routers),
            reached=trace.reached,
            failure_reason=trace.failure_reason,
        ),
        tuple(applied),
    )
