"""Event-driven (message-level) BGP simulation, kept as a test oracle.

The production engine (:mod:`repro.netsim.bgp.engine`) builds converged
states directly with a three-phase Gao-Rexford computation — fast, but an
abstraction.  This module is the *validator*: a C-BGP-style discrete-event
simulator that exchanges individual UPDATE messages (announcements and
withdrawals) over per-session FIFO channels until the network quiesces.
No entry point runs it; it lives beside :mod:`tests.netsim.sweep_oracle`
as the message-level reference of the three-way property test.

For Gao-Rexford-compliant policies the stable state is unique (Gao &
Rexford 2001), so the event-driven outcome must match the engine exactly —
for *any* message timing.  The property tests require identical RIBs and
Adj-RIB-Outs from both engines and the retired sweep fixpoint (a test
oracle) over randomized topologies, failures, filters and delays; this is
the strongest evidence the substitution of C-BGP preserves every
observable the paper's evaluation consumes.

The simulator also exposes what the engine cannot: the *message log*,
used by tests to sanity-check the withdrawal semantics of
:mod:`repro.netsim.bgp.messages` (e.g. "an explicit withdrawal is only
ever received over a session that is still up").
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConvergenceError, RoutingError
from repro.netsim.bgp import policy
from repro.netsim.bgp.rib import RoutingState, SessionTable
from repro.netsim.bgp.route import BgpRoute
from repro.netsim.topology import Internetwork, NetworkState

__all__ = ["BgpMessage", "EventDrivenBgp"]

#: Safety valve: no sane simulation of our topologies needs more.
_MAX_MESSAGES = 2_000_000


@dataclass(frozen=True)
class BgpMessage:
    """One UPDATE on the wire.

    ``route`` is ``None`` for a withdrawal.  ``link_id``/``from_asn``/
    ``to_asn`` identify the directed session.
    """

    prefix: str
    link_id: int
    from_asn: int
    to_asn: int
    route: Optional[Tuple[int, ...]]  # the announced AS path, None = withdraw


@dataclass
class _Speaker:
    """Per-AS BGP state for one prefix."""

    asn: int
    #: (link_id, neighbour asn) -> last announced AS path from there.
    rib_in: Dict[Tuple[int, int], Tuple[int, ...]] = field(default_factory=dict)
    #: (link_id, neighbour asn) -> AS path we last advertised to them.
    adj_out: Dict[Tuple[int, int], Optional[Tuple[int, ...]]] = field(
        default_factory=dict
    )
    best: Optional[BgpRoute] = None


class EventDrivenBgp:
    """Message-level convergence for a fixed topology and prefix set.

    Parameters mirror :class:`~repro.netsim.bgp.engine.BgpEngine`; the
    extra ``rng`` randomises per-message propagation delays (per-session
    FIFO order is always preserved, like TCP) so callers can probe
    timing-independence.
    """

    def __init__(
        self,
        net: Internetwork,
        prefixes: Dict[str, int],
        rng: Optional[random.Random] = None,
    ) -> None:
        self.net = net
        self._prefixes = dict(prefixes)
        self._rng = rng
        for prefix, asn in self._prefixes.items():
            if net.autonomous_system(asn).prefix != prefix:
                raise RoutingError(
                    f"prefix {prefix} is not the allocated prefix of AS {asn}"
                )
        self._sessions = SessionTable(net)
        self.message_log: List[BgpMessage] = []

    # ----------------------------------------------------------------- run

    def converge(self, state: NetworkState) -> RoutingState:
        """Run the event simulation to quiescence and extract the state."""
        self.message_log = []
        ribs: Dict[str, Dict[int, BgpRoute]] = {}
        adj_out: Dict[Tuple[int, int], set] = {}
        for prefix in sorted(self._prefixes):
            speakers = self._simulate_prefix(prefix, state)
            ribs[prefix] = {
                asn: speaker.best
                for asn, speaker in speakers.items()
                if speaker.best is not None
            }
            for asn, speaker in speakers.items():
                for (link_id, _nbr), path in speaker.adj_out.items():
                    if path is not None:
                        adj_out.setdefault((link_id, asn), set()).add(prefix)
        return RoutingState(
            ribs,
            {key: frozenset(v) for key, v in adj_out.items()},
            dict(self._prefixes),
        )

    # ------------------------------------------------------------ internals

    def _simulate_prefix(
        self, prefix: str, state: NetworkState
    ) -> Dict[int, _Speaker]:
        origin = self._prefixes[prefix]
        speakers = {
            autsys.asn: _Speaker(asn=autsys.asn) for autsys in self.net.ases()
        }
        origin_alive = any(
            rid not in state.failed_routers
            for rid in self.net.autonomous_system(origin).router_ids
        )

        # Event queue: (deliver_time, seq, message).  Per-session FIFO is
        # guaranteed by making each session's next delivery strictly later
        # than its previous one.
        queue: List[Tuple[int, int, BgpMessage]] = []
        session_clock: Dict[Tuple[int, int, int], int] = {}
        seq = [0]

        def send(message: BgpMessage, now: int) -> None:
            jitter = self._rng.randint(1, 16) if self._rng else 1
            key = (message.link_id, message.from_asn, message.to_asn)
            deliver = max(now + jitter, session_clock.get(key, 0) + 1)
            session_clock[key] = deliver
            seq[0] += 1
            heapq.heappush(queue, (deliver, seq[0], message))
            self.message_log.append(message)

        down = self._sessions.down_links(state)

        def exports_of(speaker: _Speaker) -> None:
            """Send updates wherever our advertisement must change."""
            route = speaker.best
            for session in self._sessions.of_as[speaker.asn]:
                link_id, nbr_asn = session.link, session.neighbour
                if link_id in down:
                    continue
                wanted = None
                if route is not None and self._sessions.exports(
                    route, speaker.asn, session, state.filters
                ):
                    wanted = (speaker.asn,) + route.as_path
                key = (link_id, nbr_asn)
                if speaker.adj_out.get(key) == wanted:
                    continue
                speaker.adj_out[key] = wanted
                send(
                    BgpMessage(
                        prefix=prefix,
                        link_id=link_id,
                        from_asn=speaker.asn,
                        to_asn=nbr_asn,
                        route=wanted,
                    ),
                    now=clock[0],
                )

        clock = [0]
        if origin_alive:
            speakers[origin].best = BgpRoute(
                prefix=prefix,
                as_path=(),
                local_pref=policy.LOCAL_PREF_CUSTOMER,
                ingress_link=None,
                egress_router=None,
            )
            exports_of(speakers[origin])

        processed = 0
        while queue:
            processed += 1
            if processed > _MAX_MESSAGES:
                raise ConvergenceError(
                    f"event simulation for {prefix} exceeded {_MAX_MESSAGES} "
                    "messages; the configuration oscillates"
                )
            deliver, _seq, message = heapq.heappop(queue)
            clock[0] = deliver
            receiver = speakers[message.to_asn]
            key = (message.link_id, message.from_asn)
            if message.route is None:
                receiver.rib_in.pop(key, None)
            else:
                receiver.rib_in[key] = message.route
            receiver.best = self._decide(receiver, prefix)
            # Recompute exports unconditionally: adj_out diffing suppresses
            # the no-op messages, so this stays cheap and obviously right.
            exports_of(receiver)
        return speakers

    def _decide(self, speaker: _Speaker, prefix: str) -> Optional[BgpRoute]:
        if speaker.asn == self._prefixes[prefix]:
            return speaker.best  # the origin never changes its mind
        best: Optional[BgpRoute] = None
        for (link_id, _nbr), as_path in sorted(speaker.rib_in.items()):
            if speaker.asn in as_path:
                continue  # receiver-side loop prevention
            session = self._sessions.by_key[(link_id, speaker.asn)]
            candidate = BgpRoute(
                prefix=prefix,
                as_path=as_path,
                local_pref=policy.local_pref(session.relationship),
                ingress_link=link_id,
                egress_router=session.router,
            )
            if best is None or candidate.preference_key() > best.preference_key():
                best = candidate
        return best
