"""Sliding-window reconciliation of a stream into diagnosable snapshots.

The batch pipeline hands the diagnosers a complete
:class:`~repro.core.pathset.MeasurementSnapshot` — a ``T-`` round, a
``T+`` round, same pairs, every baseline reached.  A stream never has
that luxury: probes trickle in per-pair, control-plane messages arrive
between them, and sensors disappear mid-round.  :class:`SlidingWindow`
keeps exactly enough state to reconstruct the batch shape on demand:

* a **baseline slot** per pair — the most recent *reached* ``pre``-epoch
  probe (a working path the troubleshooter can compare against);
* a **current slot** per pair — the most recent ``post``-epoch probe
  (the live measurement being diagnosed);
* the in-window control-plane observations (BGP withdrawals, IGP
  link-downs) in arrival order;
* the set of dark sensors (dropout seen, no heartbeat since): their
  pairs are excluded from snapshots because neither slot can be trusted.

Both probe slots are plain per-pair dicts, bounded by recency:
``evict`` drops observations older than ``width`` ticks.  Snapshot
assembly (:func:`~repro.stream.merge.merged_snapshot` and
:func:`~repro.stream.merge.merged_control_view`, over one or more shard
windows) takes the intersection of live slots — exactly the pairs for
which a window holds a usable before/after story — which satisfies
:class:`~repro.core.pathset.MeasurementSnapshot`'s invariants by
construction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.control_plane import IgpLinkDownObservation, WithdrawalObservation
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, ProbePath
from repro.errors import StreamError
from repro.stream.events import (
    IgpLinkDownEvent,
    ProbeEvent,
    SensorDropoutEvent,
    SensorHeartbeatEvent,
    StreamEvent,
    WithdrawalEvent,
)

__all__ = ["SlidingWindow"]

Pair = Tuple[str, str]


class SlidingWindow:
    """Bounded per-pair observation state for the streaming engine.

    ``width`` is the window in logical ticks: an observation older than
    ``now - width`` is stale and evicted.
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise StreamError(f"window width must be >= 1 tick, got {width}")
        self.width = width
        # pair -> (tick, ProbePath); baseline keeps reached pre-probes,
        # current keeps post-probes (reached or not).
        self._baseline: Dict[Pair, Tuple[int, ProbePath]] = {}
        self._current: Dict[Pair, Tuple[int, ProbePath]] = {}
        # (arrival seq, observation) kept in arrival order so rebuilt
        # views list messages exactly as the batch collector would.
        self._withdrawals: List[Tuple[int, int, WithdrawalObservation]] = []
        self._igp_downs: List[Tuple[int, int, IgpLinkDownObservation]] = []
        self._dark_sensors: Set[str] = set()
        self.stale_evictions = 0
        # The share of stale_evictions that were feed entries: every
        # shard window holds a copy of each, so the engine counts them
        # once across shards.
        self.feed_evictions = 0
        self.probes_ignored = 0

    # ------------------------------------------------------------- updates

    def observe(self, event: StreamEvent) -> None:
        """Fold one (already screened) event into the window."""
        if isinstance(event, ProbeEvent):
            self._observe_probe(event)
        elif isinstance(event, WithdrawalEvent):
            self._withdrawals.append((event.tick, event.seq, event.observation))
        elif isinstance(event, IgpLinkDownEvent):
            self._igp_downs.append((event.tick, event.seq, event.observation))
        elif isinstance(event, SensorDropoutEvent):
            self._dark_sensors.add(event.address)
        elif isinstance(event, SensorHeartbeatEvent):
            self._dark_sensors.discard(event.address)
        # ReachabilityEvents update episode detection, not the window:
        # they carry no hops to diagnose with.

    def _observe_probe(self, event: ProbeEvent) -> None:
        path = event.path
        if path.epoch == EPOCH_PRE:
            if not path.reached:
                # A failed pre-probe is no baseline: the troubleshooter
                # is only invoked on previously-working pairs.
                self.probes_ignored += 1
                return
            self._baseline[path.pair] = (event.tick, path)
        elif path.epoch == EPOCH_POST:
            self._current[path.pair] = (event.tick, path)
        else:  # pragma: no cover - ingest screens unknown epochs out
            self.probes_ignored += 1

    # ------------------------------------------------------------ eviction

    def evict(self, now: int) -> int:
        """Drop every observation older than ``now - width``; returns count."""
        horizon = now - self.width
        dropped = 0
        for slot in (self._baseline, self._current):
            stale = [
                pair for pair, (tick, _path) in slot.items() if tick <= horizon
            ]
            for pair in stale:
                del slot[pair]
            dropped += len(stale)
        for name in ("_withdrawals", "_igp_downs"):
            entries = getattr(self, name)
            kept = [entry for entry in entries if entry[0] > horizon]
            self.feed_evictions += len(entries) - len(kept)
            dropped += len(entries) - len(kept)
            setattr(self, name, kept)
        self.stale_evictions += dropped
        return dropped

    # ------------------------------------------------------------ assembly

    def usable_pairs(self) -> Tuple[Pair, ...]:
        """Pairs with both slots live and no dark endpoint, sorted.

        Public because the cross-shard merger unions these across shard
        windows to build the merged snapshot in the same sorted-pair
        order a single window would produce.
        """
        pairs = []
        for pair in self._current:
            if pair not in self._baseline:
                continue
            src, dst = pair
            if src in self._dark_sensors or dst in self._dark_sensors:
                continue
            pairs.append(pair)
        return tuple(sorted(pairs))

    def baseline_for(self, pair: Pair) -> Optional[Tuple[int, ProbePath]]:
        """The live baseline slot for ``pair``."""
        return self._baseline.get(pair)

    def current_for(self, pair: Pair) -> Optional[Tuple[int, ProbePath]]:
        """The live current slot for ``pair``."""
        return self._current.get(pair)

    def feed_entries(
        self,
    ) -> Tuple[
        List[Tuple[int, int, WithdrawalObservation]],
        List[Tuple[int, int, IgpLinkDownObservation]],
    ]:
        """Raw ``(tick, seq, observation)`` feed entries, arrival order.

        The merger deduplicates these by ``(tick, seq)`` across shards
        before sorting — seq is globally monotonic, so the merged order
        equals the single-window order.
        """
        return list(self._withdrawals), list(self._igp_downs)

    # ---------------------------------------------------------- inspection

    def failed_pairs(self) -> Tuple[Pair, ...]:
        """Usable pairs whose current probe did not reach."""
        return tuple(
            pair
            for pair in self.usable_pairs()
            if not self._current[pair][1].reached
        )

    def dark_sensors(self) -> Tuple[str, ...]:
        return tuple(sorted(self._dark_sensors))

    def counters(self) -> Dict[str, int]:
        """Window accounting for the stream report."""
        return {
            "baseline_pairs": len(self._baseline),
            "current_pairs": len(self._current),
            "stale_evictions": self.stale_evictions,
            "probes_ignored": self.probes_ignored,
            "dark_sensors": len(self._dark_sensors),
        }
