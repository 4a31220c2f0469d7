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

Both probe slots live in :class:`~repro.netsim.cache.LruCache` maps, so
window memory is bounded two ways: by recency (``evict`` drops
observations older than ``width`` ticks) and by capacity (the LRU cap
sheds the coldest pairs first when the mesh outgrows memory).  Snapshot
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
from repro.netsim.cache import LruCache
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
    ``now - width`` is stale and evicted.  ``capacity`` bounds each probe
    slot map (0 = unbounded, like every :class:`LruCache`).
    """

    def __init__(self, width: int, capacity: int = 0) -> None:
        if width <= 0:
            raise StreamError(f"window width must be >= 1 tick, got {width}")
        self.width = width
        # pair -> (tick, ProbePath); baseline keeps reached pre-probes,
        # current keeps post-probes (reached or not).
        self._baseline: LruCache[Pair, Tuple[int, ProbePath]] = LruCache(capacity)
        self._current: LruCache[Pair, Tuple[int, ProbePath]] = LruCache(capacity)
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
            self._baseline.put(path.pair, (event.tick, path))
        elif path.epoch == EPOCH_POST:
            self._current.put(path.pair, (event.tick, path))
        else:  # pragma: no cover - ingest screens unknown epochs out
            self.probes_ignored += 1

    # ------------------------------------------------------------ eviction

    def evict(self, now: int) -> int:
        """Drop every observation older than ``now - width``; returns count."""
        horizon = now - self.width
        dropped = 0
        for cache in (self._baseline, self._current):
            for pair, (tick, _path) in cache.items():
                if tick <= horizon:
                    cache.pop(pair)
                    dropped += 1
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
        for pair, _entry in self._current.items():
            if pair not in self._baseline:
                continue
            src, dst = pair
            if src in self._dark_sensors or dst in self._dark_sensors:
                continue
            pairs.append(pair)
        return tuple(sorted(pairs))

    def baseline_for(self, pair: Pair) -> Optional[Tuple[int, ProbePath]]:
        """The live baseline slot for ``pair`` (counts as a lookup)."""
        return self._baseline.get(pair)

    def current_for(self, pair: Pair) -> Optional[Tuple[int, ProbePath]]:
        """The live current slot for ``pair`` (counts as a lookup)."""
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

    # -------------------------------------------------------- checkpointing

    def state(self) -> Dict[str, object]:
        """A picklable snapshot of the window for shard checkpoints.

        Probe slots are captured in LRU order (``LruCache.items`` is
        LRU-first), so :meth:`restore_state`'s re-inserts rebuild the
        exact recency order — a restored window sheds the same cold
        pairs a never-crashed one would.
        """
        return {
            "baseline": self._baseline.items(),
            "current": self._current.items(),
            "withdrawals": list(self._withdrawals),
            "igp_downs": list(self._igp_downs),
            "dark_sensors": sorted(self._dark_sensors),
            "stale_evictions": self.stale_evictions,
            "feed_evictions": self.feed_evictions,
            "probes_ignored": self.probes_ignored,
            "lru_counters": tuple(
                (cache.hits, cache.misses, cache.evictions)
                for cache in (self._baseline, self._current)
            ),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Rebuild the window from a :meth:`state` snapshot."""
        for cache, key in (
            (self._baseline, "baseline"),
            (self._current, "current"),
        ):
            cache.clear()
            for pair, entry in state[key]:
                cache.put(pair, entry)
        self._withdrawals = list(state["withdrawals"])
        self._igp_downs = list(state["igp_downs"])
        self._dark_sensors = set(state["dark_sensors"])
        self.stale_evictions = state["stale_evictions"]
        self.feed_evictions = state["feed_evictions"]
        self.probes_ignored = state["probes_ignored"]
        for cache, counters in zip(
            (self._baseline, self._current), state["lru_counters"]
        ):
            cache.hits, cache.misses, cache.evictions = counters

    # ---------------------------------------------------------- inspection

    def failed_pairs(self) -> Tuple[Pair, ...]:
        """Usable pairs whose current probe did not reach."""
        return tuple(
            pair
            for pair in self.usable_pairs()
            if not self._current.get(pair)[1].reached
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
            "lru_evictions": self._baseline.evictions + self._current.evictions,
            "dark_sensors": len(self._dark_sensors),
        }
