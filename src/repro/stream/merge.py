"""Cross-shard merging: one global episode story over N shard windows.

Sharding partitions *pairs*, not *failures*.  A core-link failure alarms
pairs whose destinations hash to different shards, and the
identifiability literature (Bartolini et al., arXiv:1903.10636; Ma et
al., arXiv:1509.06333) is blunt about what happens if each shard then
diagnoses alone: a shard that sees only a slice of the probe paths
crossing the suspect links can neither localise the failure nor even
know its verdict is under-determined.  So the engine never diagnoses
per shard.  Shards own the *ingest-side* state (window slots,
pair alarm debounce — both cleanly per-pair); everything that needs the
global picture is merged here:

* :func:`merged_snapshot` unions the shards' usable pairs and rebuilds
  the :class:`~repro.core.pathset.PathStore` pair in sorted-pair order —
  byte for byte the order a single window's ``snapshot()`` uses, which
  is half of the bit-identical replay guarantee — keeping the previous
  T- store while the baselines it holds are unchanged;
* :func:`merged_control_view` deduplicates the broadcast control-plane
  entries by ``(tick, seq)`` and sorts by ``seq`` — the same global
  arrival order a single window sorts by;
* :class:`CrossShardMerger` feeds the union of the shards' alarmed
  pairs into one global :class:`~repro.stream.episodes.EpisodeLifecycle`
  per tick, so episode ids, open/update/close edges and blast radii are
  exactly the single-shard ones.  It also counts how many episodes
  actually spanned shards — the number that justifies all of this.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.control_plane import ControlPlaneView
from repro.core.pathset import MeasurementSnapshot, PathStore, ProbePath
from repro.stream.episodes import EpisodeLifecycle, EpisodeTransition
from repro.stream.window import SlidingWindow

__all__ = ["merged_snapshot", "merged_control_view", "CrossShardMerger"]

Pair = Tuple[str, str]


def merged_snapshot(
    windows: Sequence[SlidingWindow],
    asn_of: Callable[[str], Optional[int]],
    before: Optional[PathStore] = None,
) -> Optional[MeasurementSnapshot]:
    """The batch-shaped snapshot over the union of shard windows.

    The router sends each pair's probes to exactly one shard, so the
    shards' usable-pair sets are disjoint and their union *is* the
    single-window usable set.  Stores are filled in globally sorted pair
    order, so the result equals the snapshot of one window holding
    every shard's slots.

    ``before`` is an earlier snapshot's T- store.  It is reused, with
    the graphs it has built, when the usable pairs' baseline slots hold
    exactly its paths: the same sorted pairs, each slot the *same*
    :class:`ProbePath` object (logs intern their paths, so identity is
    exact).  Otherwise a fresh T- store is built.
    """
    owners: Dict[Pair, SlidingWindow] = {}
    for window in windows:
        for pair in window.usable_pairs():
            owners.setdefault(pair, window)
    if not owners:
        return None
    baselines: List[ProbePath] = []
    after = PathStore()
    for pair in sorted(owners):
        window = owners[pair]
        baselines.append(window.baseline_for(pair)[1])
        after.add(window.current_for(pair)[1])
    if before is None or len(before) != len(baselines) or not all(
        kept is path for kept, path in zip(before.paths(), baselines)
    ):
        before = PathStore({path.pair: path for path in baselines})
    return MeasurementSnapshot(before=before, after=after, asn_of=asn_of)


def merged_control_view(
    windows: Sequence[SlidingWindow], asx_asn: int
) -> ControlPlaneView:
    """The global control-plane view over the shard windows.

    Control-plane events are broadcast to every shard (any shard's
    verdict may hinge on them), so each window holds a copy; dedup by
    ``(tick, seq)`` and sort by the globally monotonic ``seq`` — the
    same order one window holding every message would list them in.
    """
    withdrawals: Dict[Tuple[int, int], object] = {}
    igp_downs: Dict[Tuple[int, int], object] = {}
    for window in windows:
        bgp_entries, igp_entries = window.feed_entries()
        for tick, seq, obs in bgp_entries:
            withdrawals.setdefault((tick, seq), obs)
        for tick, seq, obs in igp_entries:
            igp_downs.setdefault((tick, seq), obs)
    return ControlPlaneView(
        asx_asn=asx_asn,
        igp_link_down=tuple(
            igp_downs[key] for key in sorted(igp_downs, key=lambda k: k[1])
        ),
        withdrawals=tuple(
            withdrawals[key] for key in sorted(withdrawals, key=lambda k: k[1])
        ),
    )


class CrossShardMerger:
    """One global episode lifecycle fed by every shard's alarms.

    Each tick the engine hands over the per-shard alarmed-pair
    tuples; the merger unions them (disjoint by construction — a pair
    alarms only on its owning shard) and advances the single lifecycle.
    Because :class:`PairAlarmTracker` partitions losslessly, the union
    equals the single-tracker alarmed set, and so the transitions are
    identical to single-shard replay.
    """

    def __init__(self) -> None:
        self.lifecycle = EpisodeLifecycle()
        self.cross_shard_episodes = 0
        self._open_span: int = 0

    def advance(
        self, tick: int, shard_alarms: Sequence[Tuple[Pair, ...]]
    ) -> List[EpisodeTransition]:
        """Merge this tick's shard alarms and advance the lifecycle."""
        merged: List[Pair] = []
        contributing = 0
        for alarmed in shard_alarms:
            if alarmed:
                contributing += 1
            merged.extend(alarmed)
        transitions = self.lifecycle.advance(tick, merged)
        # An episode "spans shards" if at any point while it was open,
        # more than one shard contributed alarmed pairs.  Count each
        # such episode once, at the first tick the span is observed.
        if self.lifecycle.open_episode is not None:
            if contributing > 1 and self._open_span <= 1:
                self.cross_shard_episodes += 1
            self._open_span = max(self._open_span, contributing)
        else:
            self._open_span = 0
        return transitions

    @property
    def episodes(self):
        return self.lifecycle.episodes

    @property
    def open_episode(self):
        return self.lifecycle.open_episode

    def counters(self) -> Dict[str, int]:
        counts = self.lifecycle.counters()
        counts["cross_shard_episodes"] = self.cross_shard_episodes
        return counts
