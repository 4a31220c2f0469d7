"""Failure-episode detection: debounced alarms, hysteretic clearing.

Diagnosing on every failed probe would melt the engine the moment a
flaky link drops two packets — the classic diagnosis storm.  Following
the consecutive-observation rule of
:class:`~repro.measurement.detection.FailureDetector` (§6 of the paper:
confirm a failure before invoking the troubleshooter), a pair **alarms**
only after ``open_after`` consecutive failed observations and **clears**
only after ``close_after`` consecutive successes — the asymmetry is the
hysteresis that stops a half-recovered pair from flapping the episode
open and closed.

An **episode** is the engine's unit of diagnosis work: it opens when the
first pair alarms while none were alarmed, updates when the alarmed set
changes while open, and closes when the last alarmed pair clears.  The
lifecycle emits :class:`EpisodeTransition` records; the engine schedules
diagnosis work off those, never off raw probe results.

Detection is split into two halves so the engine can partition one
across its shards and keep the other global:

* :class:`PairAlarmTracker` holds the per-pair debounce state.  Pairs
  partition cleanly across shards (each pair's counters depend only on
  that pair's own observations), so each shard owns one tracker.  The
  implementation lives in :mod:`repro.core.streak` — it is the same
  streak machine the batch
  :class:`~repro.measurement.detection.FailureDetector` runs at
  ``close_after=1`` (batch rounds are converged snapshots, so a single
  good round proves recovery; live streams keep the hysteresis) — and
  is re-exported here under its historical name.
* :class:`EpisodeLifecycle` holds the open/update/close state machine.
  Episode identity is global — a failure whose suspect links span
  shards is still *one* episode — so the cross-shard merger owns
  exactly one lifecycle and feeds it the union of shard alarms.  It
  also accounts **flaps**: episodes that reopen within ``flap_window``
  ticks of the previous close, the churn signature hysteresis alone
  cannot surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.streak import Pair, PairAlarmTracker
from repro.errors import StreamError

__all__ = [
    "OPEN",
    "UPDATE",
    "CLOSE",
    "DEFAULT_FLAP_WINDOW",
    "Episode",
    "EpisodeTransition",
    "PairAlarmTracker",
    "EpisodeLifecycle",
]

#: An episode reopening within this many ticks of the previous close
#: counts as a flap (the default for :class:`EpisodeLifecycle`).
DEFAULT_FLAP_WINDOW = 4

OPEN = "open"
UPDATE = "update"
CLOSE = "close"


@dataclass(frozen=True)
class EpisodeTransition:
    """One lifecycle step of one episode, at one logical tick.

    ``pairs`` is the alarmed set at the moment of the transition (empty
    for a close — nothing is failing any more, which is the point).
    """

    kind: str
    episode_id: int
    tick: int
    pairs: Tuple[Pair, ...]


@dataclass
class Episode:
    """One contiguous failure episode.

    ``pairs_ever`` accumulates every pair that alarmed during the
    episode — the closing report summarises the whole blast radius, not
    just whoever happened to still be failing at the end.
    """

    episode_id: int
    opened_at: int
    closed_at: Optional[int] = None
    active_pairs: Tuple[Pair, ...] = ()
    pairs_ever: Set[Pair] = field(default_factory=set)

    @property
    def is_open(self) -> bool:
        return self.closed_at is None


class EpisodeLifecycle:
    """The global half of the detector: the open/update/close machine.

    Owns episode identity (ids, the open episode, history).  Feed it the
    complete alarmed set each tick — whether from one tracker or the
    union of many shards' trackers — and it emits the transitions.

    An open arriving within ``flap_window`` ticks of the previous close
    is counted as a **flap**: the pair-level hysteresis absorbs probe
    jitter, but a genuinely flapping link reopens episodes faster than
    any sane ``close_after`` can suppress, and operators need that
    churn visible (``flaps`` in :meth:`counters`).
    """

    def __init__(self, flap_window: int = DEFAULT_FLAP_WINDOW) -> None:
        if flap_window < 0:
            raise StreamError(
                f"flap_window must be >= 0, got {flap_window}"
            )
        self.flap_window = flap_window
        self._episode: Optional[Episode] = None
        self._next_id = 0
        self._last_closed_at: Optional[int] = None
        self.episodes: List[Episode] = []
        self.transitions_emitted = 0
        self.flaps = 0

    @property
    def open_episode(self) -> Optional[Episode]:
        return self._episode

    def advance(
        self, tick: int, alarmed: Iterable[Pair]
    ) -> List[EpisodeTransition]:
        """Evaluate the lifecycle against this tick's full alarmed set."""
        alarmed = tuple(sorted(alarmed))
        transitions: List[EpisodeTransition] = []
        episode = self._episode
        if episode is None:
            if alarmed:
                episode = Episode(
                    episode_id=self._next_id,
                    opened_at=tick,
                    active_pairs=alarmed,
                    pairs_ever=set(alarmed),
                )
                self._next_id += 1
                self._episode = episode
                self.episodes.append(episode)
                if (
                    self._last_closed_at is not None
                    and tick - self._last_closed_at <= self.flap_window
                ):
                    self.flaps += 1
                transitions.append(
                    EpisodeTransition(OPEN, episode.episode_id, tick, alarmed)
                )
        elif not alarmed:
            episode.closed_at = tick
            episode.active_pairs = ()
            self._episode = None
            self._last_closed_at = tick
            transitions.append(
                EpisodeTransition(CLOSE, episode.episode_id, tick, ())
            )
        elif alarmed != episode.active_pairs:
            episode.active_pairs = alarmed
            episode.pairs_ever.update(alarmed)
            transitions.append(
                EpisodeTransition(UPDATE, episode.episode_id, tick, alarmed)
            )
        self.transitions_emitted += len(transitions)
        return transitions

    def counters(self) -> Dict[str, int]:
        return {
            "episodes_total": len(self.episodes),
            "episodes_open": 1 if self._episode is not None else 0,
            "transitions": self.transitions_emitted,
            "flaps": self.flaps,
        }
