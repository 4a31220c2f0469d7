"""Self-healing supervision for the streaming engine's shards.

A service meant to run for months will lose shards: processes crash,
GC pauses stall them, a hot shard falls behind.  This module is the
recovery layer that turns those failures from silent wrong answers into
*accounted degradation*.  It is one object, :class:`ShardSupervisor`,
which a :class:`~repro.stream.engine.StreamEngine` holds and calls at
its hook points (see the class docstring for the list):

* the supervisor tracks per-shard liveness on the logical clock.
  Failures are injected deterministically by the chaos modes of
  :class:`~repro.faults.FaultPlan` (``shard-crash``, ``shard-stall``,
  ``slow-shard``) — each decision hashes ``(seed, mode, shard, tick)``,
  so a chaos run is bit-identical across replays and identical whether
  shards are drained serially or in parallel.
* While a shard is **dark**, its events are buffered (bounded; overflow
  goes to the dead-letter queue, never the floor), and the merger is fed
  the shard's last-known alarmed set — the *stale-alarm hold* that stops
  an episode flapping closed just because its shard stopped reporting.
  Coverage loss is counted (``pairs_uncovered``, ``episodes_delayed``),
  never hidden.
* A dark shard keeps its state.  At restart (``restart_after`` ticks
  after a crash, or when a stall's drawn length has passed) its darkness
  buffer is folded back through the same ingestor, so counters land on
  exactly the totals an undisturbed run reports.
* :class:`DeadLetterQueue` journals the events a dark shard's full
  buffer could not hold as replayable JSON lines (``repro-dlq-v1``)
  with provenance: what, why, which shard, which tick.
  ``python -m repro stream --dlq`` inspects it.

**Determinism contract.**  Supervised replay with a seeded chaos plan is
a pure function of (event log, config, seed): every crash/stall/slow
decision, every recovery, every dead-letter entry reproduces exactly.
When a crash's darkness fits inside the episode debounce window, the
recovered run's final verdicts are *byte-identical* to an undisturbed
run; otherwise the difference is exactly the accounted degraded items.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import StreamError, SupervisionError
from repro.faults import FaultPlan
from repro.stream.events import (
    JsonLinesWriter,
    StreamEvent,
    read_json_lines,
    stream_event_to_dict,
)
from repro.stream.router import StreamShard

__all__ = [
    "DLQ_FORMAT",
    "SupervisionConfig",
    "DeadLetterQueue",
    "load_dead_letters",
    "ShardSupervisor",
]

logger = logging.getLogger(__name__)

Pair = Tuple[str, str]

DLQ_FORMAT = "repro-dlq-v1"

# Shard liveness states.
RUNNING = "running"
CRASHED = "crashed"
STALLED = "stalled"


@dataclass(frozen=True)
class SupervisionConfig:
    """Tunables of the supervision layer, all in logical ticks.

    ``restart_after``: ticks a crashed shard stays dark before restart;
    ``buffer_limit``: max events buffered per dark shard (beyond goes to
    the dead-letter queue).
    """

    restart_after: int = 1
    buffer_limit: int = 4096

    def __post_init__(self) -> None:
        if self.restart_after < 1:
            raise StreamError(
                f"supervision restart_after must be >= 1, got {self.restart_after}"
            )
        if self.buffer_limit < 0:
            raise StreamError(
                f"supervision buffer_limit must be >= 0, got {self.buffer_limit}"
            )


class DeadLetterQueue:
    """Journalled parking lot for the events a dark shard's buffer could
    not hold.

    Each entry carries replayable provenance — the serialised event, the
    reason, the owning shard, the tick — as one JSON line of the event
    log's format
    (:class:`~repro.stream.events.JsonLinesWriter`: flushed per line,
    torn tail dropped on load).  ``path=None`` keeps entries in memory
    only.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.entries: List[Dict[str, Any]] = []
        self._writer = (
            JsonLinesWriter(self.path, DLQ_FORMAT)
            if self.path is not None
            else None
        )

    def put_event(
        self,
        event: StreamEvent,
        reason: str,
        shard: Optional[int] = None,
    ) -> None:
        """Dead-letter one stream event (replayable via its dict form)."""
        entry = {
            "kind": "event",
            "reason": reason,
            "shard": shard,
            "tick": event.tick,
            "event": stream_event_to_dict(event),
        }
        self.entries.append(entry)
        if self._writer is not None:
            self._writer.write(entry)

    def __len__(self) -> int:
        return len(self.entries)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


def load_dead_letters(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load a dead-letter journal; torn trailing line dropped, like the
    event log.

    Every entry must have the shape :meth:`DeadLetterQueue.put_event`
    writes; any other line (including the episode entries older journals
    held) raises :class:`~repro.errors.SupervisionError` naming the file
    and the entry's position.
    """
    entries = list(read_json_lines(path, DLQ_FORMAT, SupervisionError))
    for index, entry in enumerate(entries):
        if not _is_event_entry(entry):
            raise SupervisionError(
                f"{path} entry {index} is not a dead-lettered event: "
                f"{entry!r:.80}"
            )
    return entries


def _is_event_entry(entry: Any) -> bool:
    return (
        isinstance(entry, dict)
        and entry.get("kind") == "event"
        and isinstance(entry.get("event"), dict)
        and type(entry.get("tick")) is int
        and isinstance(entry.get("reason"), str)
        and "shard" in entry
        and (entry["shard"] is None or type(entry["shard"]) is int)
    )


class ShardSupervisor:
    """The self-healing layer the engine calls at its hook points.

    It owns everything supervision adds to a
    :class:`~repro.stream.engine.StreamEngine`: shard liveness, darkness
    buffers, restart and the :class:`DeadLetterQueue`.  The engine calls
    :meth:`is_dark` / :meth:`buffer_event` in ``offer``;
    :meth:`begin_tick` (restarts), :meth:`alarm_view` (held views) and
    :meth:`end_tick` (chaos dice) around the merge in ``advance``;
    :meth:`force_recover` in ``flush``.  Everything runs on the logical
    clock, so every decision replays.

    Crash and stall semantics: the failure is *detected* at the end of
    the tick it fires on; the shard then serves its last-known (stale)
    window and alarm view to the merger — accounted via
    ``pairs_uncovered`` — while new events for it are buffered.  A crash
    and a stall differ only in their schedule and in how long they keep
    the shard dark; at restart the darkness buffer is folded through the
    normal screening path onto the kept state, so a crash of ``k``
    ticks ends where a ``k``-tick stall does (the chaos tests assert
    byte-identical final verdicts).
    """

    def __init__(
        self,
        shards: Sequence[StreamShard],
        config: Optional[SupervisionConfig] = None,
        plan: Optional[FaultPlan] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
    ) -> None:
        self.shards = list(shards)
        self.config = config or SupervisionConfig()
        self.plan = plan
        self.dead_letters = (
            dead_letters if dead_letters is not None else DeadLetterQueue()
        )
        n = len(self.shards)
        self._status = [RUNNING] * n
        self._darkened_at: List[Optional[int]] = [None] * n
        self._stall_ticks = [0] * n
        # Events offered to a shard while it was dark, as
        # ("pair", raw_event) / ("bcast", screened_event) entries.
        self._buffers: List[List[Tuple[str, StreamEvent]]] = [[] for _ in range(n)]
        # Last-known alarmed set per shard: what the merger sees while
        # the shard is dark or late.
        self._hold: List[Tuple[Pair, ...]] = [() for _ in range(n)]
        # accounting
        self.shard_crashes = 0
        self.shard_stalls = 0
        self.slow_ticks = 0
        self.recoveries = 0
        self.ticks_dark = 0
        self.events_buffered = 0
        self.events_dead_lettered = 0
        self.pairs_uncovered = 0
        self.episodes_delayed = 0
        self.ticks_to_recover: List[int] = []
        self.incidents: List[Dict[str, Any]] = []

    # ------------------------------------------------------------- liveness

    def is_dark(self, shard_index: int) -> bool:
        return self._status[shard_index] != RUNNING

    def status(self, shard_index: int) -> str:
        return self._status[shard_index]

    # --------------------------------------------------------------- intake

    def buffer_event(
        self, shard_index: int, kind: str, event: StreamEvent
    ) -> bool:
        """Hold one event for a dark shard, or dead-letter it when the
        buffer is full — bounded memory, accounted loss.  Returns
        ``True`` when the event was buffered."""
        buffer = self._buffers[shard_index]
        if len(buffer) >= self.config.buffer_limit:
            self.events_dead_lettered += 1
            self.dead_letters.put_event(
                event, reason="dark-shard-buffer-overflow", shard=shard_index
            )
            return False
        buffer.append((kind, event))
        self.events_buffered += 1
        return True

    # ---------------------------------------------------------------- merge

    def alarm_view(self, shard_index: int, tick: int) -> Tuple[Pair, ...]:
        """The alarmed set the merger should use for this shard now.

        Dark shard: the stale hold (so an open episode does not flap
        closed during an outage).  Slow shard (chaos mode): last tick's
        view, one tick late.  Healthy shard: the live set, which also
        refreshes the hold.
        """
        if self.is_dark(shard_index):
            self.ticks_dark += 1
            return self._hold[shard_index]
        if (
            self.plan is not None
            and self.plan.shard_slow(shard_index, tick)
        ):
            self.slow_ticks += 1
            return self._hold[shard_index]
        live = self.shards[shard_index].alarms.alarmed_pairs()
        self._hold[shard_index] = live
        return live

    # ---------------------------------------------------------------- ticks

    def begin_tick(self, tick: int) -> int:
        """Restart every shard whose darkness is due to end at ``tick``.

        Returns the number of newly admitted pair events from darkness
        buffers — the engine adds them to its admission total (they were
        offered while dark and only now folded)."""
        admitted = 0
        for index, status in enumerate(self._status):
            if status == RUNNING:
                continue
            darkened_at = self._darkened_at[index]
            assert darkened_at is not None
            dark_for = tick - darkened_at
            if status == CRASHED and dark_for < self.config.restart_after:
                continue
            if status == STALLED and dark_for < self._stall_ticks[index]:
                continue
            admitted += self._recover(index, tick)
        return admitted

    def force_recover(self, tick: int) -> int:
        """Recover every dark shard now (end-of-stream flush)."""
        admitted = 0
        for index, status in enumerate(self._status):
            if status != RUNNING:
                admitted += self._recover(index, tick)
        return admitted

    def _recover(self, shard_index: int, tick: int) -> int:
        shard = self.shards[shard_index]
        status = self._status[shard_index]
        alarmed_before = set(shard.alarms.alarmed_pairs())
        admitted = 0
        for kind, event in self._buffers[shard_index]:
            if kind == "bcast":
                shard.observe_broadcast(event)
            elif shard.offer(event):
                admitted += 1
        alarmed_after = set(shard.alarms.alarmed_pairs())
        self.episodes_delayed += len(alarmed_after - alarmed_before)
        self._buffers[shard_index] = []
        darkened_at = self._darkened_at[shard_index]
        if darkened_at is not None:
            self.ticks_to_recover.append(tick - darkened_at)
        self._status[shard_index] = RUNNING
        self._darkened_at[shard_index] = None
        self._stall_ticks[shard_index] = 0
        self._hold[shard_index] = shard.alarms.alarmed_pairs()
        self.recoveries += 1
        logger.info(
            "shard %d recovered at tick %d (%s, %d buffered events replayed)",
            shard_index, tick, status, admitted,
        )
        return admitted

    def end_tick(self, tick: int) -> None:
        """Roll the chaos dice for running shards.  Crash takes
        precedence over stall when both fire on the same tick, so a
        shard goes dark at most once per tick."""
        if self.plan is not None:
            for index, status in enumerate(self._status):
                if status != RUNNING:
                    continue
                shard = self.shards[index]
                if self.plan.shard_crashes(index, tick):
                    self._status[index] = CRASHED
                    self._darkened_at[index] = tick
                    self.shard_crashes += 1
                    self.pairs_uncovered += shard.alarms.pairs_tracked()
                    self.incidents.append(
                        {"kind": "shard-crash", "shard": index, "tick": tick}
                    )
                    logger.warning("shard %d crashed at tick %d", index, tick)
                    continue
                stall = self.plan.shard_stall_ticks(index, tick)
                if stall > 0:
                    self._status[index] = STALLED
                    self._darkened_at[index] = tick
                    self._stall_ticks[index] = stall
                    self.shard_stalls += 1
                    self.pairs_uncovered += shard.alarms.pairs_tracked()
                    self.incidents.append(
                        {
                            "kind": "shard-stall",
                            "shard": index,
                            "tick": tick,
                            "ticks": stall,
                        }
                    )
                    logger.warning(
                        "shard %d stalled for %d ticks at tick %d",
                        index, stall, tick,
                    )

    # ------------------------------------------------------------- counters

    def counters(self) -> Dict[str, int]:
        return {
            "shard_crashes": self.shard_crashes,
            "shard_stalls": self.shard_stalls,
            "slow_ticks": self.slow_ticks,
            "recoveries": self.recoveries,
            "ticks_dark": self.ticks_dark,
            "events_buffered": self.events_buffered,
            "events_dead_lettered": self.events_dead_lettered,
            "pairs_uncovered": self.pairs_uncovered,
            "episodes_delayed": self.episodes_delayed,
        }

    def supervision_stats(self) -> Dict[str, Any]:
        """The supervision block for reports and benchmark artifacts."""
        return {
            "counters": self.counters(),
            "ticks_to_recover": list(self.ticks_to_recover),
            "incidents": list(self.incidents),
            "dead_letters": len(self.dead_letters),
        }

    def close(self) -> None:
        self.dead_letters.close()
