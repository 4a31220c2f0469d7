"""Typed stream events, the logical clock, and the append-only event log.

The paper frames NetDiagnoser as something an ISP runs *continuously*:
probe results, BGP withdrawals and IGP link-down messages arrive at AS-X
as a stream (§3.3), not as pre-assembled experiment rounds.  This module
is the stream's vocabulary — one frozen dataclass per observable thing —
plus the two pieces of plumbing an online engine needs around it:

* a :class:`LogicalClock`: deterministic logical time.  Ticks are
  measurement rounds, not wall seconds, so the same event log always
  means the same history regardless of host speed (the determinism
  guarantee every ``repro.stream`` test leans on);
* an append-only event-log format in the :mod:`repro.serialize` style:
  plain JSON lines, stable across Python versions, safe to archive, and
  crash-tolerant (a truncated trailing line is dropped on load, like
  :class:`~repro.experiments.journal.RunJournal`'s trailing record).
  :class:`JsonLinesWriter` and :func:`read_json_lines` are that format;
  the dead-letter queue writes and reads through them too.

Every event carries ``(tick, seq)``: the logical round it was observed
in and its global arrival sequence number.  ``seq`` totally orders the
log; ``tick`` is what windowing and episode detection reason about.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Type, Union

from repro.core.control_plane import (
    IgpLinkDownObservation,
    WithdrawalObservation,
)
from repro.core.pathset import ProbePath
from repro.errors import StreamError
from repro.serialize import endpoint_from_json, endpoint_to_json

__all__ = [
    "EVENT_LOG_FORMAT",
    "LogicalClock",
    "StreamEvent",
    "ProbeEvent",
    "ReachabilityEvent",
    "WithdrawalEvent",
    "IgpLinkDownEvent",
    "SensorHeartbeatEvent",
    "SensorDropoutEvent",
    "stream_event_to_dict",
    "stream_event_from_dict",
    "save_event_log",
    "load_event_log",
    "EventLogWriter",
    "JsonLinesWriter",
    "read_json_lines",
]

logger = logging.getLogger(__name__)

EVENT_LOG_FORMAT = "repro-event-log-v1"


class LogicalClock:
    """Monotonic logical time: one tick per measurement round.

    The clock never reads the wall — replaying a recorded log on a slow
    laptop and on a build server produces identical histories.  It only
    enforces monotonicity: time that runs backwards means a corrupted or
    hand-edited log, which is worth a typed error rather than silently
    reordered windows.
    """

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise StreamError(f"logical clock cannot start at {start}")
        self._now = start

    @property
    def now(self) -> int:
        return self._now

    def tick(self) -> int:
        """Advance one round and return the new time."""
        self._now += 1
        return self._now

    def advance_to(self, tick: int) -> int:
        """Jump forward to ``tick`` (idempotent; backwards raises)."""
        if tick < self._now:
            raise StreamError(
                f"logical clock cannot run backwards ({self._now} -> {tick})"
            )
        self._now = tick
        return self._now


@dataclass(frozen=True)
class StreamEvent:
    """Base of every stream event: when (tick) and in what order (seq)."""

    tick: int
    seq: int


@dataclass(frozen=True)
class ProbeEvent(StreamEvent):
    """One traceroute result arriving at the troubleshooter.

    ``path.epoch`` says which slot it refreshes: ``pre`` probes are
    baseline refreshes (the sensor's current view of a working mesh),
    ``post`` probes are live measurements the engine diagnoses against.
    """

    path: ProbePath


@dataclass(frozen=True)
class ReachabilityEvent(StreamEvent):
    """A lightweight reachability bit for one pair, without a path.

    Real deployments interleave cheap ping-style liveness checks between
    full traceroutes; these update episode detection (a pair can alarm
    or clear) but carry no hops for the window to diagnose with.
    """

    src: str
    dst: str
    reached: bool


@dataclass(frozen=True)
class WithdrawalEvent(StreamEvent):
    """One BGP withdrawal from AS-X's route monitor (§3.3)."""

    observation: WithdrawalObservation


@dataclass(frozen=True)
class IgpLinkDownEvent(StreamEvent):
    """One IGP link-down message from AS-X's IS-IS listener (§3.3)."""

    observation: IgpLinkDownObservation


@dataclass(frozen=True)
class SensorHeartbeatEvent(StreamEvent):
    """A sensor announcing it is alive (clears a dropout)."""

    address: str


@dataclass(frozen=True)
class SensorDropoutEvent(StreamEvent):
    """A sensor going dark: its stored observations become suspect and
    its pairs are excluded from snapshots until a heartbeat returns."""

    address: str


# ------------------------------------------------------------- serialization


def stream_event_to_dict(event: StreamEvent) -> Dict[str, Any]:
    """Serialise one stream event to a plain-JSON dict."""
    base = {"tick": event.tick, "seq": event.seq}
    if isinstance(event, ProbeEvent):
        path = event.path
        return {
            "type": "probe",
            **base,
            "src": path.src,
            "dst": path.dst,
            "hops": [endpoint_to_json(hop) for hop in path.hops],
            "reached": path.reached,
            "epoch": path.epoch,
        }
    if isinstance(event, ReachabilityEvent):
        return {
            "type": "reach",
            **base,
            "src": event.src,
            "dst": event.dst,
            "reached": event.reached,
        }
    if isinstance(event, WithdrawalEvent):
        o = event.observation
        return {
            "type": "bgp-withdrawal",
            **base,
            "prefix": o.prefix,
            "at": o.at_address,
            "from": o.from_address,
            "from_asn": o.from_asn,
            "feed_seq": o.seq,
        }
    if isinstance(event, IgpLinkDownEvent):
        o = event.observation
        return {
            "type": "igp-link-down",
            **base,
            "a": o.address_a,
            "b": o.address_b,
            "feed_seq": o.seq,
        }
    if isinstance(event, SensorHeartbeatEvent):
        return {"type": "heartbeat", **base, "address": event.address}
    if isinstance(event, SensorDropoutEvent):
        return {"type": "dropout", **base, "address": event.address}
    raise StreamError(f"cannot serialise event type {type(event).__name__}")


def stream_event_from_dict(data: Dict[str, Any]) -> StreamEvent:
    """Reconstruct one stream event from its dict form."""
    kind = data.get("type")
    tick, seq = data["tick"], data["seq"]
    if kind == "probe":
        return ProbeEvent(
            tick=tick,
            seq=seq,
            path=ProbePath(
                src=data["src"],
                dst=data["dst"],
                hops=tuple(endpoint_from_json(hop) for hop in data["hops"]),
                reached=data["reached"],
                epoch=data["epoch"],
            ),
        )
    if kind == "reach":
        return ReachabilityEvent(
            tick=tick,
            seq=seq,
            src=data["src"],
            dst=data["dst"],
            reached=data["reached"],
        )
    if kind == "bgp-withdrawal":
        return WithdrawalEvent(
            tick=tick,
            seq=seq,
            observation=WithdrawalObservation(
                prefix=data["prefix"],
                at_address=data["at"],
                from_address=data["from"],
                from_asn=data["from_asn"],
                seq=data["feed_seq"],
            ),
        )
    if kind == "igp-link-down":
        return IgpLinkDownEvent(
            tick=tick,
            seq=seq,
            observation=IgpLinkDownObservation(
                address_a=data["a"], address_b=data["b"], seq=data["feed_seq"]
            ),
        )
    if kind == "heartbeat":
        return SensorHeartbeatEvent(tick=tick, seq=seq, address=data["address"])
    if kind == "dropout":
        return SensorDropoutEvent(tick=tick, seq=seq, address=data["address"])
    raise StreamError(f"unknown stream event type {kind!r}")


# -------------------------------------------------------------- JSON lines


class JsonLinesWriter:
    """Append-only JSON-lines file: a ``{"format": tag}`` header line,
    then one line per record dict.

    Every line is flushed as it is written, so a file being written
    mid-run is readable up to its last complete record — the
    crash-recovery property the resume tests lean on.  The event log and
    the dead-letter queue both write through it; usable as a context
    manager.
    """

    def __init__(self, path: Union[str, Path], tag: str) -> None:
        self.path = Path(path)
        self._handle = open(self.path, "w")
        self.write({"format": tag})

    def write(self, record: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "JsonLinesWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_json_lines(
    path: Union[str, Path], tag: str, error_cls: Type[Exception]
) -> Iterator[Dict[str, Any]]:
    """Yield the records of a :class:`JsonLinesWriter` file of ``tag``.

    A header that is not ``tag``'s raises ``error_cls``.  Blank lines are
    skipped, and a truncated trailing line (crash mid-append) is dropped
    with a warning: the records before it are kept.
    """
    path = Path(path)
    with open(path, "r") as handle:
        header_line = handle.readline()
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            raise error_cls(f"{path} is not a {tag} file (bad header)") from None
        if not isinstance(header, dict) or header.get("format") != tag:
            raise error_cls(
                f"{path} is not a {tag} file (header {header_line.strip()!r})"
            )
        for line_no, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                logger.warning(
                    "%s file %s has a truncated trailing line (%d); "
                    "dropping it",
                    tag, path, line_no,
                )
                return


# ----------------------------------------------------------------- event log


class EventLogWriter(JsonLinesWriter):
    """Append-only event-log writer (header + one JSON line per event)."""

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__(path, EVENT_LOG_FORMAT)

    def append(self, event: StreamEvent) -> None:
        self.write(stream_event_to_dict(event))


def save_event_log(
    events: Sequence[StreamEvent], path: Union[str, Path]
) -> None:
    """Write a complete event log in one go."""
    with EventLogWriter(path) as writer:
        for event in events:
            writer.append(event)


def load_event_log(path: Union[str, Path]) -> List[StreamEvent]:
    """Load an event log written by :class:`EventLogWriter`.

    Events are returned in ``seq`` order (the file order, re-sorted
    defensively); a truncated trailing line is dropped with a warning.
    Like :func:`~repro.stream.replay.build_event_log`, the log holds one
    :class:`~repro.core.pathset.ProbePath` per distinct path content.
    """
    interned: Dict[ProbePath, ProbePath] = {}
    events = []
    for data in read_json_lines(path, EVENT_LOG_FORMAT, StreamError):
        event = stream_event_from_dict(data)
        if isinstance(event, ProbeEvent):
            shared = interned.setdefault(event.path, event.path)
            if shared is not event.path:
                event = ProbeEvent(tick=event.tick, seq=event.seq, path=shared)
        events.append(event)
    events.sort(key=lambda e: e.seq)
    return events
