"""Reference stream screening: every event checked afresh, labels built eagerly.

:class:`~repro.stream.ingest.StreamIngestor` checks each distinct path
content once and memoises the verdict, and it and
:func:`~repro.validate.check_probe_path` format a record label only when
they find a violation.  :class:`ReferenceIngestor` keeps the per-event
screen they replaced, unchanged: it re-checks every probe event with
:func:`reference_check_probe_path`, and it and that check label every
record up front.  The differential tests in ``test_ingest_oracle.py``
hold the two to the same return values, raised errors, counters and
reports.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.pathset import ProbePath
from repro.stream.events import ProbeEvent, StreamEvent
from repro.stream.ingest import StreamIngestor
from repro.validate import REPAIR, TRACE_EPOCH, repair_probe_path
from repro.validate.invariants import (
    FEED_DUP,
    FEED_ORDER,
    TRACE_DUP,
    TRACE_LOOP,
    TRACE_REACH_BIT,
    TRACE_UNRESOLVED,
    Violation,
    describe_path,
)


def reference_check_probe_path(
    path: ProbePath,
    asn_of: Callable[[str], Optional[int]],
    expected_epoch: Optional[str] = None,
) -> Tuple[Violation, ...]:
    """All per-record invariant violations of one probe path."""
    record = describe_path(path, expected_epoch)
    violations = []
    if expected_epoch is not None and path.epoch != expected_epoch:
        violations.append(
            Violation(
                TRACE_EPOCH,
                record,
                f"tagged epoch {path.epoch!r}, round is {expected_epoch!r}",
            )
        )
    seen = {}
    previous = None
    for index, hop in enumerate(path.hops):
        if not isinstance(hop, str):
            previous = hop
            continue
        if asn_of(hop) is None:
            violations.append(
                Violation(
                    TRACE_UNRESOLVED,
                    record,
                    f"hop {index} address {hop} resolves to no router",
                )
            )
        if hop == previous:
            violations.append(
                Violation(TRACE_DUP, record, f"hop {index} repeats {hop}")
            )
        elif hop in seen:
            violations.append(
                Violation(
                    TRACE_LOOP,
                    record,
                    f"hop {index} revisits {hop} (first seen at {seen[hop]})",
                )
            )
        if hop not in seen:
            seen[hop] = index
        previous = hop
    if not path.reached and path.hops[-1] == path.dst and len(path.hops) > 1:
        violations.append(
            Violation(
                TRACE_REACH_BIT,
                record,
                "trace ends at the destination sensor yet reached=False",
            )
        )
    return tuple(violations)


class ReferenceIngestor(StreamIngestor):
    """A :class:`StreamIngestor` that screens every event afresh."""

    def _ingest_probe(self, event: ProbeEvent) -> Optional[ProbeEvent]:
        path = event.path
        violations: List[Violation] = []
        if path.epoch not in self.expected_epochs:
            violations = reference_check_probe_path(
                path, self.asn_of, self.expected_epochs[-1]
            )
        else:
            violations = reference_check_probe_path(path, self.asn_of, path.epoch)
        if not violations:
            return event
        self.validator._found(violations)  # raises under strict
        stale = any(v.invariant == TRACE_EPOCH for v in violations)
        report = self.validator.report
        if stale:
            report.stale_rounds_dropped += 1
            report.record_quarantine(TRACE_EPOCH)
            self.events_quarantined += 1
            return None
        if self.policy == REPAIR:
            repaired, fixups = repair_probe_path(path, self.asn_of)
            report.traces_repaired += 1
            for fixup in fixups:
                report.record_repair(fixup)
            self.events_repaired += 1
            return ProbeEvent(tick=event.tick, seq=event.seq, path=repaired)
        report.traces_quarantined += 1
        report.record_quarantine(violations[0].invariant)
        self.events_quarantined += 1
        return None

    def _ingest_feed(self, event, kind: str, observation) -> Optional[StreamEvent]:
        violations: List[Violation] = []
        record = f"{kind} feed message seq={getattr(observation, 'seq', None)}"
        if observation in self._feed_seen[kind]:
            violations.append(
                Violation(FEED_DUP, record, "duplicate feed message")
            )
        seq = getattr(observation, "seq", None)
        sequenced = seq is not None and seq >= 0
        highest = self._feed_highest[kind]
        if not violations and sequenced and highest is not None and seq < highest:
            violations.append(
                Violation(
                    FEED_ORDER,
                    record,
                    f"sequence ran backwards ({highest} -> {seq})",
                )
            )
        if not violations:
            self._feed_seen[kind].add(observation)
            if sequenced:
                self._feed_highest[kind] = seq
            return event
        self.validator._found(violations)  # raises under strict
        report = self.validator.report
        report.feed_messages_quarantined += 1
        for violation in violations:
            report.record_quarantine(violation.invariant)
        self.events_quarantined += 1
        return None
