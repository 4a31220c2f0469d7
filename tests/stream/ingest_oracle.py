"""Reference stream screening: every event checked afresh, labels built eagerly.

:class:`~repro.stream.ingest.StreamIngestor` checks each distinct path
content once and memoises the verdict, and it and
:func:`~repro.validate.check_probe_path` format a record label only when
they find a violation.  :class:`ReferenceIngestor` keeps the per-event
screen they replaced: it re-checks every probe event with
:func:`reference_check_probe_path`, it and that check label every
record up front, and it keeps its own feed duplicate and order state.
Both ingestors hand every violation to the same
:meth:`~repro.validate.Validator.screen_path` policy and count on the
same ledger, so the differential tests in ``test_ingest_oracle.py`` hold
the memo and the per-event checks to the same return values, raised
errors, counters and ledgers.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.core.pathset import ProbePath
from repro.stream.events import ProbeEvent, StreamEvent
from repro.stream.ingest import StreamIngestor
from repro.validate.invariants import (
    FEED_DUP,
    FEED_ORDER,
    TRACE_DUP,
    TRACE_EPOCH,
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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._seen = {"igp": set(), "bgp": set()}
        self._highest = {"igp": None, "bgp": None}

    def _ingest_probe(self, event: ProbeEvent) -> Optional[ProbeEvent]:
        path = event.path
        if path.epoch not in self.expected_epochs:
            violations = reference_check_probe_path(
                path, self.asn_of, self.expected_epochs[-1]
            )
        else:
            violations = reference_check_probe_path(path, self.asn_of, path.epoch)
        if not violations:
            return event
        screened = self.validator.screen_path(path, violations, self.asn_of)
        if screened is None:
            return None
        return ProbeEvent(tick=event.tick, seq=event.seq, path=screened)

    def _ingest_feed(self, event, kind: str, observation) -> Optional[StreamEvent]:
        seq = getattr(observation, "seq", None)
        record = f"{kind} feed message seq={seq}"
        sequenced = seq is not None and seq >= 0
        highest = self._highest[kind]
        if observation in self._seen[kind]:
            violation = Violation(FEED_DUP, record, "duplicate feed message")
        elif sequenced and highest is not None and seq < highest:
            violation = Violation(
                FEED_ORDER,
                record,
                f"sequence ran backwards ({highest} -> {seq})",
            )
        else:
            self._seen[kind].add(observation)
            if sequenced:
                self._highest[kind] = seq
            return event
        self.validator.drop_feed_message(violation)
        return None
