"""Per-event screening at the stream's front door.

The batch pipeline screens whole rounds at snapshot-assembly time
(:meth:`repro.validate.Validator.screen_store`); a stream cannot wait
for a round to complete.  :class:`StreamIngestor` screens each event the
moment it arrives, under the same three policies — ``strict`` raises the
same :class:`~repro.errors.ValidationError`, ``repair`` applies the same
canonical fixups, ``quarantine`` drops the record — so a corrupted
observation never reaches the window, the episode detector, or a
diagnoser.

Only probe events carry enough structure for the trace invariants.
Their verdict is a pure function of the path content (the ingestor's
mapper and epochs are fixed), and a quiet stream repeats the same
traceroutes round after round, so each distinct path is checked once and
its verdict memoised; every event is still counted and every violation
still reported and handled.  Control-plane events are screened against
the feed invariants *per-message* (a duplicate of an already-ingested
message, or a message whose feed sequence runs backwards per feed kind,
is a violation).  Heartbeats, dropouts and bare reachability bits have
no invariants to lie about and always pass.

Accounting lands on the shared :class:`~repro.validate.ValidationReport`
so the stream CLI renders the same counters as the batch runner.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.pathset import ProbePath
from repro.errors import StreamError
from repro.stream.events import (
    IgpLinkDownEvent,
    ProbeEvent,
    StreamEvent,
    WithdrawalEvent,
)
from repro.validate import (
    POLICIES,
    REPAIR,
    TRACE_EPOCH,
    Validator,
    check_probe_path,
    repair_probe_path,
)
from repro.validate.invariants import FEED_DUP, FEED_ORDER, Violation

__all__ = ["StreamIngestor"]

#: Distinct path contents the verdict memo holds before it is cleared;
#: a replayed placement repeats about a thousand.
_VERDICT_MEMO_LIMIT = 1 << 16


class StreamIngestor:
    """Screens stream events one at a time under a validation policy.

    ``asn_of`` is the address→ASN mapper the trace invariants need;
    ``expected_epochs`` the set of epoch tags the stream may carry
    (both ``pre`` and ``post`` are legitimate in a stream — only a tag
    outside the set is a stale replay).  Both are fixed for the
    ingestor's lifetime, which is what lets it memoise the verdict per
    path content.
    """

    def __init__(
        self,
        asn_of: Callable[[str], Optional[int]],
        policy: str,
        expected_epochs: Tuple[str, ...],
    ) -> None:
        if policy not in POLICIES:
            raise StreamError(
                f"unknown validation policy {policy!r}; "
                f"expected one of {', '.join(POLICIES)}"
            )
        self.asn_of = asn_of
        self.expected_epochs = tuple(expected_epochs)
        # Reuse the batch Validator for its policy dispatch + accounting;
        # the per-event screening below feeds its bookkeeping hooks.
        self.validator = Validator(policy=policy)
        self.events_screened = 0
        self.events_quarantined = 0
        self.events_repaired = 0
        # Per-feed-kind dedup/ordering state, mirroring check_feed but
        # incrementally: observations seen so far and highest seq.
        self._feed_seen: Dict[str, set] = {"igp": set(), "bgp": set()}
        self._feed_highest: Dict[str, Optional[int]] = {"igp": None, "bgp": None}
        self._verdicts: Dict[ProbePath, Tuple[Violation, ...]] = {}

    @property
    def policy(self) -> str:
        return self.validator.policy

    @property
    def report(self):
        return self.validator.report

    def ingest(self, event: StreamEvent) -> Optional[StreamEvent]:
        """Screen one event.

        Returns the event (possibly with a repaired payload) when it may
        proceed, or ``None`` when it was quarantined.  Under ``strict`` a
        violation raises :class:`~repro.errors.ValidationError`.
        """
        self.events_screened += 1
        if isinstance(event, ProbeEvent):
            return self._ingest_probe(event)
        if isinstance(event, WithdrawalEvent):
            return self._ingest_feed(event, "bgp", event.observation)
        if isinstance(event, IgpLinkDownEvent):
            return self._ingest_feed(event, "igp", event.observation)
        return event

    # ---- probes

    def _verdict(self, path: ProbePath) -> Tuple[Violation, ...]:
        """The path's trace-invariant violations, checked once per content."""
        violations = self._verdicts.get(path)
        if violations is None:
            epoch = path.epoch
            if epoch not in self.expected_epochs:
                epoch = self.expected_epochs[-1]
            violations = check_probe_path(path, self.asn_of, epoch)
            if len(self._verdicts) >= _VERDICT_MEMO_LIMIT:
                self._verdicts.clear()
            self._verdicts[path] = violations
        return violations

    def _ingest_probe(self, event: ProbeEvent) -> Optional[ProbeEvent]:
        path = event.path
        violations = self._verdict(path)
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

    # ---- control-plane feeds

    def _ingest_feed(self, event, kind: str, observation) -> Optional[StreamEvent]:
        """Incremental FEED_DUP / FEED_ORDER screening for one message.

        A stream has no "whole feed" to sort, so ``repair`` degrades to
        ``quarantine`` here: dropping the out-of-order duplicate *is*
        the canonical incremental fixup (re-sorting history would mean
        rewriting already-consumed events).
        """
        seq = getattr(observation, "seq", None)
        sequenced = seq is not None and seq >= 0
        highest = self._feed_highest[kind]
        if observation in self._feed_seen[kind]:
            invariant, detail = FEED_DUP, "duplicate feed message"
        elif sequenced and highest is not None and seq < highest:
            invariant = FEED_ORDER
            detail = f"sequence ran backwards ({highest} -> {seq})"
        else:
            self._feed_seen[kind].add(observation)
            if sequenced:
                self._feed_highest[kind] = seq
            return event
        record = f"{kind} feed message seq={seq}"
        # Raises under strict.
        self.validator._found([Violation(invariant, record, detail)])
        report = self.validator.report
        report.feed_messages_quarantined += 1
        report.record_quarantine(invariant)
        self.events_quarantined += 1
        return None

    def counters(self) -> Dict[str, int]:
        """Ingest accounting for the stream report."""
        return {
            "events_screened": self.events_screened,
            "events_quarantined": self.events_quarantined,
            "events_repaired": self.events_repaired,
        }
