"""Per-event screening at the stream's front door.

The batch pipeline screens whole rounds at snapshot-assembly time
(:meth:`repro.validate.Validator.screen_store`); a stream cannot wait
for a round to complete.  :class:`StreamIngestor` screens each event the
moment it arrives and hands every violating record to the same
:class:`~repro.validate.Validator` policy — ``strict`` raises the
typed :class:`~repro.errors.ValidationError`, ``repair`` applies the
canonical fixups, ``quarantine`` drops the record — so a corrupted
observation never reaches the window, the episode detector, or a
diagnoser.

Only probe events carry enough structure for the trace invariants.
Their verdict is a pure function of the path content (the ingestor's
mapper and epochs are fixed), and a quiet stream repeats the same
traceroutes round after round, so each distinct path is checked once and
its verdict memoised; every event is still counted and every violation
still handed to the policy.  Control-plane messages pass one
:class:`~repro.validate.FeedScreen` per feed kind, the batch
quarantine's admission rule kept for the whole run: a duplicate of an
already-ingested message, or one whose feed sequence runs backwards, is
dropped.  Heartbeats, dropouts and bare reachability bits have no
invariants to lie about and always pass.

Every decision is counted on the validator's
:class:`~repro.faults.DegradationReport`; :meth:`StreamIngestor.counters`
reads the stream report's ingest line off it.
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
from repro.validate import POLICIES, FeedScreen, Validator, check_probe_path
from repro.validate.invariants import Violation

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
        self.validator = Validator(policy=policy)
        self.events_screened = 0
        self._feeds = {"igp": FeedScreen(), "bgp": FeedScreen()}
        self._verdicts: Dict[ProbePath, Tuple[Violation, ...]] = {}

    @property
    def policy(self) -> str:
        return self.validator.policy

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
        screened = self.validator.screen_path(path, violations, self.asn_of)
        if screened is None:
            return None
        return ProbeEvent(tick=event.tick, seq=event.seq, path=screened)

    # ---- control-plane feeds

    def _ingest_feed(self, event, kind: str, observation) -> Optional[StreamEvent]:
        """Admit one feed message, or drop it.

        A stream has no "whole feed" to sort, so ``repair`` degrades to
        ``quarantine`` here: dropping the out-of-order duplicate *is*
        the canonical incremental fixup (re-sorting history would mean
        rewriting already-consumed events).
        """
        dropped = self._feeds[kind].admit(observation)
        if dropped is None:
            return event
        invariant, detail = dropped
        record = f"{kind} feed message seq={getattr(observation, 'seq', None)}"
        self.validator.drop_feed_message(Violation(invariant, record, detail))
        return None

    def counters(self) -> Dict[str, int]:
        """Ingest accounting for the stream report, read off the ledger."""
        ledger = self.validator.degradation
        return {
            "events_screened": self.events_screened,
            "events_quarantined": ledger.stale_rounds_dropped
            + ledger.traces_quarantined
            + ledger.feed_messages_quarantined,
            "events_repaired": ledger.traces_repaired,
        }
