"""The validation policy engine: strict, repair, or quarantine.

A :class:`Validator` is created per diagnosis run and threaded through
the collector seams (snapshot assembly, control-plane feed, LG lookups);
the stream's :class:`~repro.stream.ingest.StreamIngestor` keeps one for
its whole life.  Every screened record either passes, is canonically
repaired, or is dropped — according to one policy for the whole run:

* ``strict`` — raise a typed :class:`~repro.errors.ValidationError`
  naming the record and the invariant.  For CI and for debugging a
  corrupted archive: no lying record gets past the front door.
* ``repair`` — apply the canonical fixups of
  :mod:`repro.validate.repair`; records whose violation has no sound
  repair (a stale epoch tag, an LG answer from the wrong table) are
  quarantined instead.
* ``quarantine`` — drop every offending record and diagnose
  best-effort on what remains, as the collector does with omissions.

Every decision is counted once, on the validator's
:class:`~repro.faults.DegradationReport` — the run's own when one is
given, so the totals travel the existing RunnerStats path and surface
in ``-- runner stats``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.core.pathset import PathStore, ProbePath
from repro.errors import MeasurementError, ValidationError
from repro.faults import DegradationReport
from repro.validate.invariants import (
    FEED_DUP,
    FEED_ORDER,
    TRACE_EPOCH,
    Violation,
    check_feed,
    check_lg_path,
    check_probe_path,
    check_rounds,
)
from repro.validate.repair import repair_feed, repair_probe_path

__all__ = ["STRICT", "REPAIR", "QUARANTINE", "POLICIES", "FeedScreen", "Validator"]

STRICT = "strict"
REPAIR = "repair"
QUARANTINE = "quarantine"
POLICIES = (STRICT, REPAIR, QUARANTINE)


class FeedScreen:
    """Admission of one feed's messages, one at a time.

    A message is dropped when it repeats an admitted one, or when it is
    sequenced (``seq >= 0``) below the highest admitted ``seq``.
    """

    def __init__(self) -> None:
        self.seen = set()
        self.highest: Optional[int] = None

    def admit(self, message) -> Optional[Tuple[str, str]]:
        """``None`` when ``message`` is admitted, else why it is dropped:
        an ``(invariant, detail)`` pair."""
        if message in self.seen:
            return FEED_DUP, "duplicate feed message"
        seq = getattr(message, "seq", -1)
        sequenced = seq is not None and seq >= 0
        if sequenced and self.highest is not None and seq < self.highest:
            return FEED_ORDER, f"sequence ran backwards ({self.highest} -> {seq})"
        self.seen.add(message)
        if sequenced:
            self.highest = seq
        return None


class Validator:
    """Screens diagnosis inputs under one policy, with full accounting."""

    def __init__(
        self,
        policy: str = QUARANTINE,
        degradation: Optional[DegradationReport] = None,
    ) -> None:
        if policy not in POLICIES:
            raise MeasurementError(
                f"unknown validation policy {policy!r}; "
                f"expected one of {', '.join(POLICIES)}"
            )
        self.policy = policy
        self.degradation = (
            DegradationReport() if degradation is None else degradation
        )

    def _found(self, violations: Sequence[Violation]) -> None:
        """Record detections (and raise, under strict)."""
        self.degradation.invariant_violations += len(violations)
        if self.policy == STRICT and violations:
            first = violations[0]
            raise ValidationError(first.invariant, first.record, first.detail)

    # ---- probe paths / measurement rounds

    def screen_path(
        self,
        path: ProbePath,
        violations: Sequence[Violation],
        asn_of: Callable[[str], Optional[int]],
    ) -> Optional[ProbePath]:
        """Apply the policy to one probe path and its (non-empty)
        ``violations``.

        Returns the path to keep — repaired under ``repair`` — or
        ``None`` when it is dropped.
        """
        self._found(violations)
        if any(v.invariant == TRACE_EPOCH for v in violations):
            # No sound repair for a record from the wrong epoch:
            # quarantined under every non-strict policy.
            self.degradation.stale_rounds_dropped += 1
            self.degradation.note("stale measurement round detected")
            return None
        if self.policy == REPAIR:
            self.degradation.traces_repaired += 1
            return repair_probe_path(path, asn_of)
        self.degradation.traces_quarantined += 1
        return None

    def screen_store(
        self,
        store: PathStore,
        asn_of: Callable[[str], Optional[int]],
        expected_epoch: str,
    ) -> PathStore:
        """Screen one measurement round path-by-path.

        Returns the store itself when every path is clean; otherwise a
        new store holding the surviving (possibly repaired) paths.
        """
        kept = []
        changed = False
        for path in store.paths():
            violations = check_probe_path(path, asn_of, expected_epoch)
            if violations:
                changed = True
                path = self.screen_path(path, violations, asn_of)
            if path is not None:
                kept.append(path)
        if not changed:
            return store
        rebuilt = PathStore()
        for path in kept:
            rebuilt.add(path)
        return rebuilt

    def screen_rounds(
        self, before: PathStore, after: PathStore
    ) -> Tuple[PathStore, PathStore]:
        """Enforce the cross-round invariants (pair sets, T- baseline).

        Under repair/quarantine the only sound fix is the one the
        collector already applies to omission faults: drop the pair
        from both rounds and count it.
        """
        violations = check_rounds(before, after)
        if not violations:
            return before, after
        self._found(violations)
        bad_pairs = {
            pair
            for pair in before.pairs()
            if not before.get(pair).reached
        }
        new_before, new_after = PathStore(), PathStore()
        for pair in before.pairs():
            if pair in bad_pairs or pair not in after:
                continue
            new_before.add(before.get(pair))
            new_after.add(after.get(pair))
        self.degradation.pairs_discarded += len(
            set(before.pairs()) | set(after.pairs())
        ) - len(new_before)
        return new_before, new_after

    # ---- control-plane feed streams

    def screen_feed(self, messages: Sequence, kind: str) -> Tuple:
        """Screen one feed stream (IGP link-downs or BGP withdrawals)."""
        violations = check_feed(messages, kind)
        if not violations:
            return tuple(messages)
        self._found(violations)
        if self.policy == REPAIR:
            self.degradation.feed_messages_repaired += len(violations)
            return repair_feed(messages)
        screen = FeedScreen()
        kept = tuple(m for m in messages if screen.admit(m) is None)
        self.degradation.feed_messages_quarantined += len(messages) - len(kept)
        return kept

    def drop_feed_message(self, violation: Violation) -> None:
        """Count one feed message a :class:`FeedScreen` did not admit
        (raises under strict)."""
        self._found((violation,))
        self.degradation.feed_messages_quarantined += 1

    # ---- Looking Glass answers

    def screen_lg_path(
        self,
        asn: int,
        path: Optional[Tuple[int, ...]],
        dst_address: str,
        epoch: str,
    ) -> Optional[Tuple[int, ...]]:
        """Screen one LG answer; a bad path degrades to "no answer".

        There is no sound repair for a stale Looking Glass answer (the
        true current path is simply unknown), so both non-strict
        policies quarantine: to ND-LG the AS looks like one with no
        public Looking Glass — exactly how a flaky LG degrades.
        """
        if path is None:
            return None
        violations = check_lg_path(asn, path, dst_address, epoch)
        if not violations:
            return path
        self._found(violations)
        self.degradation.lg_paths_quarantined += 1
        return None
