"""Typed invariants over diagnosis inputs, and their checkers.

Every invariant has a stable string id (``trace-loop``, ``feed-order``,
...) used two ways: naming the violation in a strict-mode
:class:`~repro.errors.ValidationError`, and labelling rows of the
policy matrix in ``docs/robustness.md``.  Checkers are pure
functions returning :class:`Violation` tuples — policy (raise, repair,
drop) lives in :mod:`repro.validate.engine`, not here.

The invariants are deliberately *local*: each one is decidable from the
record plus the IP-to-AS mapping, so a checker never needs simulator
ground truth — exactly what a real NOC-side validator would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.core.pathset import PathStore, ProbePath

__all__ = [
    "INVARIANTS",
    "TRACE_DUP",
    "TRACE_LOOP",
    "TRACE_UNRESOLVED",
    "TRACE_REACH_BIT",
    "TRACE_EPOCH",
    "ROUND_PAIRS",
    "ROUND_BASELINE",
    "FEED_DUP",
    "FEED_ORDER",
    "LG_PATH",
    "Violation",
    "describe_path",
    "check_probe_path",
    "check_rounds",
    "check_feed",
    "check_lg_path",
]

#: Consecutive identical identified hops (a duplicated hop record).
TRACE_DUP = "trace-dup"
#: A non-adjacent revisit of an identified hop (a routing loop).
TRACE_LOOP = "trace-loop"
#: An identified hop address that maps to no topology router.
TRACE_UNRESOLVED = "trace-unresolved"
#: ``reached`` flag inconsistent with the hop sequence: the trace ends at
#: the destination sensor yet claims the probe did not reach.
TRACE_REACH_BIT = "trace-reach-bit"
#: A record tagged with a different epoch than the round it sits in —
#: the clock-skew / stale-replay fingerprint of §6.
TRACE_EPOCH = "trace-epoch"
#: The T- and T+ rounds cover different probe pair sets.
ROUND_PAIRS = "round-pairs"
#: A T- probe that did not reach (no usable baseline for the pair).
ROUND_BASELINE = "round-baseline"
#: A control-plane feed message observed more than once.
FEED_DUP = "feed-dup"
#: Feed sequence numbers not monotonically increasing.
FEED_ORDER = "feed-order"
#: A Looking Glass AS path that does not start at the queried AS or
#: revisits an AS (inconsistent with any real BGP best path).
LG_PATH = "lg-path"

INVARIANTS = (
    TRACE_DUP,
    TRACE_LOOP,
    TRACE_UNRESOLVED,
    TRACE_REACH_BIT,
    TRACE_EPOCH,
    ROUND_PAIRS,
    ROUND_BASELINE,
    FEED_DUP,
    FEED_ORDER,
    LG_PATH,
)


@dataclass(frozen=True)
class Violation:
    """One invariant violated by one record.

    ``invariant`` is a stable id from :data:`INVARIANTS`; ``record``
    identifies the screened record the way an operator would name it
    (``"probe 10.0.0.1->10.0.9.2 [post]"``); ``detail`` pinpoints the
    offending element within it.
    """

    invariant: str
    record: str
    detail: str = ""


def describe_path(path: ProbePath, expected_epoch: Optional[str] = None) -> str:
    """Canonical record label for a probe path."""
    epoch = expected_epoch if expected_epoch is not None else path.epoch
    return f"probe {path.src}->{path.dst} [{epoch}]"


def check_probe_path(
    path: ProbePath,
    asn_of: Callable[[str], Optional[int]],
    expected_epoch: Optional[str] = None,
) -> Tuple[Violation, ...]:
    """All per-record invariant violations of one probe path.

    Checks epoch consistency, hop resolvability, duplicated hops,
    routing loops and the reachability bit.  UH hops are skipped by the
    address checks: a star is an *absence* of data, not a lie, and
    carries per-position identity by construction.
    """
    # (invariant, detail) pairs; the record label is formatted only when
    # something is found, as most screened paths are clean.
    found = []
    if expected_epoch is not None and path.epoch != expected_epoch:
        found.append(
            (TRACE_EPOCH, f"tagged epoch {path.epoch!r}, round is {expected_epoch!r}")
        )
    seen = {}
    previous = None
    for index, hop in enumerate(path.hops):
        if not isinstance(hop, str):
            previous = hop
            continue
        if asn_of(hop) is None:
            found.append(
                (TRACE_UNRESOLVED, f"hop {index} address {hop} resolves to no router")
            )
        if hop == previous:
            found.append((TRACE_DUP, f"hop {index} repeats {hop}"))
        elif hop in seen:
            found.append(
                (TRACE_LOOP, f"hop {index} revisits {hop} (first seen at {seen[hop]})")
            )
        if hop not in seen:
            seen[hop] = index
        previous = hop
    if not path.reached and path.hops[-1] == path.dst and len(path.hops) > 1:
        found.append(
            (TRACE_REACH_BIT, "trace ends at the destination sensor yet reached=False")
        )
    if not found:
        return ()
    record = describe_path(path, expected_epoch)
    return tuple(Violation(invariant, record, detail) for invariant, detail in found)


def check_rounds(
    before: PathStore, after: PathStore
) -> Tuple[Violation, ...]:
    """Cross-round invariants: equal pair sets and a reached T- baseline."""
    violations = []
    before_pairs = set(before.pairs())
    after_pairs = set(after.pairs())
    for pair in sorted(before_pairs ^ after_pairs):
        where = "T-" if pair in before_pairs else "T+"
        violations.append(
            Violation(
                ROUND_PAIRS,
                f"pair {pair[0]}->{pair[1]}",
                f"measured only in the {where} round",
            )
        )
    for pair in before.pairs():
        if not before.get(pair).reached:
            violations.append(
                Violation(
                    ROUND_BASELINE,
                    f"pair {pair[0]}->{pair[1]}",
                    "T- probe did not reach; no baseline for this pair",
                )
            )
    return tuple(violations)


def check_feed(
    messages: Sequence, kind: str = "feed"
) -> Tuple[Violation, ...]:
    """Feed-stream invariants: no duplicates, sequence numbers monotonic.

    ``messages`` are frozen observation records carrying an optional
    ``seq`` field (``-1`` = unsequenced; ordering is only checked across
    sequenced messages).  Duplicates are full-record duplicates — a real
    collector deduplicates on message identity, and the corruption mode
    replays the identical record.
    """
    violations = []
    seen = set()
    highest = None
    for position, message in enumerate(messages):
        record = f"{kind} message #{position}"
        if message in seen:
            violations.append(
                Violation(FEED_DUP, record, f"duplicate of {message}")
            )
            continue
        seen.add(message)
        seq = getattr(message, "seq", -1)
        if seq is not None and seq >= 0:
            if highest is not None and seq < highest:
                violations.append(
                    Violation(
                        FEED_ORDER,
                        record,
                        f"seq {seq} arrived after seq {highest}",
                    )
                )
            else:
                highest = seq
    return tuple(violations)


def check_lg_path(
    asn: int,
    path: Sequence[int],
    dst_address: str,
    epoch: str,
) -> Tuple[Violation, ...]:
    """Looking Glass answer invariants.

    A genuine BGP best path reported by AS ``asn`` starts at ``asn``
    itself and never revisits an AS (BGP's loop prevention guarantees
    as much for any honestly-reported path).  A stale or cache-served
    answer breaks one of the two.
    """
    record = f"LG answer from AS{asn} for {dst_address} [{epoch}]"
    violations = []
    if not path:
        violations.append(Violation(LG_PATH, record, "empty AS path"))
        return tuple(violations)
    if path[0] != asn:
        violations.append(
            Violation(
                LG_PATH,
                record,
                f"path starts at AS{path[0]}, not the queried AS{asn}",
            )
        )
    seen = set()
    for hop_asn in path:
        if hop_asn in seen:
            violations.append(
                Violation(LG_PATH, record, f"path revisits AS{hop_asn}")
            )
            break
        seen.add(hop_asn)
    return tuple(violations)
