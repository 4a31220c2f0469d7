"""Input validation, repair and quarantine for diagnosis inputs.

PR 3 made the pipeline survive *missing* data; this package makes it
survive *lying* data — forged hops, injected loops, stale rounds
replayed as current, flipped reachability bits, duplicated or
misordered feed messages, Looking Glass answers served from the wrong
table.  Every diagnosis input is screened against typed invariants
(:mod:`repro.validate.invariants`) before any algorithm sees it, under
one of three per-run policies:

* :data:`STRICT` — raise :class:`~repro.errors.ValidationError` naming
  record and invariant;
* :data:`REPAIR` — apply the canonical deterministic fixups of
  :mod:`repro.validate.repair`;
* :data:`QUARANTINE` — drop offending records and diagnose best-effort.

Each decision is counted once, on the validator's
:class:`~repro.faults.DegradationReport`.  The stream's ingestor hands
every violating record to the same :class:`Validator` policy, and
admits feed messages through the same :class:`FeedScreen` as the batch
quarantine.

The corruption modes that exercise this layer live in
:mod:`repro.faults` (:data:`~repro.faults.CORRUPTION_MODES`), driven by
the same seeded plan machinery as the omission faults so parallel and
serial sweeps corrupt — and screen — bit-identically.
"""

from repro.validate.engine import (
    POLICIES,
    FeedScreen,
    QUARANTINE,
    REPAIR,
    STRICT,
    Validator,
)
from repro.validate.invariants import (
    FEED_DUP,
    FEED_ORDER,
    INVARIANTS,
    LG_PATH,
    ROUND_BASELINE,
    ROUND_PAIRS,
    TRACE_DUP,
    TRACE_EPOCH,
    TRACE_LOOP,
    TRACE_REACH_BIT,
    TRACE_UNRESOLVED,
    Violation,
    check_feed,
    check_lg_path,
    check_probe_path,
    check_rounds,
)
from repro.validate.repair import repair_feed, repair_probe_path

__all__ = [
    "POLICIES",
    "STRICT",
    "REPAIR",
    "QUARANTINE",
    "FeedScreen",
    "Validator",
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
    "check_feed",
    "check_lg_path",
    "check_probe_path",
    "check_rounds",
    "repair_feed",
    "repair_probe_path",
]
