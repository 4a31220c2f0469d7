"""Per-run accounting of what the fault plan took away.

Graceful degradation is only trustworthy when it is *legible*: a run
that silently lost half its probes reads like a bad algorithm instead of
a bad measurement plane.  Every faulted measurement step increments a
counter here; the report travels on the
:class:`~repro.experiments.runner.RunRecord` and is folded into the
batch-level :class:`~repro.experiments.runner.RunnerStats`, whose
rendering surfaces the totals next to the accuracy numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List

__all__ = [
    "CORRUPTION_COUNTERS",
    "DegradationCounters",
    "DegradationReport",
    "ENSEMBLE_COUNTERS",
    "RUN_COUNTERS",
    "VALIDATION_COUNTERS",
    "add_counters",
]


def _counter(group: str):
    """A per-run counter field rendered in accounting ``group``."""
    return field(default=0, metadata={"group": group})


@dataclass
class DegradationCounters:
    """Every per-run counter, declared once.

    Each counter is tagged with its group: ``fault`` (a measurement the
    plan took away), ``corruption`` (the measurement plane lied),
    ``validation`` (what :mod:`repro.validate` detected or did about it)
    and ``ensemble`` (hitting-set vs empathy agreement: observations, not
    faults).  :class:`DegradationReport` adds one run's free-form detail;
    the runner's placement and batch statistics extend the same
    declaration to sum the counters over a batch.
    """

    probes_dropped: int = _counter("fault")
    probes_truncated: int = _counter("fault")
    hops_anonymized: int = _counter("fault")
    sensors_down: int = _counter("fault")
    pairs_discarded: int = _counter("fault")
    masked_failures: int = _counter("fault")
    lg_failures: int = _counter("fault")
    lg_retries: int = _counter("fault")
    lg_exhausted: int = _counter("fault")
    lg_rate_limited: int = _counter("fault")
    withdrawals_lost: int = _counter("fault")
    withdrawals_delayed: int = _counter("fault")
    igp_lost: int = _counter("fault")
    igp_delayed: int = _counter("fault")
    feed_outages: int = _counter("fault")
    degraded_diagnoses: int = _counter("fault")
    hops_forged: int = _counter("corruption")
    hops_duplicated: int = _counter("corruption")
    loops_injected: int = _counter("corruption")
    reach_bits_flipped: int = _counter("corruption")
    stale_replays: int = _counter("corruption")
    feed_messages_duplicated: int = _counter("corruption")
    feed_messages_misordered: int = _counter("corruption")
    lg_stale_answers: int = _counter("corruption")
    invariant_violations: int = _counter("validation")
    traces_repaired: int = _counter("validation")
    traces_quarantined: int = _counter("validation")
    stale_rounds_dropped: int = _counter("validation")
    feed_messages_repaired: int = _counter("validation")
    feed_messages_quarantined: int = _counter("validation")
    lg_paths_quarantined: int = _counter("validation")
    sensors_excluded: int = _counter("validation")
    rediagnoses: int = _counter("validation")
    ensemble_agreements: int = _counter("ensemble")
    ensemble_partials: int = _counter("ensemble")
    ensemble_conflicts: int = _counter("ensemble")

    def any_faults_seen(self) -> bool:
        """True when any counter but the ensemble verdicts is non-zero:
        an agreeing ensemble is not a degraded run."""
        return any(
            getattr(self, name)
            for name in RUN_COUNTERS
            if name not in ENSEMBLE_COUNTERS
        )

    def any_corruption_seen(self) -> bool:
        """True when any corruption-injection counter is non-zero."""
        return any(getattr(self, name) for name in CORRUPTION_COUNTERS)

    def any_validation_seen(self) -> bool:
        """True when input screening detected or acted on anything."""
        return any(getattr(self, name) for name in VALIDATION_COUNTERS)

    def any_ensemble_seen(self) -> bool:
        """True when any ensemble diagnosis graded its members."""
        return any(getattr(self, name) for name in ENSEMBLE_COUNTERS)


def _group(name: str):
    return tuple(
        f.name for f in fields(DegradationCounters) if f.metadata["group"] == name
    )


#: Every per-run counter name, in declaration order.
RUN_COUNTERS = tuple(f.name for f in fields(DegradationCounters))
CORRUPTION_COUNTERS = _group("corruption")
VALIDATION_COUNTERS = _group("validation")
ENSEMBLE_COUNTERS = _group("ensemble")


def add_counters(into, other, names: Iterable[str] = RUN_COUNTERS) -> None:
    """``into.<name> += other.<name>`` for every counter in ``names``."""
    for name in names:
        setattr(into, name, getattr(into, name) + getattr(other, name))


@dataclass
class DegradationReport(DegradationCounters):
    """What one diagnosis run had to live without.

    ``diagnoser_errors`` maps algorithm label to the number of times its
    diagnosis failed outright and an empty best-effort hypothesis was
    scored instead; ``notes`` carries free-form one-liners ("control
    feed outage") for humans reading a single run.
    """

    diagnoser_errors: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def is_degraded(self) -> bool:
        """True when any fault actually fired on this run."""
        return self.any_faults_seen() or bool(self.diagnoser_errors)

    def record_ensemble_verdict(self, verdict: str) -> None:
        """One ensemble diagnosis graded its members' agreement."""
        field_name = {
            "agree": "ensemble_agreements",
            "partial": "ensemble_partials",
            "conflict": "ensemble_conflicts",
        }.get(verdict)
        if field_name is None:
            from repro.errors import EmpathyError

            raise EmpathyError(f"unknown ensemble verdict {verdict!r}")
        setattr(self, field_name, getattr(self, field_name) + 1)

    def note(self, message: str) -> None:
        """Record a human-readable degradation event (deduplicated)."""
        if message not in self.notes:
            self.notes.append(message)

    def record_diagnoser_error(self, label: str) -> None:
        """One diagnoser failed on this run's partial inputs."""
        self.degraded_diagnoses += 1
        self.diagnoser_errors[label] = self.diagnoser_errors.get(label, 0) + 1

    def as_dict(self) -> Dict[str, int]:
        """Flat counter snapshot."""
        return {name: getattr(self, name) for name in RUN_COUNTERS}
