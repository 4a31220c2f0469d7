"""Ensemble verdicts: run hitting-set and empathy side by side, compare.

:class:`EnsembleDiagnoser` runs two or more member diagnosers on the same
snapshot and grades their agreement at the metric granularity (undirected
physical links, the same space the paper scores hypotheses in):

* ``agree`` — identical physical hypotheses (including both empty);
* ``partial`` — overlapping but not identical;
* ``conflict`` — disjoint non-empty hypotheses, or exactly one empty.

The ensemble's own hypothesis is the union of the members' (it never
hides a suspect either family found); the verdict and per-member
attribution ride in ``details["ensemble"]``, where the streaming engine
and the degradation report pick them up.  :class:`EnsembleDisagreement`
is the typed counter triple those layers aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.core.diagnoser import NetDiagnoser
from repro.core.linkspace import PhysicalLink
from repro.core.pathset import MeasurementSnapshot
from repro.core.result import DiagnosisResult
from repro.empathy.diagnoser import EmpathyDiagnoser
from repro.errors import DiagnosisError, EmpathyError, ReproError

__all__ = [
    "VERDICT_AGREE",
    "VERDICT_PARTIAL",
    "VERDICT_CONFLICT",
    "VERDICTS",
    "compare_hypotheses",
    "EnsembleDisagreement",
    "EnsembleDiagnoser",
]

VERDICT_AGREE = "agree"
VERDICT_PARTIAL = "partial"
VERDICT_CONFLICT = "conflict"

#: All verdicts, ordered best to worst.
VERDICTS = (VERDICT_AGREE, VERDICT_PARTIAL, VERDICT_CONFLICT)


def compare_hypotheses(
    a: FrozenSet[PhysicalLink], b: FrozenSet[PhysicalLink]
) -> str:
    """Grade two physical hypotheses: agree / partial / conflict."""
    if a == b:
        return VERDICT_AGREE
    if a & b:
        return VERDICT_PARTIAL
    return VERDICT_CONFLICT


@dataclass
class EnsembleDisagreement:
    """Typed agree/partial/conflict tally, mergeable across runs."""

    agree: int = 0
    partial: int = 0
    conflict: int = 0

    def record(self, verdict: str) -> None:
        if verdict not in VERDICTS:
            raise EmpathyError(f"unknown ensemble verdict {verdict!r}")
        setattr(self, verdict, getattr(self, verdict) + 1)

    def merge(self, other: "EnsembleDisagreement") -> None:
        self.agree += other.agree
        self.partial += other.partial
        self.conflict += other.conflict

    @property
    def total(self) -> int:
        return self.agree + self.partial + self.conflict

    def agreement_rate(self) -> float:
        """Fraction of verdicts that at least overlap (agree or partial)."""
        if not self.total:
            return 1.0
        return (self.agree + self.partial) / self.total

    def as_dict(self) -> Dict[str, int]:
        return {
            "agree": self.agree,
            "partial": self.partial,
            "conflict": self.conflict,
        }


class EnsembleDiagnoser:
    """Run several member diagnosers per episode and grade agreement.

    Parameters
    ----------
    members:
        Ordered label -> diagnoser mapping; at least two.  Defaults to
        the paper's best control-plane-free hitting-set variant
        (``nd-edge``) against the empathy engine.
    """

    variant = "ensemble"

    def __init__(self, members: Optional[Mapping[str, object]] = None) -> None:
        if members is None:
            members = {
                "nd-edge": NetDiagnoser("nd-edge"),
                "empathy": EmpathyDiagnoser(),
            }
        self.members = dict(members)
        if len(self.members) < 2:
            raise EmpathyError(
                f"an ensemble needs at least two member diagnosers, got "
                f"{len(self.members)}"
            )

    def diagnose(
        self,
        snapshot: MeasurementSnapshot,
        control: object = None,
        lg_lookup: object = None,
    ) -> DiagnosisResult:
        if not snapshot.any_failure():
            raise DiagnosisError(
                "nothing to diagnose: every probed pair is reachable "
                "(the troubleshooter is only invoked on unreachabilities)"
            )
        results: Dict[str, DiagnosisResult] = {}
        errors: Dict[str, str] = {}
        last_error: Optional[ReproError] = None
        for label, member in self.members.items():
            try:
                results[label] = member.diagnose(
                    snapshot, control=control, lg_lookup=lg_lookup
                )
            except ReproError as exc:
                errors[label] = str(exc)
                last_error = exc
        if not results:
            raise DiagnosisError(
                f"every ensemble member failed: {errors}"
            ) from last_error

        labels = list(results)
        pairwise: Dict[str, str] = {}
        worst = VERDICT_AGREE
        for i, a in enumerate(labels):
            for b in labels[i + 1:]:
                verdict = compare_hypotheses(
                    results[a].physical_hypothesis(),
                    results[b].physical_hypothesis(),
                )
                pairwise[f"{a}|{b}"] = verdict
                if VERDICTS.index(verdict) > VERDICTS.index(worst):
                    worst = verdict

        hypothesis = frozenset().union(*(r.hypothesis for r in results.values()))
        excluded = frozenset.intersection(
            *(r.excluded for r in results.values())
        ) - hypothesis
        # Reason over the widest member universe so specificity stays
        # comparable with the member that saw the most links.
        graph = max(results.values(), key=lambda r: len(r.graph)).graph
        first = results[labels[0]]
        return DiagnosisResult(
            algorithm="ensemble",
            hypothesis=hypothesis,
            graph=graph,
            excluded=excluded,
            unexplained_failures=first.unexplained_failures,
            unexplained_reroutes=first.unexplained_reroutes,
            details={
                "ensemble": {
                    "verdict": worst,
                    "pairwise": pairwise,
                    "members": {
                        label: {
                            "algorithm": results[label].algorithm,
                            "hypothesis_size": results[label].hypothesis_size(),
                            "fully_explained": results[label].fully_explained,
                        }
                        for label in labels
                    },
                    "errors": errors,
                },
            },
        )
