"""Cross-validation: hitting-set vs empathy on the same fault scenarios.

The two families localize the same events from disjoint evidence — one
builds minimum hitting sets over changed paths, the other clusters
traceroutes that change together.  This experiment runs both (or any set
of registry diagnosers) on identical sampled scenarios and reports, per
fault kind, each engine's precision/recall/cost plus the pairwise
agreement matrix graded with the ensemble verdicts
(``agree``/``partial``/``conflict``).  It is the batch twin of the
streaming :class:`~repro.empathy.EnsembleDiagnoser` and the experiment
behind ``python -m repro crossval``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.diagnosers import make_diagnosers
from repro.empathy.ensemble import EnsembleDisagreement, compare_hypotheses
from repro.errors import ControlPlaneFeedError, EmpathyError, ScenarioError
from repro.experiments.jobs import CoreAsx, ResearchTopoFactory, StubPlacement
from repro.experiments.runner import ground_truth_links, make_session
from repro.measurement.collector import collect_control_plane, take_snapshot

__all__ = ["CrossvalConfig", "CrossvalResult", "ScenarioOutcome", "run_crossval"]


@dataclass(frozen=True)
class CrossvalConfig:
    """Knobs of one cross-validation sweep (research-165 by default)."""

    seed: int = 0
    topo_seed: int = 100
    placements: int = 2
    failures_per_kind: int = 6
    n_sensors: int = 8
    kinds: Tuple[str, ...] = ("link-1", "link-2", "misconfig")
    diagnosers: Tuple[str, ...] = ("nd-edge", "empathy")


@dataclass(frozen=True)
class ScenarioOutcome:
    """One diagnoser's score on one sampled scenario."""

    kind: str
    label: str
    precision: float
    recall: float
    cost_ms: float
    hypothesis_size: int


@dataclass
class CrossvalResult:
    """Everything one sweep measured: per-scenario scores + agreement."""

    config: CrossvalConfig
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    matrix: Dict[Tuple[str, str], EnsembleDisagreement] = field(
        default_factory=dict
    )
    scenarios_run: int = 0
    scenarios_rejected: int = 0

    def _select(self, label: str, kind=None, metric="recall") -> List[float]:
        return [
            getattr(o, metric)
            for o in self.outcomes
            if o.label == label and (kind is None or o.kind == kind)
        ]

    def mean_recall(self, label: str, kind=None) -> float:
        values = self._select(label, kind, "recall")
        return sum(values) / len(values) if values else 0.0

    def mean_precision(self, label: str, kind=None) -> float:
        values = self._select(label, kind, "precision")
        return sum(values) / len(values) if values else 0.0

    def mean_cost_ms(self, label: str, kind=None) -> float:
        values = self._select(label, kind, "cost_ms")
        return sum(values) / len(values) if values else 0.0

    def agreement_rate(self, a: str, b: str) -> float:
        """Fraction of scenarios where ``a`` and ``b`` at least overlap."""
        key = (a, b) if (a, b) in self.matrix else (b, a)
        try:
            return self.matrix[key].agreement_rate()
        except KeyError:
            raise EmpathyError(
                f"no agreement recorded between {a!r} and {b!r}"
            ) from None

    def render(self) -> str:
        lines = [
            "== crossval: per-kind diagnoser metrics ==",
            f"   scenarios={self.scenarios_run}  "
            f"rejected={self.scenarios_rejected}  "
            f"placements={self.config.placements}  "
            f"sensors={self.config.n_sensors}",
            "",
            f"   {'kind':<16}{'diagnoser':<12}{'n':>4}"
            f"{'recall':>9}{'precision':>11}{'cost-ms':>10}",
        ]
        for kind in self.config.kinds:
            for label in self.config.diagnosers:
                n = len(self._select(label, kind))
                if not n:
                    continue
                lines.append(
                    f"   {kind:<16}{label:<12}{n:>4}"
                    f"{self.mean_recall(label, kind):>9.3f}"
                    f"{self.mean_precision(label, kind):>11.3f}"
                    f"{self.mean_cost_ms(label, kind):>10.2f}"
                )
        lines.append("")
        lines.append("-- agreement matrix (ensemble verdicts)")
        for (a, b), tally in sorted(self.matrix.items()):
            lines.append(
                f"   {a}|{b}: agree={tally.agree}  partial={tally.partial}  "
                f"conflict={tally.conflict}  "
                f"(rate={tally.agreement_rate():.2f})"
            )
        return "\n".join(lines)


def run_crossval(config: CrossvalConfig = CrossvalConfig()) -> CrossvalResult:
    """Run the sweep: same scenarios, every diagnoser, graded agreement.

    Sampling mirrors :class:`~repro.experiments.runner.PlacementJob`
    (same topology factory, stub placement and resample budget), so the
    scenarios are the familiar batch population — only the scoring keeps
    the raw hypotheses long enough to grade pairwise agreement.
    """
    if len(config.diagnosers) < 2:
        raise EmpathyError(
            "cross-validation needs at least two diagnosers to compare, "
            f"got {list(config.diagnosers)}"
        )
    if "nd-lg" in config.diagnosers:
        raise EmpathyError(
            "nd-lg needs a Looking Glass deployment; crossval compares "
            "the snapshot-only engines"
        )
    diagnosers = make_diagnosers(config.diagnosers)
    result = CrossvalResult(config=config)
    labels = list(diagnosers)
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            result.matrix[(a, b)] = EnsembleDisagreement()

    topo_factory = ResearchTopoFactory(topo_seed=config.topo_seed)
    placement_fn = StubPlacement(config.n_sensors)
    asx_selector = CoreAsx()
    for placement in range(config.placements):
        rng = random.Random(f"{config.seed}/crossval/{placement}")
        topo = topo_factory(placement)
        session = make_session(topo, placement_fn(topo, rng), rng)
        asx = asx_selector(topo, rng)
        for kind in config.kinds:
            produced = 0
            budget = 5 * config.failures_per_kind
            while produced < config.failures_per_kind and budget > 0:
                budget -= 1
                try:
                    scenario = session.sampler.sample(kind)
                except ScenarioError:
                    break  # this placement cannot produce this kind
                snapshot = take_snapshot(
                    session.sim,
                    session.sensors,
                    session.base_state,
                    scenario.after_state,
                )
                if not snapshot.any_failure():
                    result.scenarios_rejected += 1
                    continue
                truth = (
                    ground_truth_links(session.net, scenario.event)
                    & session.probed_physical()
                )
                if not truth:
                    result.scenarios_rejected += 1
                    continue
                try:
                    control = collect_control_plane(
                        session.sim, asx, session.base_state, scenario.after_state
                    )
                except ControlPlaneFeedError:
                    control = None
                hypotheses: Dict[str, frozenset] = {}
                for label, diagnoser in diagnosers.items():
                    started = time.perf_counter()
                    diagnosis = diagnoser.diagnose(snapshot, control=control)
                    cost_ms = (time.perf_counter() - started) * 1000.0
                    hypothesis = diagnosis.physical_hypothesis()
                    hypotheses[label] = hypothesis
                    found = len(hypothesis & truth)
                    result.outcomes.append(
                        ScenarioOutcome(
                            kind=kind,
                            label=label,
                            precision=(
                                found / len(hypothesis) if hypothesis else 0.0
                            ),
                            recall=found / len(truth),
                            cost_ms=cost_ms,
                            hypothesis_size=len(hypothesis),
                        )
                    )
                for i, a in enumerate(labels):
                    for b in labels[i + 1:]:
                        result.matrix[(a, b)].record(
                            compare_hypotheses(hypotheses[a], hypotheses[b])
                        )
                result.scenarios_run += 1
                produced += 1
    if not result.scenarios_run:
        raise EmpathyError(
            "cross-validation produced no admissible scenarios; widen "
            "placements/failures_per_kind or change the seed"
        )
    return result
