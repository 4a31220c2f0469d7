"""Degradation curves: diagnosis quality vs measurement fault rate.

The paper assumes a clean measurement plane; this harness asks how each
algorithm holds up when it is not.  A uniform
:class:`~repro.faults.FaultConfig` sweeps the fault rate from 0 to 0.5
across every injected fault mode at once — dropped/truncated/anonymised
traceroutes, sensor dropout, flaky and rate-limited Looking Glasses, and
a lossy BGP/IGP control feed — and every diagnoser (Tomo, ND-edge,
ND-bgpigp, ND-LG) is scored on single intradomain link failures at each
rate.

Expected shape: all curves start at their clean-measurement values and
decay as faults eat measurements; the runs themselves must *never* crash
— a diagnoser that cannot cope with the partial inputs is scored with an
empty best-effort hypothesis, and the accounting shows up in the
``-- runner stats`` block (probes dropped, sensors down, LG retries,
feed outages, degraded diagnoses...).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from repro.diagnosers import make_diagnosers
from repro.experiments.figures.base import FigureConfig, FigureResult, Series
from repro.experiments.jobs import CoreAsx, ResearchTopoFactory, StubPlacement
from repro.experiments.runner import RunnerStats, run_kind_batch
from repro.experiments.stats import mean
from repro.faults import FaultConfig

__all__ = ["run", "DEFAULT_FAULT_RATES"]

DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def _journal_path(
    base: Union[str, Path, None], rate: float
) -> Optional[Path]:
    """One journal file per swept rate (each rate is its own batch)."""
    if base is None:
        return None
    base = Path(base)
    return base.with_name(f"{base.name}.rate{rate:.2f}")


def run(
    config: FigureConfig = FigureConfig(),
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    journal: Union[str, Path, None] = None,
    resume: bool = False,
    corrupt: bool = False,
    validation: Optional[str] = None,
) -> FigureResult:
    """Sweep the uniform fault rate and score every algorithm at each.

    ``journal``/``resume`` checkpoint each rate's batch to
    ``<journal>.rate<r>`` files.

    ``corrupt=True`` switches the swept axis from *omission* faults
    (:meth:`~repro.faults.FaultConfig.uniform`) to *corruption* modes
    (:meth:`~repro.faults.FaultConfig.corruption` — forged/duplicated
    hops, injected loops, flipped reachability bits, stale replayed
    rounds, duplicated/misordered feed messages, stale LG answers).
    ``validation`` screens every run's inputs under the named
    :mod:`repro.validate` policy; a corruption sweep without validation
    shows what lying data does to undefended algorithms, while
    ``validation="quarantine"`` (the CI smoke configuration) must
    complete every rate with zero unhandled exceptions.
    """
    diagnosers = make_diagnosers(
        {"tomo": None,
         "nd-edge": None,
         "nd-bgpigp": {"ignore_unidentified": True},
         "nd-lg": None}
    )
    curves = {
        f"{label}/{metric}": []
        for label in diagnosers
        for metric in ("sensitivity", "fp-rate")
    }
    stats = RunnerStats()
    for rate in fault_rates:
        records = run_kind_batch(
            topo_factory=ResearchTopoFactory(topo_seed=config.topo_seed),
            placement_fn=StubPlacement(config.n_sensors),
            kinds=("link-1",),
            diagnosers=diagnosers,
            placements=config.placements,
            failures_per_placement=config.failures_per_placement,
            seed=config.seed,
            asx_selector=CoreAsx(),
            # The corruption axis needs ND-LG to actually *query* external
            # Looking Glasses (lg-stale answers) — blocked ASes force that;
            # the omission axis keeps the historical all-visible setup.
            blocked_fraction=0.3 if corrupt else 0.0,
            lg_fraction=1.0,
            intra_failures_only=True,
            fault_config=(
                FaultConfig.corruption(rate)
                if corrupt
                else FaultConfig.uniform(rate)
            ),
            validation=validation,
            workers=config.workers,
            stats=stats,
            journal=_journal_path(journal, rate),
            resume=resume,
        )
        recs = records["link-1"]
        if not recs:
            continue
        for label in diagnosers:
            curves[f"{label}/sensitivity"].append(
                (rate, mean([r.scores[label].link.sensitivity for r in recs]))
            )
            curves[f"{label}/fp-rate"].append(
                (rate, mean([1.0 - r.scores[label].link.specificity for r in recs]))
            )
    if corrupt:
        title = (
            "Diagnosis quality vs measurement corruption rate "
            f"(validation={validation or 'off'})"
        )
        notes = [
            "all algorithms start at their clean-measurement accuracy",
            "corrupt records lie instead of vanishing; without validation "
            "they flow into the hypothesis set",
            "under repair/quarantine every screened record is accounted in "
            "the runner-stats block; no run crashes",
        ]
    else:
        title = "Diagnosis quality vs measurement fault rate (all fault modes)"
        notes = [
            "all algorithms start at their clean-measurement accuracy",
            "sensitivity decays as faults remove measurements; no run crashes",
            "ND-LG additionally degrades through flaky/rate-limited LGs",
            "the runner-stats block accounts for every fault injected",
        ]
    result = FigureResult(
        figure_id="degradation",
        title=title,
        notes=notes,
    )
    for name, points in curves.items():
        result.series.append(
            Series(
                name=name,
                points=points,
                x_label="uniform fault rate",
                y_label=name.split("/", 1)[1],
            )
        )
    result.runner_stats = stats
    return result
