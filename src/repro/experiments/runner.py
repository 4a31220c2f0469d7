"""Experiment runner: the converge → inject → measure → diagnose → score loop.

One :class:`Session` is a sensor deployment over a topology (the paper's
"sensor placement"); :func:`run_scenario` executes a sampled failure
against it with a set of configured diagnosers and scores every diagnosis
at link and AS granularity.  Figure modules drive batches of these runs.

Batches are embarrassingly parallel across placements: each placement
builds its own topology, session and RNG (seeded ``f"{seed}/{i}"``), so
:func:`run_kind_batch` packages every placement as a self-contained
:class:`PlacementJob` and can execute them through a
``ProcessPoolExecutor`` (``workers=`` knob) with bit-identical results to
the serial path.  Parallel execution requires the job callables
(``topo_factory`` etc.) to be picklable — use the ready-made callables in
:mod:`repro.experiments.jobs`; unpicklable jobs fall back to serial with
a warning.
"""

from __future__ import annotations

import logging
import os
import pickle
import random
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.consistency import (
    exclude_sensor_reports,
    implicated_sensors,
    suspect_working_pairs,
)
from repro.core.diagnosability import diagnosability
from repro.core.diagnoser import NetDiagnoser
from repro.core.graph import InferredGraph
from repro.core.linkspace import PhysicalLink, physical_link
from repro.core.metrics import MetricPair, as_projection, sensitivity, specificity
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, PathStore
from repro.core.result import DiagnosisResult
from repro.errors import ControlPlaneFeedError, JobTimeoutError, ScenarioError
from repro.faults import (
    DegradationCounters,
    DegradationReport,
    FaultConfig,
    FaultPlan,
)
from repro.faults.report import add_counters
from repro.measurement.collector import (
    collect_control_plane,
    make_lg_lookup,
    take_snapshot,
)
from repro.measurement.probing import probe_mesh
from repro.measurement.sensors import Sensor, deploy_sensors
from repro.netsim.events import Event
from repro.netsim.gen.internet import ResearchInternet
from repro.netsim.lookingglass import LookingGlassService
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Internetwork, NetworkState
from repro.validate import Validator
from repro.experiments import jobs as job_callables
from repro.experiments.journal import RunJournal
from repro.experiments.scenarios import Scenario, ScenarioSampler

logger = logging.getLogger(__name__)

__all__ = [
    "Session",
    "AlgorithmScore",
    "RunRecord",
    "PlacementJob",
    "PlacementResult",
    "BatchCounters",
    "PlacementStats",
    "RunnerStats",
    "make_session",
    "choose_blocked_ases",
    "ground_truth_links",
    "covered_ases",
    "run_scenario",
    "build_placement_jobs",
    "run_kind_batch",
    "resolve_workers",
    "DEFAULT_MAX_JOB_RETRIES",
    "DEFAULT_RETRY_BACKOFF_SECONDS",
]

#: Total attempts per placement job = 1 + this many retries.
DEFAULT_MAX_JOB_RETRIES = 2

#: Base of the exponential backoff between job retries, in seconds
#: (retry ``k`` waits ``base * 2**(k-1)``).
DEFAULT_RETRY_BACKOFF_SECONDS = 0.5


@dataclass
class Session:
    """One sensor deployment ready to take failures.

    What depends on the base state alone is derived once, on first use.
    """

    topo: ResearchInternet
    sim: Simulator
    sensors: List[Sensor]
    base_state: NetworkState
    sampler: ScenarioSampler
    _rounds: Dict[str, tuple] = field(default_factory=dict, init=False, repr=False)
    _coverage: Optional[FrozenSet[int]] = field(default=None, init=False, repr=False)
    _probed: Optional[FrozenSet[PhysicalLink]] = field(
        default=None, init=False, repr=False
    )

    @property
    def net(self) -> Internetwork:
        return self.sim.net

    def baseline_round(
        self, blocked_ases: FrozenSet[int], epoch: str = EPOCH_PRE
    ) -> PathStore:
        """The mesh under the base state with ``epoch``'s tags, probed once
        per blocked-AS set (one slot per epoch), so its paths and graphs
        keep their memos.  The T+ round reads its untouched pairs' paths
        off the ``EPOCH_POST`` one."""
        slot = self._rounds.get(epoch)
        if slot is None or slot[0] != blocked_ases:
            store = probe_mesh(
                self.sim, self.sensors, self.base_state, blocked_ases, epoch
            )
            slot = self._rounds[epoch] = (blocked_ases, store)
        return slot[1]

    def base_coverage(self) -> FrozenSet[int]:
        """:func:`covered_ases` under the base state, computed once."""
        if self._coverage is None:
            self._coverage = covered_ases(self, self.base_state)
        return self._coverage

    def probed_physical(self) -> FrozenSet[PhysicalLink]:
        """The sampler's probed links as metric-space physical tokens,
        computed once."""
        if self._probed is None:
            net = self.net
            self._probed = frozenset(
                physical_link(
                    net.router(net.link(lid).a).address,
                    net.router(net.link(lid).b).address,
                )
                for lid in self.sampler.probed_links
            )
        return self._probed


@dataclass
class AlgorithmScore:
    """Scores of one diagnoser on one scenario."""

    algorithm: str
    link: MetricPair
    as_level: MetricPair
    hypothesis_size: int
    physical_hypothesis_size: int
    fully_explained: bool


@dataclass
class RunRecord:
    """Everything recorded about one (placement, failure) run.

    ``degradation`` is populated when the run executed under an active
    fault plan: it accounts for every measurement the faults took away
    and every diagnoser that had to settle for an empty best-effort
    hypothesis.
    """

    kind: str
    description: str
    diagnosability: float
    n_failed_pairs: int
    n_rerouted_pairs: int
    scores: Dict[str, AlgorithmScore] = field(default_factory=dict)
    degradation: Optional[DegradationReport] = None


def make_session(
    topo: ResearchInternet,
    router_ids: Sequence[int],
    rng: random.Random,
    intra_failures_only: bool = False,
) -> Session:
    """Deploy sensors on the given gateways and prepare a sampler."""
    sensors = deploy_sensors(topo.net, list(router_ids))
    sensor_asns = {topo.net.asn_of_router(s.router_id) for s in sensors}
    sim = Simulator(topo.net, sensor_asns)
    base = NetworkState.nominal()
    sampler = ScenarioSampler(
        sim, sensors, rng, base_state=base, intra_failures_only=intra_failures_only
    )
    return Session(
        topo=topo, sim=sim, sensors=sensors, base_state=base, sampler=sampler
    )


def choose_blocked_ases(
    session: Session,
    fraction: float,
    rng: random.Random,
    protected: FrozenSet[int] = frozenset(),
) -> FrozenSet[int]:
    """Pick the ASes that block traceroutes (§5.4).

    Blocking is sampled among the ASes the probes actually cover ("the
    ASes on the paths"), excluding sensor host ASes (their single gateway
    is an identified probe endpoint anyway) and anything in ``protected``
    (AS-X never hides from itself).
    """
    sensor_asns = {
        session.net.asn_of_router(s.router_id) for s in session.sensors
    }
    pool = sorted(
        session.base_coverage()
        - sensor_asns
        - set(protected)
    )
    count = round(fraction * len(pool))
    return frozenset(rng.sample(pool, count)) if count else frozenset()


def ground_truth_links(
    net: Internetwork, event: Event
) -> FrozenSet[PhysicalLink]:
    """The failed/misconfigured links as metric-space physical tokens."""
    truth = set()
    for lid in event.physical_ground_truth(net):
        link = net.link(lid)
        truth.add(
            physical_link(net.router(link.a).address, net.router(link.b).address)
        )
    return frozenset(truth)


def ground_truth_ases(net: Internetwork, event: Event) -> FrozenSet[int]:
    """The ASes containing the failed/misconfigured links."""
    ases: Set[int] = set()
    for lid in event.physical_ground_truth(net):
        ases.update(net.link_asns(lid))
    return frozenset(ases)


def covered_ases(session: Session, state: NetworkState) -> FrozenSet[int]:
    """Ground-truth ASes the probe mesh traverses under ``state``."""
    ases: Set[int] = set()
    for src in session.sensors:
        for dst in session.sensors:
            if src.sensor_id == dst.sensor_id:
                continue
            trace = session.sim.trace(state, src.router_id, dst.router_id)
            for rid in trace.router_path():
                ases.add(session.net.asn_of_router(rid))
    return frozenset(ases)


def run_scenario(
    session: Session,
    scenario: Scenario,
    diagnosers: Mapping[str, NetDiagnoser],
    asx: Optional[int] = None,
    blocked_ases: FrozenSet[int] = frozenset(),
    lg_service: Optional[LookingGlassService] = None,
    faults: Optional[FaultPlan] = None,
    validation: Optional[str] = None,
) -> RunRecord:
    """Measure, diagnose with every configured diagnoser, and score.

    With an active fault plan the run is *best-effort*: measurement
    faults degrade the inputs, a control-feed outage degrades to
    ``control=None``, and a diagnoser that cannot cope with the partial
    inputs is scored with an empty hypothesis instead of crashing the
    sweep.  Everything taken away is accounted on the record's
    :class:`~repro.faults.DegradationReport`.

    ``validation`` (a :mod:`repro.validate` policy name) screens every
    measurement input against the typed invariants before diagnosis:
    ``strict`` raises :class:`~repro.errors.ValidationError` on the
    first lying record, ``repair``/``quarantine`` fix or drop records
    with full accounting.  Under an active validation policy a diagnosis
    whose hypothesis is physically contradicted by a working-pair report
    triggers one bounded re-diagnosis with the most-implicated sensor's
    reports excluded (the ``core.consistency`` loop).
    """
    sim, sensors = session.sim, session.sensors
    before, after = session.base_state, scenario.after_state
    report = (
        DegradationReport()
        if faults is not None or validation is not None
        else None
    )
    validator = (
        Validator(validation, degradation=report)
        if validation is not None
        else None
    )

    # Faults and screening act on fresh rounds; otherwise the T- round is
    # reused whole and the T+ round for every pair the event leaves alone.
    fresh = faults is not None or validator is not None
    snapshot = take_snapshot(
        sim,
        sensors,
        before,
        after,
        blocked_ases,
        faults=faults,
        report=report,
        validator=validator,
        baseline=None if fresh else session.baseline_round(blocked_ases),
        baseline_post=(
            None if fresh else session.baseline_round(blocked_ases, EPOCH_POST)
        ),
    )
    control = None
    if asx is not None:
        try:
            control = collect_control_plane(
                sim,
                asx,
                before,
                after,
                faults=faults,
                report=report,
                validator=validator,
            )
        except ControlPlaneFeedError:
            control = None  # diagnose without control-plane inputs
    lg_lookup = (
        make_lg_lookup(
            sim,
            lg_service,
            before,
            after,
            asx=asx,
            faults=faults,
            report=report,
            validator=validator,
        )
        if lg_service is not None
        else None
    )

    truth_links = ground_truth_links(session.net, scenario.event)
    truth_ases = ground_truth_ases(session.net, scenario.event)
    universe_ases = session.base_coverage() | truth_ases
    before_graph = snapshot.before.physical_graph()
    # Ground-truth probed links: under blocked traceroutes a probed link may
    # be invisible in the *measured* universe (it shows up as UH tokens),
    # yet it still belongs to the sensitivity denominator — the algorithm
    # is rightly penalised for being unable to name it.
    visible_truth = truth_links & session.probed_physical()
    if not visible_truth:
        raise ScenarioError(
            "scenario admitted but none of its failed links were probed"
        )

    record = RunRecord(
        kind=scenario.kind,
        description=scenario.event.describe(session.net),
        diagnosability=diagnosability(before_graph),
        n_failed_pairs=len(snapshot.failed_pairs()),
        n_rerouted_pairs=len(snapshot.rerouted_pairs()),
        degradation=report,
    )
    masked = report is not None and not snapshot.any_failure()
    if masked:
        # The event did break pairs (the sampler admitted it) but the
        # surviving measurements no longer show any unreachability —
        # the faults (or the screening) masked or removed every failed
        # pair.  Nothing to hand the algorithms; every diagnoser scores
        # an empty hypothesis.
        report.masked_failures += 1
        report.note("failure masked by measurement faults")
    for label, diagnoser in diagnosers.items():
        if masked:
            result = _empty_result(label, diagnoser, before_graph)
        elif report is not None:
            try:
                result = diagnoser.diagnose(
                    snapshot, control=control, lg_lookup=lg_lookup
                )
            except Exception as exc:  # best-effort: degrade, never crash
                logger.debug(
                    "%s failed on degraded inputs (%s: %s); scoring an "
                    "empty hypothesis",
                    label, type(exc).__name__, exc,
                )
                report.record_diagnoser_error(label)
                result = _empty_result(label, diagnoser, before_graph)
            else:
                if validator is not None:
                    result = _rediagnose_on_contradiction(
                        label,
                        diagnoser,
                        snapshot,
                        control,
                        lg_lookup,
                        result,
                        report,
                        before_graph,
                    )
        else:
            result = diagnoser.diagnose(
                snapshot, control=control, lg_lookup=lg_lookup
            )
        if report is not None:
            ensemble = result.details.get("ensemble") or {}
            verdict = ensemble.get("verdict")
            if verdict is not None:
                report.record_ensemble_verdict(verdict)
        record.scores[label] = _score(
            result, snapshot.asn_of, visible_truth, truth_ases, universe_ases
        )
        logger.debug(
            "%s on '%s': sens=%.2f spec=%.3f |H|=%d",
            label,
            record.description,
            record.scores[label].link.sensitivity,
            record.scores[label].link.specificity,
            record.scores[label].hypothesis_size,
        )
    return record


def _empty_result(
    label: str, diagnoser: NetDiagnoser, graph: InferredGraph
) -> DiagnosisResult:
    """Best-effort stand-in when a diagnosis could not run at all."""
    return DiagnosisResult(
        algorithm=diagnoser.variant,
        hypothesis=frozenset(),
        graph=graph,
        details={"degraded": True},
    )


def _rediagnose_on_contradiction(
    label: str,
    diagnoser: NetDiagnoser,
    snapshot,
    control,
    lg_lookup,
    result: DiagnosisResult,
    report: DegradationReport,
    before_graph: InferredGraph,
) -> DiagnosisResult:
    """The validation-mode consistency loop: one bounded re-diagnosis.

    A hard physical contradiction — a pair *reported working* whose
    current path crosses a link the hypothesis claims broken — means a
    measurement lied in a way input screening cannot catch (the lying
    record is locally well-formed).  The most-implicated source sensor's
    reports are excluded and the diagnoser runs once more; the pass is
    bounded at one exclusion so a pathological snapshot cannot send the
    sweep spiralling.  If the re-diagnosis cannot run on the reduced
    snapshot, the original (contradicted) result stands — it is still
    the best available answer, and the exclusion is accounted either way.
    """
    suspects = suspect_working_pairs(snapshot, result)
    culprits = implicated_sensors(suspects)
    if not culprits:
        return result
    culprit = culprits[0]
    reduced = exclude_sensor_reports(snapshot, culprit)
    report.sensors_excluded += 1
    report.note(f"excluded sensor {culprit} after physical contradiction")
    if not reduced.any_failure():
        # Every failed pair was the excluded sensor's own claim; with
        # its reports gone there is nothing left to diagnose.
        return result
    report.rediagnoses += 1
    try:
        return diagnoser.diagnose(
            reduced, control=control, lg_lookup=lg_lookup
        )
    except Exception as exc:  # same best-effort contract as above
        logger.debug(
            "%s failed on the reduced snapshot (%s: %s); keeping the "
            "original diagnosis",
            label, type(exc).__name__, exc,
        )
        report.record_diagnoser_error(label)
        return result


def _score(
    result: DiagnosisResult,
    asn_of,
    visible_truth: FrozenSet[PhysicalLink],
    truth_ases: FrozenSet[int],
    universe_ases: FrozenSet[int],
) -> AlgorithmScore:
    universe = result.physical_universe()
    hypothesis = result.physical_hypothesis()
    uh_tags = result.details.get("uh_tags", {})
    hypothesis_ases = as_projection(result.hypothesis, asn_of, uh_tags)
    return AlgorithmScore(
        algorithm=result.algorithm,
        link=MetricPair(
            sensitivity(visible_truth, hypothesis),
            specificity(universe, visible_truth, hypothesis),
        ),
        as_level=MetricPair(
            sensitivity(truth_ases, hypothesis_ases),
            specificity(universe_ases, truth_ases, hypothesis_ases),
        ),
        hypothesis_size=len(result.hypothesis),
        physical_hypothesis_size=len(hypothesis),
        fully_explained=result.fully_explained,
    )


@dataclass
class BatchCounters(DegradationCounters):
    """What one placement records and a batch sums.

    The per-run :class:`~repro.faults.report.DegradationCounters`, the
    scenario counters, the cache and convergence counters (the keys of
    :meth:`~repro.netsim.simulator.Simulator.cache_stats`:
    ``prefixes_converged`` counts per-prefix route computations,
    ``prefixes_reused`` counts baseline RIBs shared by the engine's
    incremental path) and the two phase times.  ``setup_seconds`` and
    ``scenario_seconds`` are CPU-phase time measured inside the (possibly
    child) process running a placement.
    """

    records: int = 0
    scenarios_sampled: int = 0
    scenarios_rejected: int = 0
    budget_exhaustions: int = 0
    trace_cache_entries: int = 0
    trace_cache_hits: int = 0
    trace_cache_misses: int = 0
    trace_cache_evictions: int = 0
    routing_cache_entries: int = 0
    routing_cache_hits: int = 0
    routing_cache_misses: int = 0
    routing_cache_evictions: int = 0
    full_converges: int = 0
    incremental_converges: int = 0
    prefixes_converged: int = 0
    prefixes_reused: int = 0
    rib_prefixes_owned: int = 0
    rib_prefixes_shared: int = 0
    rib_cow_copies: int = 0
    setup_seconds: float = 0.0
    scenario_seconds: float = 0.0


#: Every field a placement records and a batch sums.
BATCH_COUNTERS = tuple(f.name for f in fields(BatchCounters))


@dataclass
class PlacementStats(BatchCounters):
    """Timing and accounting of one placement job."""

    placement_index: int = 0

    def record_cache_stats(self, cache_stats: Mapping[str, int]) -> None:
        """Copy a simulator's ``cache_stats()`` snapshot into the fields."""
        for key, value in cache_stats.items():
            if hasattr(self, key):
                setattr(self, key, value)

    def record_degradation(self, report: Optional[DegradationReport]) -> None:
        """Add one run's fault accounting into the placement counters."""
        if report is not None:
            add_counters(self, report)


@dataclass
class RunnerStats(BatchCounters):
    """Aggregated accounting of one :func:`run_kind_batch` call.

    ``setup_seconds``/``scenario_seconds`` are **aggregate CPU seconds**:
    per-phase time summed over every placement's (worker) process.
    ``wall_seconds`` is the batch's wall clock as seen by the caller — the
    only number comparable to "how long did it take".  Under
    ``workers > 1`` the CPU sums legitimately exceed the wall time, and
    the cpu/wall ratio is the realised parallel speedup.

    The resilience counters account for the batch executor itself:
    placements that timed out (``jobs_timed_out``), died with their
    worker process (``jobs_crashed``), were re-submitted
    (``jobs_retried``), exhausted their retry budget (``jobs_failed``),
    were replayed from a resume journal (``placements_resumed``), and
    whole batches that degraded to serial because the jobs were not
    picklable (``serial_fallbacks``).
    """

    workers: int = 1
    placements: int = 0
    jobs_timed_out: int = 0
    jobs_crashed: int = 0
    jobs_retried: int = 0
    jobs_failed: int = 0
    serial_fallbacks: int = 0
    placements_resumed: int = 0
    wall_seconds: float = 0.0
    per_placement: List[PlacementStats] = field(default_factory=list)

    def ensemble_disagreement(self):
        """The typed agree/partial/conflict tally of this batch."""
        from repro.empathy.ensemble import EnsembleDisagreement

        return EnsembleDisagreement(
            agree=self.ensemble_agreements,
            partial=self.ensemble_partials,
            conflict=self.ensemble_conflicts,
        )

    def absorb(self, stats: PlacementStats) -> None:
        """Fold one placement's accounting into the aggregate."""
        self.placements += 1
        add_counters(self, stats, BATCH_COUNTERS)
        self.per_placement.append(stats)


@dataclass
class PlacementResult:
    """Records and accounting one :class:`PlacementJob` produced."""

    placement_index: int
    records: Dict[str, List[RunRecord]]
    stats: PlacementStats


@dataclass
class PlacementJob:
    """One placement of the paper's standard batch, self-contained.

    Carries everything needed to build the topology, deploy the sensors
    and run the failures-per-kind loop — so it can execute in a worker
    process.  The RNG is seeded ``f"{seed}/{placement_index}"``, exactly
    as the historical serial loop did, which is what makes parallel and
    serial batches bit-identical.

    ``fault_config`` (when set and non-trivial) activates measurement
    fault injection: the job derives a
    :class:`~repro.faults.FaultPlan` seeded
    ``f"{seed}/{placement_index}"`` and re-scopes it per sampled
    scenario, so every fault draw is a pure function of the batch seed —
    independent of worker count, scheduling, or resume.

    ``validation`` (a :mod:`repro.validate` policy name, or ``None``)
    screens every run's measurement inputs before diagnosis; the policy
    string travels with the job so parallel workers validate exactly
    like the serial path.
    """

    placement_index: int
    seed: int
    topo_factory: object
    placement_fn: object
    kinds: Tuple[str, ...]
    diagnosers: Mapping[str, NetDiagnoser]
    failures_per_placement: int
    asx_selector: object = None
    blocked_fraction: float = 0.0
    lg_fraction: Optional[float] = None
    intra_failures_only: bool = False
    fault_config: Optional[FaultConfig] = None
    validation: Optional[str] = None

    def run(self) -> PlacementResult:
        """Build the session and run every kind's sampling loop."""
        started = time.perf_counter()
        rng = random.Random(f"{self.seed}/{self.placement_index}")
        topo = self.topo_factory(self.placement_index)
        session = make_session(
            topo,
            self.placement_fn(topo, rng),
            rng,
            intra_failures_only=self.intra_failures_only,
        )
        asx = (
            self.asx_selector(topo, rng)
            if self.asx_selector is not None
            else None
        )
        blocked = choose_blocked_ases(
            session,
            self.blocked_fraction,
            rng,
            protected=frozenset() if asx is None else frozenset({asx}),
        )
        lg_service = None
        if self.lg_fraction is not None:
            all_asns = [a.asn for a in session.net.ases()]
            count = round(self.lg_fraction * len(all_asns))
            lg_service = LookingGlassService(
                session.net, rng.sample(all_asns, count)
            )
        plan = (
            FaultPlan(f"{self.seed}/{self.placement_index}", self.fault_config)
            if self.fault_config is not None and self.fault_config.any_faults()
            else None
        )
        stats = PlacementStats(placement_index=self.placement_index)
        stats.setup_seconds = time.perf_counter() - started

        records: Dict[str, List[RunRecord]] = {kind: [] for kind in self.kinds}
        started = time.perf_counter()
        for kind in self.kinds:
            produced = 0
            resample_budget = 5 * self.failures_per_placement
            while produced < self.failures_per_placement and resample_budget > 0:
                resample_budget -= 1
                try:
                    scenario = session.sampler.sample(kind)
                except ScenarioError:
                    break  # this placement cannot produce this kind at all
                stats.scenarios_sampled += 1
                # Each sampled scenario gets its own fault scope so the
                # draws for scenario n never depend on how many probes
                # scenario n-1 happened to send.
                faults = (
                    plan.scoped(f"{kind}/{stats.scenarios_sampled}")
                    if plan is not None
                    else None
                )
                try:
                    record = run_scenario(
                        session,
                        scenario,
                        self.diagnosers,
                        asx=asx,
                        blocked_ases=blocked,
                        lg_service=lg_service,
                        faults=faults,
                        validation=self.validation,
                    )
                except ScenarioError:
                    stats.scenarios_rejected += 1
                    continue  # e.g. no failed link was probed: resample
                stats.record_degradation(record.degradation)
                records[kind].append(record)
                produced += 1
            if produced < self.failures_per_placement and resample_budget == 0:
                stats.budget_exhaustions += 1
        stats.scenario_seconds = time.perf_counter() - started
        stats.records = sum(len(lst) for lst in records.values())
        stats.record_cache_stats(session.sim.cache_stats())
        return PlacementResult(self.placement_index, records, stats)


def _execute_placement_job(job: PlacementJob) -> PlacementResult:
    """Module-level trampoline so executors pickle the job, not a method."""
    return job.run()


def build_placement_jobs(
    topo_factory,
    placement_fn,
    kinds: Sequence[str],
    diagnosers: Mapping[str, NetDiagnoser],
    placements: int,
    failures_per_placement: int,
    seed: int,
    asx_selector=None,
    blocked_fraction: float = 0.0,
    lg_fraction: Optional[float] = None,
    intra_failures_only: bool = False,
    fault_config: Optional[FaultConfig] = None,
    validation: Optional[str] = None,
) -> List[PlacementJob]:
    """The batch's work units, one per placement index."""
    return [
        PlacementJob(
            placement_index=index,
            seed=seed,
            topo_factory=topo_factory,
            placement_fn=placement_fn,
            kinds=tuple(kinds),
            diagnosers=dict(diagnosers),
            failures_per_placement=failures_per_placement,
            asx_selector=asx_selector,
            blocked_fraction=blocked_fraction,
            lg_fraction=lg_fraction,
            intra_failures_only=intra_failures_only,
            fault_config=fault_config,
            validation=validation,
        )
        for index in range(placements)
    ]


def resolve_workers(workers: int, n_jobs: int) -> int:
    """Effective worker count: ``0`` means all cores, capped at the jobs."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, n_jobs))


def _jobs_picklable(jobs: Sequence[PlacementJob]) -> bool:
    try:
        pickle.dumps(list(jobs))
    except (pickle.PicklingError, TypeError, AttributeError):
        return False
    return True


class _JobTracker:
    """Retry accounting shared by the serial and parallel backends.

    An attempt is charged when a job *fails* (crash, timeout, or
    in-worker exception), never when it is merely re-submitted after a
    pool rebuild took innocent bystanders down with it.  A job whose
    charged attempts exceed ``max_retries`` is dropped from the sweep:
    its absence costs one placement's records, not the batch.
    """

    def __init__(
        self,
        jobs: Sequence[PlacementJob],
        max_retries: int,
        backoff_base: float,
        stats: Optional[RunnerStats],
        journal: Optional[RunJournal],
        sleep: Callable[[float], None],
    ) -> None:
        self.queue: List[PlacementJob] = list(jobs)
        self.attempts: Dict[int, int] = {}
        self.results: Dict[int, PlacementResult] = {}
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.stats = stats
        self.journal = journal
        self.sleep = sleep

    def accept(self, result: PlacementResult) -> None:
        self.results[result.placement_index] = result
        if self.journal is not None:
            self.journal.append(result)

    def charge_failure(self, job: PlacementJob, reason: str) -> None:
        """Count one failed attempt; requeue with backoff or drop."""
        index = job.placement_index
        self.attempts[index] = self.attempts.get(index, 0) + 1
        if self.attempts[index] > self.max_retries:
            if self.stats is not None:
                self.stats.jobs_failed += 1
            logger.error(
                "placement %d failed permanently after %d attempts (%s); "
                "continuing the sweep without it",
                index, self.attempts[index], reason,
            )
            return
        if self.stats is not None:
            self.stats.jobs_retried += 1
        logger.warning(
            "placement %d attempt %d failed (%s); retrying",
            index, self.attempts[index], reason,
        )
        if self.backoff_base > 0:
            self.sleep(self.backoff_base * 2 ** (self.attempts[index] - 1))
        self.queue.append(job)


def _run_jobs_serial(tracker: _JobTracker) -> None:
    """In-process execution with bounded retries.

    A hard worker crash (``os._exit``) cannot be isolated without a
    subprocess; serial mode only guards against exceptions.
    """
    while tracker.queue:
        job = tracker.queue.pop(0)
        try:
            result = job.run()
        except Exception as exc:
            tracker.charge_failure(job, f"{type(exc).__name__}: {exc}")
            continue
        tracker.accept(result)


def _rebuild_pool(
    pool: ProcessPoolExecutor, n_workers: int
) -> ProcessPoolExecutor:
    """Replace a broken or clogged pool, reclaiming its worker processes.

    ``shutdown(wait=True)`` would join workers that may be stuck in an
    endless placement, so the processes are terminated first.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)
    return ProcessPoolExecutor(max_workers=n_workers)


def _run_jobs_parallel(
    tracker: _JobTracker, n_workers: int, job_timeout: Optional[float]
) -> None:
    """Crash-isolating, deadline-enforcing ProcessPoolExecutor loop.

    A dead worker breaks the whole pool and fails every in-flight
    future, so blame needs care: when more than one job was in flight,
    all of them are re-run one at a time (``isolate``) — an innocent
    job simply completes, and the culprit crashes alone, which is when
    its retry budget is charged.  A pool that breaks before a submit
    is handled alike, and the refused job stays queued, uncharged.  A
    job that exceeds ``job_timeout`` is charged immediately and its
    stuck worker is reclaimed by rebuilding the pool; the other
    in-flight jobs are re-submitted uncharged.
    """
    stats = tracker.stats
    pool = ProcessPoolExecutor(max_workers=n_workers)
    in_flight: Dict[object, Tuple[PlacementJob, Optional[float]]] = {}
    isolate: List[PlacementJob] = []

    def submit_head(queue: List[PlacementJob]) -> None:
        # The job leaves its queue only once the pool has accepted it.
        future = pool.submit(_execute_placement_job, queue[0])
        deadline = time.monotonic() + job_timeout if job_timeout else None
        in_flight[future] = (queue.pop(0), deadline)

    def pool_broke() -> None:
        # The pool is unusable and every in-flight future is doomed; move
        # those jobs to the isolation queue (uncharged), start a new pool.
        nonlocal pool
        if stats is not None:
            stats.jobs_crashed += 1
        isolate.extend(job for job, _deadline in in_flight.values())
        in_flight.clear()
        pool = _rebuild_pool(pool, n_workers)

    try:
        while tracker.queue or isolate or in_flight:
            try:
                if isolate:
                    if not in_flight:
                        submit_head(isolate)
                else:
                    while tracker.queue and len(in_flight) < n_workers:
                        submit_head(tracker.queue)
            except BrokenProcessPool:
                # A worker died after the last wait(): the job that could
                # not be submitted stays at the head of its queue.
                pool_broke()
                continue
            deadlines = [d for (_, d) in in_flight.values() if d is not None]
            wait_timeout = (
                max(0.0, min(deadlines) - time.monotonic())
                if deadlines
                else None
            )
            done, _ = wait(
                set(in_flight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                job, _deadline = in_flight.pop(future)
                try:
                    result = future.result()
                except BrokenProcessPool:
                    broken = True
                    if len(done) == 1 and not in_flight:
                        # The job was alone in flight: it is the culprit.
                        tracker.charge_failure(job, "worker process died")
                    else:
                        isolate.append(job)
                except Exception as exc:
                    tracker.charge_failure(
                        job, f"{type(exc).__name__}: {exc}"
                    )
                else:
                    tracker.accept(result)
            if broken:
                pool_broke()
                continue
            # Enforce deadlines on whatever is still running.
            now = time.monotonic()
            expired = [
                (future, job)
                for future, (job, deadline) in in_flight.items()
                if deadline is not None and now >= deadline and not future.done()
            ]
            if expired:
                # The stuck workers can only be reclaimed by rebuilding
                # the pool; innocent in-flight jobs are re-queued
                # without touching their retry budget.
                for future, job in expired:
                    del in_flight[future]
                    if stats is not None:
                        stats.jobs_timed_out += 1
                    tracker.charge_failure(
                        job,
                        str(
                            JobTimeoutError(
                                f"placement {job.placement_index} exceeded "
                                f"its {job_timeout:g}s wall-clock budget"
                            )
                        ),
                    )
                for future, (job, _deadline) in list(in_flight.items()):
                    if not future.done():
                        tracker.queue.insert(0, job)
                    else:
                        # Completed in the window between wait() and now.
                        try:
                            tracker.accept(future.result())
                        except Exception as exc:
                            tracker.charge_failure(
                                job, f"{type(exc).__name__}: {exc}"
                            )
                in_flight.clear()
                pool = _rebuild_pool(pool, n_workers)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)


def _callable_key(fn: Optional[Callable]):
    """A job callable as a journal fingerprint holds it: the
    :mod:`repro.experiments.jobs` dataclasses by value (their fields are
    the configuration), any other callable by qualified name."""
    if fn is None or type(fn).__module__ == job_callables.__name__:
        return fn
    return (
        f"{getattr(fn, '__module__', type(fn).__module__)}."
        f"{getattr(fn, '__qualname__', type(fn).__qualname__)}"
    )


def run_kind_batch(
    topo_factory,
    placement_fn,
    kinds: Sequence[str],
    diagnosers: Mapping[str, NetDiagnoser],
    placements: int,
    failures_per_placement: int,
    seed: int,
    asx_selector=None,
    blocked_fraction: float = 0.0,
    lg_fraction: Optional[float] = None,
    intra_failures_only: bool = False,
    fault_config: Optional[FaultConfig] = None,
    validation: Optional[str] = None,
    workers: int = 1,
    stats: Optional[RunnerStats] = None,
    job_timeout: Optional[float] = None,
    max_job_retries: int = DEFAULT_MAX_JOB_RETRIES,
    retry_backoff_seconds: float = DEFAULT_RETRY_BACKOFF_SECONDS,
    journal: Union[RunJournal, str, Path, None] = None,
    resume: bool = False,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, List[RunRecord]]:
    """Run the paper's standard batch: placements × failures per kind.

    ``topo_factory(placement_index)`` builds a fresh topology per placement
    (keeps sensor address pools and caches bounded);
    ``placement_fn(topo, rng)`` returns gateway router ids;
    ``asx_selector(topo, rng)`` optionally returns AS-X's ASN;
    ``lg_fraction`` (when not None) equips that fraction of ASes with
    Looking Glasses and enables ND-LG inputs; ``fault_config`` (when not
    None and non-trivial) injects deterministic measurement-plane faults
    into every run (see :mod:`repro.faults`); ``validation`` (a
    :mod:`repro.validate` policy name) screens every run's inputs
    against the typed invariants before diagnosis.

    ``workers`` selects the execution backend: ``1`` (default) runs the
    placements serially in-process, ``0`` uses every core, and ``n > 1``
    fans the placement jobs out over a ``ProcessPoolExecutor``.  Results
    are merged in placement order, so the record lists are bit-identical
    to a serial run.  Callables must be picklable for ``workers != 1``
    (see :mod:`repro.experiments.jobs`); unpicklable batches fall back to
    serial execution with a warning.  ``stats`` (a :class:`RunnerStats`)
    is populated with per-placement accounting when given.

    Resilience knobs: ``job_timeout`` bounds each placement's wall clock
    (parallel backend only — serial mode cannot pre-empt itself, and a
    batch that runs serially logs a warning that the timeout is ignored);
    ``max_job_retries`` re-runs a crashed/timed-out/raising placement
    with exponential backoff (``retry_backoff_seconds * 2**k``) before
    dropping it; a worker death fails at most the placements it was
    running, never the sweep.  ``journal`` (a path or a
    :class:`~repro.experiments.journal.RunJournal`) appends every
    completed placement to disk; ``resume=True`` replays completed
    placements from it and executes only the missing ones — merged
    output is bit-identical to an uninterrupted run.
    """
    jobs = build_placement_jobs(
        topo_factory,
        placement_fn,
        kinds,
        diagnosers,
        placements,
        failures_per_placement,
        seed,
        asx_selector=asx_selector,
        blocked_fraction=blocked_fraction,
        lg_fraction=lg_fraction,
        intra_failures_only=intra_failures_only,
        fault_config=fault_config,
        validation=validation,
    )
    wall_started = time.perf_counter()

    if journal is not None and not isinstance(journal, RunJournal):
        # Fingerprint every parameter that shapes the results; object
        # identities (factories, diagnoser instances) are reduced to
        # stable descriptions so resuming from another process works.
        fingerprint = {
            "topo_factory": _callable_key(topo_factory),
            "placement_fn": _callable_key(placement_fn),
            "asx_selector": _callable_key(asx_selector),
            "seed": seed,
            "placements": placements,
            "failures_per_placement": failures_per_placement,
            "kinds": tuple(kinds),
            "diagnosers": tuple(
                (label, d.variant) for label, d in diagnosers.items()
            ),
            "blocked_fraction": blocked_fraction,
            "lg_fraction": lg_fraction,
            "intra_failures_only": intra_failures_only,
            "fault_config": fault_config,
            "validation": validation,
        }
        journal = RunJournal(journal, fingerprint)

    n_workers = resolve_workers(workers, len(jobs))
    if n_workers > 1 and not _jobs_picklable(jobs):
        logger.warning(
            "placement jobs are not picklable (lambda callables?); "
            "falling back to serial execution — use the callables in "
            "repro.experiments.jobs to enable workers=%d",
            n_workers,
        )
        if stats is not None:
            stats.serial_fallbacks += 1
        n_workers = 1
    if job_timeout and n_workers == 1:
        logger.warning(
            "job_timeout=%gs is ignored: the batch runs serially, and the "
            "serial backend cannot pre-empt a placement",
            job_timeout,
        )

    tracker = _JobTracker(
        jobs, max_job_retries, retry_backoff_seconds, stats, journal, sleep
    )
    if resume and journal is not None:
        completed = journal.load_completed()
        if completed:
            tracker.queue = [
                job for job in jobs
                if job.placement_index not in completed
            ]
            tracker.results.update(completed)
            if stats is not None:
                stats.placements_resumed += len(completed)
            logger.info(
                "resumed %d completed placements from %s; %d to run",
                len(completed), journal.path, len(tracker.queue),
            )
    if n_workers > 1:
        _run_jobs_parallel(tracker, n_workers, job_timeout)
    else:
        _run_jobs_serial(tracker)

    records: Dict[str, List[RunRecord]] = {kind: [] for kind in kinds}
    for index in sorted(tracker.results):
        result = tracker.results[index]
        for kind in kinds:
            records[kind].extend(result.records[kind])
        if stats is not None:
            stats.absorb(result.stats)
    if stats is not None:
        stats.workers = n_workers
        stats.wall_seconds += time.perf_counter() - wall_started
    return records
