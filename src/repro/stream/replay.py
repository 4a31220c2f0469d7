"""Deterministic replay: recorded rounds and fault plans → event log → engine.

The streaming engine is only trustworthy if it is *testable bit for
bit*: the same event log and the same seed must yield identical episode
reports, serial or parallel.  This module provides both halves of that
loop:

* :func:`build_event_log` converts a sensor deployment plus sampled
  failure scenarios into a totally-ordered event log.  Each **episode
  cycle** emits a baseline refresh (a ``pre`` mesh under the nominal
  state), then ``incident_rounds`` of ``post`` meshes under the failed
  state (control-plane messages arrive with the first incident round),
  then ``recovery_rounds`` of ``post`` meshes back under the nominal
  state — clearing the alarms and closing the episode.  Probes are
  generated by the *batch* prober
  (:func:`~repro.measurement.probing.probe_pair`), so a window-assembled
  snapshot is structurally identical to a batch
  :func:`~repro.measurement.collector.take_snapshot` — the property the
  parity golden test pins down.  Fault plans apply per episode/round
  through the same seeded, order-independent decisions as the batch
  sweeps.

* :func:`run_replay` / :func:`run_stream_replay` drive a
  :class:`~repro.stream.engine.StreamEngine` through a log tick by tick
  (offer → advance → drain), with an optional
  :class:`~repro.experiments.journal.RunJournal` checkpointing every
  emitted report for crash-safe resume.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.protocol import Diagnoser
from repro.diagnosers import make_diagnosers
from repro.core.nd_lg import LgLookup
from repro.core.pathset import EPOCH_POST, EPOCH_PRE
from repro.errors import ControlPlaneFeedError, StreamError
from repro.experiments.journal import RunJournal
from repro.experiments.runner import (
    Session,
    choose_blocked_ases,
    ground_truth_links,
    make_session,
)
from repro.faults import DegradationReport, FaultConfig, FaultPlan
from repro.measurement.collector import collect_control_plane, make_lg_lookup
from repro.measurement.probing import probe_pair
from repro.measurement.sensors import random_stub_placement
from repro.netsim.gen.internet import research_internet
from repro.netsim.lookingglass import LookingGlassService
from repro.stream.checkpoint import CheckpointStore
from repro.stream.engine import EpisodeReport, StreamEngine
from repro.stream.router import TenantConfig
from repro.stream.supervise import DeadLetterQueue
from repro.stream.events import (
    IgpLinkDownEvent,
    LogicalClock,
    ProbeEvent,
    SensorDropoutEvent,
    SensorHeartbeatEvent,
    StreamEvent,
    WithdrawalEvent,
    save_event_log,
)

__all__ = [
    "ReplayConfig",
    "ReplaySetup",
    "ReplayEpisodeInfo",
    "ReplayLog",
    "StreamRunResult",
    "make_replay_setup",
    "build_engine",
    "result_layout_stats",
    "build_event_log",
    "run_replay",
    "run_stream_replay",
]


def build_engine(
    common: Dict,
    *,
    seed: int = 0,
    shards: int = 1,
    tenants: Optional[Tuple[TenantConfig, ...]] = None,
    tenant_of=None,
    chaos_rate: float = 0.0,
    supervise: bool = False,
    dlq_path: Optional[str] = None,
) -> StreamEngine:
    """Construct the engine for a run's knobs.

    The single policy point shared by every driver (stream replays, the
    monitor runner, benchmarks): ``chaos_rate > 0`` or ``supervise``
    attaches a :class:`~repro.stream.supervise.ShardSupervisor` (with a
    seeded chaos plan when ``chaos_rate > 0``) and raises the shard
    count to at least 2, so a dark shard has somewhere to fail over to.
    ``common`` is the keyword bundle every run shares (diagnosers,
    window, debounce, workers...).
    """
    if not 0.0 <= chaos_rate <= 1.0:
        raise StreamError(
            f"chaos_rate must be within [0, 1], got {chaos_rate}"
        )
    layout = dict(shards=shards, tenants=tenants or (), tenant_of=tenant_of)
    if supervise or chaos_rate > 0.0:
        shards = layout["shards"] = max(shards, 2)
        fingerprint = {"seed": seed, "shards": shards, "chaos_rate": chaos_rate}
        layout.update(
            plan=(
                FaultPlan(f"{seed}/chaos", FaultConfig.chaos(chaos_rate))
                if chaos_rate > 0.0
                else None
            ),
            checkpoints=CheckpointStore(fingerprint=fingerprint),
            dead_letters=DeadLetterQueue(dlq_path),
        )
    return StreamEngine(**common, **layout)


def result_layout_stats(
    engine: StreamEngine,
) -> Tuple[Optional[List[Dict[str, int]]], Optional[Dict]]:
    """A run result's ``(shard_stats, supervision)`` blocks; ``None``
    where the layout has none (serial: one shard, no tenants, no
    supervisor)."""
    supervision = engine.supervision_stats()
    layered = (
        len(engine.shards) > 1
        or engine.admission.enabled
        or supervision is not None
    )
    return (engine.shard_stats() if layered else None), supervision


@dataclass(frozen=True)
class ReplayConfig:
    """Shape of one replayed stream: how many episodes, how long each.

    ``chaos_rate`` injects *service*-side failures (shard crashes and
    stalls, slow shards, worker poison) through the seeded chaos modes
    of :class:`~repro.faults.FaultPlan` — the measurement plane stays
    clean, the diagnosis service itself misbehaves deterministically.
    """

    kind: str = "link-1"
    episodes: int = 2
    incident_rounds: int = 2
    recovery_rounds: int = 2
    fault_rate: float = 0.0
    corrupt: bool = False
    seed: int = 0
    chaos_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.episodes < 1:
            raise StreamError(f"need >= 1 episode, got {self.episodes}")
        if self.incident_rounds < 1 or self.recovery_rounds < 1:
            raise StreamError(
                "each episode needs >= 1 incident and >= 1 recovery round "
                f"(got {self.incident_rounds}/{self.recovery_rounds})"
            )
        if not 0.0 <= self.chaos_rate <= 1.0:
            raise StreamError(
                f"chaos_rate must be within [0, 1], got {self.chaos_rate}"
            )


@dataclass
class ReplaySetup:
    """One sensor deployment ready to be streamed."""

    session: Session
    asx: int
    blocked_ases: FrozenSet[int]
    lg_service: Optional[LookingGlassService]
    diagnosers: Dict[str, Diagnoser]


@dataclass(frozen=True)
class ReplayEpisodeInfo:
    """What the replay injected for one episode (the answer key)."""

    kind: str
    description: str
    truth: Tuple[str, ...]
    baseline_tick: int
    first_incident_tick: int
    last_tick: int


@dataclass
class ReplayLog:
    """A built event log plus its replay-side bindings.

    ``lg_bindings`` maps a tick to the Looking Glass callback valid from
    that tick on (LG answers depend on the episode's routing states, so
    the binding switches at each episode boundary).  Bindings are
    process-local closures — the *events* are what serialises.
    """

    events: List[StreamEvent]
    episodes: List[ReplayEpisodeInfo]
    last_tick: int
    lg_bindings: Dict[int, LgLookup] = field(default_factory=dict)


@dataclass
class StreamRunResult:
    """Everything a stream replay produced, for reports and benchmarks.

    ``shard_stats`` is per-shard balance accounting (``None`` for a
    serial single-shard run).
    """

    reports: List[EpisodeReport]
    episodes: List[ReplayEpisodeInfo]
    events_total: int
    wall_seconds: float
    engine_counters: Dict[str, int]
    ingest_counters: Dict[str, int]
    window_counters: Dict[str, int]
    detector_counters: Dict[str, int]
    latencies: List[int]
    stage_seconds: Dict[str, float]
    shard_stats: Optional[List[Dict[str, int]]] = None
    supervision: Optional[Dict] = None


def make_replay_setup(
    seed: int = 0,
    topo_seed: int = 100,
    n_tier2: int = 6,
    n_stub: int = 40,
    n_sensors: int = 6,
    blocked_fraction: float = 0.0,
    algorithms: Tuple[str, ...] = ("tomo", "nd-edge", "nd-bgpigp"),
) -> ReplaySetup:
    """A deployment for streaming: topology, sensors, AS-X, diagnosers.

    Small defaults (6x40 hub-and-spoke, 6 sensors) keep CLI replays and
    smoke tests fast; the benchmark dials the sizes up.
    """
    rng = random.Random(f"{seed}/stream-setup")
    topo = research_internet(n_tier2=n_tier2, n_stub=n_stub, seed=topo_seed)
    session = make_session(
        topo, random_stub_placement(topo, n_sensors, rng), rng
    )
    asx = topo.core_asns[0]
    blocked = (
        choose_blocked_ases(
            session, blocked_fraction, rng, protected=frozenset({asx})
        )
        if blocked_fraction > 0.0
        else frozenset()
    )
    lg_service = (
        LookingGlassService.everywhere(session.net)
        if "nd-lg" in algorithms
        else None
    )
    return ReplaySetup(
        session=session,
        asx=asx,
        blocked_ases=blocked,
        lg_service=lg_service,
        diagnosers=make_diagnosers(algorithms),
    )


def build_event_log(
    setup: ReplaySetup,
    config: ReplayConfig,
    report: Optional[DegradationReport] = None,
) -> ReplayLog:
    """Convert sampled failure scenarios into a totally-ordered event log."""
    session = setup.session
    sim, sensors = session.sim, session.sensors
    base = session.base_state
    plan: Optional[FaultPlan] = None
    if config.fault_rate > 0.0:
        fault_config = (
            FaultConfig.corruption(config.fault_rate)
            if config.corrupt
            else FaultConfig.uniform(config.fault_rate)
        )
        plan = FaultPlan(f"{config.seed}/stream", fault_config)

    clock = LogicalClock()
    events: List[StreamEvent] = []
    episodes: List[ReplayEpisodeInfo] = []
    lg_bindings: Dict[int, LgLookup] = {}
    seq = 0

    def emit(cls, **kwargs) -> None:
        nonlocal seq
        events.append(cls(tick=clock.now, seq=seq, **kwargs))
        seq += 1

    def emit_mesh(state, epoch: str, up, faults: Optional[FaultPlan]) -> None:
        for src in up:
            for dst in up:
                if src.sensor_id == dst.sensor_id:
                    continue
                path = probe_pair(
                    sim,
                    src,
                    dst,
                    state,
                    setup.blocked_ases,
                    epoch,
                    faults,
                    report,
                )
                if path is not None:
                    emit(ProbeEvent, path=path)

    # Tick 0: every sensor announces itself before anything else flows.
    for sensor in sensors:
        emit(SensorHeartbeatEvent, address=sensor.address)

    down: set = set()
    for index in range(config.episodes):
        ep_faults = plan.scoped(f"ep{index}") if plan is not None else None
        scenario = session.sampler.sample(config.kind)

        baseline_tick = clock.tick()
        # Sensor churn for this episode: recovered sensors heartbeat,
        # newly-dark ones drop out, before the baseline mesh flows.
        now_down = {
            sensor.address
            for sensor in sensors
            if ep_faults is not None and ep_faults.sensor_down(sensor.address)
        }
        for address in sorted(down - now_down):
            emit(SensorHeartbeatEvent, address=address)
        for address in sorted(now_down - down):
            emit(SensorDropoutEvent, address=address)
        down = now_down
        up = [sensor for sensor in sensors if sensor.address not in down]

        base_faults = (
            ep_faults.scoped("base") if ep_faults is not None else None
        )
        emit_mesh(base, EPOCH_PRE, up, base_faults)

        if setup.lg_service is not None:
            lg_bindings[clock.now] = make_lg_lookup(
                sim,
                setup.lg_service,
                base,
                scenario.after_state,
                asx=setup.asx,
                faults=ep_faults,
                report=report,
            )

        first_incident_tick = None
        for round_index in range(config.incident_rounds):
            tick = clock.tick()
            if first_incident_tick is None:
                first_incident_tick = tick
                try:
                    control = collect_control_plane(
                        sim,
                        setup.asx,
                        base,
                        scenario.after_state,
                        faults=ep_faults,
                        report=report,
                    )
                except ControlPlaneFeedError:
                    control = None  # the feed was down; probes still flow
                if control is not None:
                    for observation in control.igp_link_down:
                        emit(IgpLinkDownEvent, observation=observation)
                    for observation in control.withdrawals:
                        emit(WithdrawalEvent, observation=observation)
            round_faults = (
                ep_faults.scoped(f"incident{round_index}")
                if ep_faults is not None
                else None
            )
            emit_mesh(scenario.after_state, EPOCH_POST, up, round_faults)

        for round_index in range(config.recovery_rounds):
            clock.tick()
            round_faults = (
                ep_faults.scoped(f"recovery{round_index}")
                if ep_faults is not None
                else None
            )
            emit_mesh(base, EPOCH_POST, up, round_faults)

        episodes.append(
            ReplayEpisodeInfo(
                kind=scenario.kind,
                description=scenario.event.describe(session.net),
                truth=tuple(
                    sorted(
                        map(
                            str,
                            ground_truth_links(session.net, scenario.event),
                        )
                    )
                ),
                baseline_tick=baseline_tick,
                first_incident_tick=first_incident_tick,
                last_tick=clock.now,
            )
        )

    return ReplayLog(
        events=events,
        episodes=episodes,
        last_tick=clock.now,
        lg_bindings=lg_bindings,
    )


def run_replay(
    log: ReplayLog,
    engine,
    journal: Optional[RunJournal] = None,
) -> List[EpisodeReport]:
    """Drive the engine through a log: offer → advance → drain, per tick.

    ``engine`` is a :class:`StreamEngine` of any layout.  When a journal
    is supplied every emitted report is durably appended (the engine's
    ``on_report`` hook), so an interrupted replay resumes via
    ``cached_reports`` with bit-identical output.
    """
    if journal is not None:
        previous_hook = engine.on_report

        def checkpoint(report: EpisodeReport) -> None:
            journal.append(report)
            if previous_hook is not None:
                previous_hook(report)

        engine.on_report = checkpoint
    by_tick: Dict[int, List[StreamEvent]] = {}
    for event in log.events:
        by_tick.setdefault(event.tick, []).append(event)
    try:
        for tick in range(log.last_tick + 1):
            if tick in log.lg_bindings:
                engine.lg_lookup = log.lg_bindings[tick]
            for event in by_tick.get(tick, []):
                engine.offer(event)
            engine.advance(tick)
            engine.drain(tick)
        # End of stream: one grace tick retires anything still queued.
        final = log.last_tick + 1
        engine.advance(final)
        engine.flush(final)
    finally:
        # Worker pools and dead-letter journals must not leak even when
        # a replay dies mid-stream.
        engine.close()
    return engine.reports


def run_stream_replay(
    setup: ReplaySetup,
    config: ReplayConfig,
    policy: str = "quarantine",
    window_width: int = 4,
    open_after: int = 2,
    close_after: int = 2,
    workers: int = 0,
    shards: int = 1,
    tenants: Optional[Tuple[TenantConfig, ...]] = None,
    tenant_of=None,
    journal: Optional[RunJournal] = None,
    cached_reports: Optional[Mapping[int, EpisodeReport]] = None,
    save_log: Optional[str] = None,
    supervise: bool = False,
    dlq_path: Optional[str] = None,
) -> StreamRunResult:
    """Build the log, run the engine over it, and gather every counter.

    ``shards > 1`` partitions the engine's state across shards (and any
    ``tenants`` enable admission); with admission disabled the reports
    are bit-identical to the serial ``shards=1`` engine's.

    ``config.chaos_rate > 0`` (or ``supervise=True``) supervises the
    shards: the chaos plan is seeded from ``config.seed``, so two runs
    of the same config crash the same shards at the same ticks and
    recover identically.
    """
    degradation = DegradationReport()
    # Engine first: a misconfigured engine (zero-width window, bad
    # policy) should fail fast, before the expensive log build.
    common = dict(
        asn_of=setup.session.sim.mapper.asn_of,
        diagnosers=setup.diagnosers,
        asx=setup.asx,
        window_width=window_width,
        open_after=open_after,
        close_after=close_after,
        policy=policy,
        workers=workers,
        degradation=degradation,
        cached_reports=cached_reports,
    )
    engine = build_engine(
        common,
        seed=config.seed,
        shards=shards,
        tenants=tenants,
        tenant_of=tenant_of,
        chaos_rate=config.chaos_rate,
        supervise=supervise,
        dlq_path=dlq_path,
    )
    log = build_event_log(setup, config, report=degradation)
    if save_log is not None:
        save_event_log(log.events, save_log)
    started = time.perf_counter()
    reports = run_replay(log, engine, journal=journal)
    wall = time.perf_counter() - started
    shard_stats, supervision = result_layout_stats(engine)
    return StreamRunResult(
        reports=reports,
        episodes=log.episodes,
        events_total=len(log.events),
        wall_seconds=wall,
        engine_counters=engine.counters(),
        ingest_counters=engine.ingest_counters(),
        window_counters=engine.window_counters(),
        detector_counters=engine.detector_counters(),
        latencies=list(engine.latencies),
        stage_seconds=engine.stage_seconds(),
        shard_stats=shard_stats,
        supervision=supervision,
    )
