"""Driving a monitoring scenario through the streaming engine.

The monitor is a *liveness* workload: after one real probe mesh under
the nominal state establishes each pair's baseline path, the long tail
of the run is cheap per-pair reachability checks derived from the
seeded outage schedule — a pair is up at a tick unless a link on its
baseline path is scheduled down, its destination AS is blocking
probes, or measurement noise lies about it.  Those observations stream
through the ordinary engine (laid out serial, sharded or supervised by
:func:`~repro.stream.replay.build_engine`), which runs its episode
detection exactly as in an incident replay; the
:class:`~repro.monitor.recorder.FlightRecorder` consumes the same
observations driver-side, *before* any shard routing, so its intervals
are bit-identical under every process layout by construction.

Because liveness events never enter the diagnosis window (only failing
*paths* do), the engine's episode reports in monitor mode are
summary-only — the monitor tells you *when* and *who*, and hands the
blocked-vs-failed question to :mod:`repro.monitor.classify`; a full
differential diagnosis remains ``python -m repro stream``'s job.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.pathset import EPOCH_PRE, Pair, ProbePath
from repro.errors import MonitorError
from repro.experiments.journal import RunJournal
from repro.faults import DegradationReport
from repro.measurement.probing import probe_pair
from repro.monitor.classify import (
    ClassifierScore,
    DetectionStats,
    MonitorLookingGlass,
    assign_truth,
    classify_intervals,
    pair_link_map,
    score_classifier,
    score_detection,
    suffix_link_map,
)
from repro.monitor.recorder import FlightRecorder, PairQuality
from repro.monitor.scenario import MonitorConfig
from repro.monitor.schedule import MonitorSchedule, build_schedule, monitor_plan
from repro.stream.engine import EpisodeReport
from repro.stream.events import (
    ProbeEvent,
    ReachabilityEvent,
    SensorDropoutEvent,
    SensorHeartbeatEvent,
    StreamEvent,
)
from repro.stream.replay import (
    ReplayLog,
    ReplaySetup,
    build_engine,
    make_replay_setup,
    result_layout_stats,
    run_replay,
)

__all__ = [
    "MonitorRunResult",
    "baseline_paths",
    "make_monitor_setup",
    "run_monitor",
]


@dataclass
class MonitorRunResult:
    """Everything one monitoring run produced, for reports and benchmarks."""

    config: MonitorConfig
    seed: int
    schedule: MonitorSchedule
    recorder: FlightRecorder
    reports: List[EpisodeReport]
    events_total: int
    wall_seconds: float
    pairs_monitored: int
    pairs_skipped: int
    lg_queries: int
    detection: DetectionStats
    classifier: ClassifierScore
    quality: List[PairQuality]
    engine_counters: Dict[str, int]
    ingest_counters: Dict[str, int]
    window_counters: Dict[str, int]
    detector_counters: Dict[str, int]
    stage_seconds: Dict[str, float]
    shard_stats: Optional[List[Dict[str, int]]] = None
    supervision: Optional[Dict] = None
    interrupted: bool = False
    observations_skipped: int = field(default=0)

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events_total / self.wall_seconds


def make_monitor_setup(
    seed: int = 0,
    topo_seed: int = 100,
    n_tier2: int = 6,
    n_stub: int = 40,
    n_sensors: int = 6,
) -> ReplaySetup:
    """A monitoring deployment: the stream deployment plus LGs everywhere.

    Looking Glasses are non-negotiable here — without them the
    blocked-vs-failed classifier has no control-plane oracle to ask.
    """
    return make_replay_setup(
        seed=seed,
        topo_seed=topo_seed,
        n_tier2=n_tier2,
        n_stub=n_stub,
        n_sensors=n_sensors,
        blocked_fraction=0.0,
        algorithms=("nd-lg",),
    )


def baseline_paths(setup: ReplaySetup) -> Dict[Pair, ProbePath]:
    """One real probe mesh under the nominal state: the baseline truth.

    Pairs whose baseline probe does not reach (partitioned vantage,
    unlucky deployment) are excluded from monitoring — there is no
    healthy path to watch degrade.
    """
    session = setup.session
    paths: Dict[Pair, ProbePath] = {}
    for src in session.sensors:
        for dst in session.sensors:
            if src.sensor_id == dst.sensor_id:
                continue
            path = probe_pair(
                session.sim, src, dst, session.base_state, epoch=EPOCH_PRE
            )
            if path is not None and path.reached:
                paths[path.pair] = path
    if not paths:
        raise MonitorError(
            "no monitorable pairs: every baseline probe failed to reach"
        )
    return paths


def _build_monitor_log(
    setup: ReplaySetup,
    config: MonitorConfig,
    seed: int,
    schedule: MonitorSchedule,
    paths: Dict[Pair, ProbePath],
    links: Dict[Pair, FrozenSet[str]],
    recorder: FlightRecorder,
) -> Tuple[ReplayLog, int]:
    """Expand the schedule into the event log, feeding the recorder.

    One pass over the logical clock: churn edges first (returning
    heartbeats, then new dropouts), a baseline ``pre`` mesh on its
    cadence, then the tick's liveness checks in sorted pair order.
    Every stochastic choice (diurnal thinning, probe noise) is a seeded
    per-``(pair, tick)`` decision of the scenario plan, so the log —
    and therefore everything downstream — is a pure function of
    ``(seed, config)``.  Returns the log and the number of liveness
    checks thinned away by the diurnal cycle.
    """
    plan = monitor_plan(config, seed)
    asn_of = setup.session.sim.mapper.asn_of
    blocked_cache: Dict[str, int] = {
        address: asn_of(address)
        for address in {pair[1] for pair in paths}
    }
    events: List[StreamEvent] = []
    seq = 0

    def emit(cls, tick: int, **kwargs) -> None:
        nonlocal seq
        events.append(cls(tick=tick, seq=seq, **kwargs))
        seq += 1

    sensors = sorted(sensor.address for sensor in setup.session.sensors)
    pairs = sorted(paths)
    dark_before: FrozenSet[str] = frozenset()
    thinned = 0
    diurnal = config.diurnal_period > 0
    noisy = config.noise_rate > 0.0

    for tick in range(config.ticks):
        if tick == 0:
            for address in sensors:
                emit(SensorHeartbeatEvent, tick, address=address)
        dark = schedule.dark_sensors_at(tick)
        for address in sorted(dark_before - dark):
            emit(SensorHeartbeatEvent, tick, address=address)
        for address in sorted(dark - dark_before):
            emit(SensorDropoutEvent, tick, address=address)
            recorder.forget(tick, address)
        dark_before = dark

        if config.baseline_every and tick % config.baseline_every == 0:
            refreshed = 0
            for pair in pairs:
                if pair[0] in dark or pair[1] in dark:
                    continue
                emit(ProbeEvent, tick, path=paths[pair])
                refreshed += 1
            recorder.note_baseline(tick, refreshed)

        down = schedule.down_links_at(tick)
        blocked = schedule.blocked_asns_at(tick)
        for pair in pairs:
            src, dst = pair
            if src in dark or dst in dark:
                continue
            if diurnal and not plan.fires(
                config.intensity(tick), "monitor-probe", src, dst, tick
            ):
                thinned += 1
                continue
            reached = not (links[pair] & down)
            if reached and blocked_cache[dst] in blocked:
                reached = False
            if reached and noisy and plan.fires(
                config.noise_rate, "monitor-noise", src, dst, tick
            ):
                reached = False
            emit(ReachabilityEvent, tick, src=src, dst=dst, reached=reached)
            recorder.observe(tick, pair, reached)
        recorder.advance(tick)

    log = ReplayLog(
        events=events, episodes=[], last_tick=config.ticks - 1
    )
    return log, thinned


def run_monitor(
    setup: ReplaySetup,
    config: MonitorConfig,
    seed: int = 0,
    *,
    policy: str = "quarantine",
    window_width: int = 4,
    workers: int = 0,
    shards: int = 1,
    chaos_rate: float = 0.0,
    journal: Optional[RunJournal] = None,
    cached_reports: Optional[Mapping[int, EpisodeReport]] = None,
    retention: int = 256,
) -> MonitorRunResult:
    """Run one scenario end to end: schedule → stream → record → score.

    The engine knobs are the ones ``python -m repro monitor`` sets:
    sharding, chaos (which supervises the shards, as in
    ``run_stream_replay``) and journalled resume.  The hysteresis
    thresholds come from the scenario config so the engine's episode
    detector and the flight recorder confirm and clear on the same
    streaks.
    """
    if setup.lg_service is None:
        raise MonitorError(
            "monitoring needs a Looking Glass service (use "
            "make_monitor_setup); the blocked-vs-failed classifier has "
            "no oracle without one"
        )
    paths = baseline_paths(setup)
    links = pair_link_map(paths)
    asn_of = setup.session.sim.mapper.asn_of
    candidates = sorted(set().union(*links.values()))
    sensors = [sensor.address for sensor in setup.session.sensors]
    dst_asns = sorted(
        asn
        for asn in {asn_of(address) for address in sensors}
        if asn is not None and asn != setup.asx
    )
    schedule = build_schedule(config, seed, candidates, sensors, dst_asns)
    recorder = FlightRecorder(
        open_after=config.open_after,
        close_after=config.close_after,
        retention=retention,
    )
    log, thinned = _build_monitor_log(
        setup, config, seed, schedule, paths, links, recorder
    )

    common = dict(
        asn_of=asn_of,
        diagnosers=setup.diagnosers,
        asx=setup.asx,
        window_width=window_width,
        open_after=config.open_after,
        close_after=config.close_after,
        policy=policy,
        workers=workers,
        degradation=DegradationReport(),
        cached_reports=cached_reports,
    )
    engine = build_engine(
        common, seed=seed, shards=shards, chaos_rate=chaos_rate
    )
    started = time.perf_counter()
    reports = run_replay(log, engine, journal=journal)
    wall = time.perf_counter() - started
    shard_stats, supervision = result_layout_stats(engine)

    # Score against the seeded ground truth, then classify from LG
    # evidence only — the comparison of the two is the headline metric.
    assign_truth(recorder.intervals, schedule, links, asn_of)
    lg = MonitorLookingGlass(
        setup.lg_service,
        setup.session.sim,
        setup.session.base_state,
        schedule,
        suffix_link_map(paths, asn_of),
    )
    classify_intervals(
        recorder.intervals, paths, asn_of, setup.lg_service, lg.lookup
    )
    detection = score_detection(
        schedule, recorder.intervals, links, asn_of, config.open_after
    )
    classifier = score_classifier(recorder.intervals)

    n_sensors = len(setup.session.sensors)
    all_pairs = n_sensors * (n_sensors - 1)
    return MonitorRunResult(
        config=config,
        seed=seed,
        schedule=schedule,
        recorder=recorder,
        reports=reports,
        events_total=len(log.events),
        wall_seconds=wall,
        pairs_monitored=len(paths),
        pairs_skipped=all_pairs - len(paths),
        lg_queries=lg.queries,
        detection=detection,
        classifier=classifier,
        quality=recorder.quality(asn_of),
        engine_counters=engine.counters(),
        ingest_counters=engine.ingest_counters(),
        window_counters=engine.window_counters(),
        detector_counters=engine.detector_counters(),
        stage_seconds=engine.stage_seconds(),
        shard_stats=shard_stats,
        supervision=supervision,
        observations_skipped=thinned,
    )
