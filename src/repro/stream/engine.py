"""The streaming diagnosis engine: events in, episode reports out.

:class:`StreamEngine` is the one engine for every process layout; the
serial engine is ``shards=1``.  It keeps the batch pipeline's shape —
screen, assemble, diagnose — but continuously:

1. :meth:`offer` routes one event: pair-scoped events pass tenant
   admission onto their :class:`~repro.stream.router.StreamShard`
   (screening, window, alarm debounce); control-plane and liveness
   events are screened once here and broadcast to every shard;
2. :meth:`advance` closes a logical tick: shard windows evict stale
   state and the :class:`~repro.stream.merge.CrossShardMerger` turns the
   shards' alarms into episode transitions, queued as diagnosis work;
3. :meth:`drain` diagnoses queued transitions against the merged
   snapshot and control view (global, never per shard), emitting one
   :class:`EpisodeReport` per transition in schedule order.

Backpressure is explicit, never silent: an ``update`` for a queued
episode is **coalesced** into it, a transition meeting a full
``max_pending`` queue is **deferred** to the next drain, and a deferral
buffer past ``overflow_limit`` raises
:class:`~repro.errors.EpisodeOverflowError`.

Passing any of ``plan``, ``supervision``, ``checkpoints`` or
``dead_letters`` attaches a
:class:`~repro.stream.supervise.ShardSupervisor`, which the engine calls
at its hook points (listed on that class).

Determinism: with admission disabled and unbounded window capacity,
every ``shards`` count replays bit-identically (per-shard LRU caps may
shed different cold pairs).  With ``workers > 1`` the per-variant
diagnoses run in a process pool on :class:`StaticAsnMap` payloads and
merge back in (transition, variant) order, bit-identical to serial;
``nd-lg`` closures are not picklable and always run inline.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.control_plane import ControlPlaneView
from repro.core.protocol import Diagnoser
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, MeasurementSnapshot
from repro.empathy.ensemble import EnsembleDisagreement
from repro.errors import EpisodeOverflowError, StreamError
from repro.faults import DegradationReport, FaultPlan
from repro.stream.checkpoint import CheckpointStore
from repro.stream.episodes import CLOSE, UPDATE, EpisodeTransition
from repro.stream.events import StreamEvent
from repro.stream.ingest import StreamIngestor
from repro.stream.merge import (
    CrossShardMerger,
    merged_control_view,
    merged_snapshot,
)
from repro.stream.router import (
    AdmissionController,
    ShardRouter,
    StreamShard,
    TenantConfig,
)
from repro.stream.supervise import (
    DeadLetterQueue,
    ShardSupervisor,
    SupervisionConfig,
)

__all__ = [
    "StaticAsnMap",
    "EpisodeDiagnosis",
    "EpisodeReport",
    "StreamEngine",
]

logger = logging.getLogger(__name__)

Pair = Tuple[str, str]


@dataclass
class StaticAsnMap:
    """A picklable snapshot of the IP-to-AS mapping.

    Worker processes cannot unpickle a simulator-bound ``asn_of``
    method, so diagnosis payloads carry the mapping for exactly the
    addresses the snapshot mentions.  Calling it is what the diagnosers
    expect: address in, ASN (or ``None``) out.
    """

    table: Dict[str, Optional[int]]

    def __call__(self, address: str) -> Optional[int]:
        return self.table.get(address)


@dataclass(frozen=True)
class EpisodeDiagnosis:
    """One diagnoser's verdict inside an episode report.

    ``error`` carries the exception type name when the diagnoser could
    not cope with the window's partial inputs (best-effort empty
    hypothesis, same as the batch runner's degraded path).  ``verdict``
    is the ensemble agreement grade (``agree``/``partial``/``conflict``)
    when the diagnoser was an :class:`~repro.empathy.EnsembleDiagnoser`,
    ``None`` otherwise.
    """

    algorithm: str
    hypothesis: frozenset
    hypothesis_size: int
    fully_explained: bool
    error: Optional[str] = None
    verdict: Optional[str] = None


@dataclass(frozen=True)
class EpisodeReport:
    """One emitted diagnosis of one episode transition.

    ``report_index`` is the global emission index; it doubles as the
    :class:`~repro.experiments.journal.RunJournal` key (exposed as
    ``placement_index``) so a stream run checkpoints and resumes with
    the same machinery as a batch sweep.  ``latency_ticks`` is how many
    logical ticks the transition waited in the queue before diagnosis —
    the bounded-latency number the benchmarks track.
    """

    report_index: int
    episode_id: int
    trigger: str
    tick: int
    diagnosed_at: int
    pairs: Tuple[Pair, ...]
    diagnoses: Tuple[EpisodeDiagnosis, ...]

    @property
    def latency_ticks(self) -> int:
        return self.diagnosed_at - self.tick

    @property
    def placement_index(self) -> int:
        """Journal key (RunJournal stores results by this attribute)."""
        return self.report_index


@dataclass
class _PendingWork:
    """One queued transition awaiting diagnosis."""

    transition: EpisodeTransition


def _summarise(result) -> EpisodeDiagnosis:
    ensemble = result.details.get("ensemble") or {}
    return EpisodeDiagnosis(
        algorithm=result.algorithm,
        hypothesis=frozenset(result.hypothesis),
        hypothesis_size=result.hypothesis_size(),
        fully_explained=result.fully_explained,
        verdict=ensemble.get("verdict"),
    )


def _empty_diagnosis(label: str, error: Optional[str] = None) -> EpisodeDiagnosis:
    return EpisodeDiagnosis(
        algorithm=label,
        hypothesis=frozenset(),
        hypothesis_size=0,
        fully_explained=False,
        error=error,
    )


def _diagnose_payload(payload) -> EpisodeDiagnosis:
    """Worker-side diagnosis of one picklable (label, diagnoser,
    snapshot, control) payload; degrades to an empty verdict on any
    exception so a fragile diagnoser never kills the pool."""
    label, diagnoser, snapshot, control = payload
    try:
        return _summarise(
            diagnoser.diagnose(snapshot, control=control, lg_lookup=None)
        )
    except Exception as exc:
        return _empty_diagnosis(label, error=type(exc).__name__)


class StreamEngine:
    """Continuous diagnosis over an event stream, on one or more shards.

    Parameters mirror the batch runner where a counterpart exists:
    ``diagnosers`` is the same label →
    :class:`~repro.core.protocol.Diagnoser` mapping, ``asx`` the
    cooperating ISP, ``lg_lookup`` the Looking Glass callback for
    ``nd-lg``, ``policy`` a :mod:`repro.validate` policy name.
    ``tenants``/``tenant_of`` enable per-tenant admission; ``plan``
    (seeded chaos), ``supervision``, ``checkpoints`` and
    ``dead_letters`` configure the optional supervisor.
    """

    def __init__(
        self,
        asn_of: Callable[[str], Optional[int]],
        diagnosers: Mapping[str, Diagnoser],
        asx: Optional[int] = None,
        lg_lookup: Optional[Callable] = None,
        window_width: int = 4,
        open_after: int = 2,
        close_after: int = 2,
        policy: str = "quarantine",
        max_pending: int = 8,
        overflow_limit: int = 32,
        workers: int = 0,
        degradation: Optional[DegradationReport] = None,
        on_report: Optional[Callable[[EpisodeReport], None]] = None,
        cached_reports: Optional[Mapping[int, EpisodeReport]] = None,
        shards: int = 1,
        tenants: Sequence[TenantConfig] = (),
        tenant_of: Optional[Callable[[StreamEvent], Optional[str]]] = None,
        plan: Optional[FaultPlan] = None,
        supervision: Optional[SupervisionConfig] = None,
        checkpoints: Optional[CheckpointStore] = None,
        dead_letters: Optional[DeadLetterQueue] = None,
    ) -> None:
        if max_pending < 1:
            raise StreamError(f"max_pending must be >= 1, got {max_pending}")
        if overflow_limit < 0:
            raise StreamError(
                f"overflow_limit must be >= 0, got {overflow_limit}"
            )
        self.asn_of = asn_of
        self.diagnosers = dict(diagnosers)
        self.asx = asx
        self.lg_lookup = lg_lookup
        self.router = ShardRouter(shards, asn_of=asn_of)
        self.shards = [
            StreamShard(
                index,
                asn_of,
                policy=policy,
                window_width=window_width,
                open_after=open_after,
                close_after=close_after,
                degradation=degradation,
            )
            for index in range(shards)
        ]
        # Broadcast events are screened once, here, before fan-out; the
        # global feed-dedup state must not be forked per shard.
        self.control_ingestor = StreamIngestor(
            asn_of,
            policy,
            expected_epochs=(EPOCH_PRE, EPOCH_POST),
            degradation=degradation,
        )
        self.merger = CrossShardMerger()
        self.admission = AdmissionController(tenants)
        self.tenant_of = tenant_of
        supervised = any(
            part is not None
            for part in (plan, supervision, checkpoints, dead_letters)
        )
        self.supervisor = ShardSupervisor(
            self.shards,
            config=supervision,
            plan=plan,
            checkpoints=checkpoints,
            dead_letters=dead_letters,
            variants=list(self.diagnosers),
        ) if supervised else None
        self.max_pending = max_pending
        self.overflow_limit = overflow_limit
        self.workers = workers
        self.on_report = on_report
        self.cached_reports = dict(cached_reports or {})
        self._pending: List[_PendingWork] = []
        self._deferred: List[_PendingWork] = []
        self._pool: Optional[ProcessPoolExecutor] = None
        self.reports: List[EpisodeReport] = []
        # accounting
        self.events_offered = 0
        self.events_admitted = 0
        self.events_broadcast = 0
        self.transitions_scheduled = 0
        self.episodes_coalesced = 0
        self.transitions_deferred = 0
        self.reports_reused = 0
        self.diagnoses_failed = 0
        self.ensemble_verdicts = EnsembleDisagreement()
        self.latencies: List[int] = []
        # Engine-side stage time; the shards time their own ingest,
        # window and detect work and stage_seconds() adds the two.
        self.seconds = dict.fromkeys(
            ("ingest", "window", "detect", "diagnose"), 0.0
        )

    # --------------------------------------------------------------- intake

    def offer(self, event: StreamEvent) -> bool:
        """Admit, route and fold one event.

        Control-plane and liveness events bypass admission (shedding the
        ISP's own feed would corrupt every shard's view).  A dark
        shard's share is buffered — a pair event raw, screened on
        replay.  Returns ``False`` when admission shed the event,
        screening quarantined it or a full darkness buffer
        dead-lettered it.
        """
        self.events_offered += 1
        supervisor = self.supervisor
        shard_index = self.router.route(event)
        if shard_index is None:
            self.events_broadcast += 1
            started = time.perf_counter()
            admitted = self.control_ingestor.ingest(event)
            self.seconds["ingest"] += time.perf_counter() - started
            if admitted is None:
                return False
            for shard in self.shards:
                if supervisor is None:
                    shard.observe_broadcast(admitted)
                elif supervisor.is_dark(shard.index):
                    supervisor.buffer_event(shard.index, "bcast", admitted)
                else:
                    shard.observe_broadcast(admitted)
                    supervisor.record_tail(shard.index, "bcast", admitted)
            self.events_admitted += 1
            return True
        if self.admission.enabled:
            tenant = self.tenant_of(event) if self.tenant_of else None
            if not self.admission.admit(tenant):
                return False
        if supervisor is not None and supervisor.is_dark(shard_index):
            return supervisor.buffer_event(shard_index, "pair", event)
        if not self.shards[shard_index].offer(event):
            return False
        if supervisor is not None:
            supervisor.record_tail(shard_index, "pair", event)
        self.events_admitted += 1
        return True

    # ---------------------------------------------------------------- ticks

    def advance(self, tick: int) -> List[EpisodeTransition]:
        """Close a logical tick: refill admission buckets, evict every
        shard window, merge the shards' alarms into episode transitions,
        and schedule the resulting diagnosis work."""
        self.admission.on_tick(tick)
        supervisor = self.supervisor
        if supervisor is not None:
            self.events_admitted += supervisor.begin_tick(tick)
        started = time.perf_counter()
        for shard in self.shards:
            shard.window.evict(tick)
        if supervisor is None:
            alarms = [shard.alarms.alarmed_pairs() for shard in self.shards]
        else:
            # Dark or slow shards contribute their held (stale) view.
            alarms = [
                supervisor.alarm_view(shard.index, tick)
                for shard in self.shards
            ]
        transitions = self.merger.advance(tick, alarms)
        self.seconds["detect"] += time.perf_counter() - started
        for transition in transitions:
            self._schedule(transition)
        if supervisor is not None:
            supervisor.end_tick(tick)
        return transitions

    def _owner_shard(self, transition: EpisodeTransition) -> Optional[int]:
        """The shard owning a transition's first pair, if sharded."""
        if len(self.shards) == 1 or not transition.pairs:
            return None
        return self.router.shard_for_destination(transition.pairs[0][1])

    def _schedule(self, transition: EpisodeTransition) -> None:
        if self.supervisor is not None and self.supervisor.divert(
            transition, self._owner_shard(transition)
        ):
            # Parking further work of a struck-out episode beats wedging
            # the queue with diagnoses that will hard-fail again.
            return
        self.transitions_scheduled += 1
        if transition.kind == UPDATE:
            for work in self._pending + self._deferred:
                queued = work.transition
                if (
                    queued.episode_id == transition.episode_id
                    and queued.kind != CLOSE
                ):
                    # Absorb: keep the queued kind (an open must still be
                    # reported as an open), diagnose the newest state.
                    work.transition = EpisodeTransition(
                        kind=queued.kind,
                        episode_id=queued.episode_id,
                        tick=queued.tick,
                        pairs=transition.pairs,
                    )
                    self.episodes_coalesced += 1
                    return
        if len(self._pending) < self.max_pending:
            self._pending.append(_PendingWork(transition))
            return
        self.transitions_deferred += 1
        if len(self._deferred) >= self.overflow_limit:
            # Name the owning shard before the overflow crosses any
            # worker/process boundary: a bare BrokenProcessPool tells an
            # operator nothing about *which* shard's episode wedged it.
            raise EpisodeOverflowError(
                f"diagnosis queue full ({self.max_pending} pending, "
                f"{len(self._deferred)} deferred >= overflow_limit="
                f"{self.overflow_limit}); drain more often or widen the "
                "queue",
                shard=self._owner_shard(transition),
            )
        self._deferred.append(_PendingWork(transition))

    # ---------------------------------------------------------------- drain

    @property
    def idle(self) -> bool:
        """True when no diagnosis work is queued or deferred."""
        return not (self._pending or self._deferred)

    def drain(self, now: int) -> List[EpisodeReport]:
        """Retire the queued transitions (at most ``max_pending``),
        then promote deferred work into the freed queue slots."""
        batch, self._pending = self._pending, []
        promoted = self._deferred[: self.max_pending]
        self._deferred = self._deferred[self.max_pending:]
        self._pending.extend(promoted)
        if not batch:
            return []
        started = time.perf_counter()
        reports = self._diagnose_batch(batch, now)
        self.seconds["diagnose"] += time.perf_counter() - started
        for report in reports:
            self.reports.append(report)
            self.latencies.append(report.latency_ticks)
            if (
                self.on_report is not None
                and report.report_index not in self.cached_reports
            ):
                # Reused reports are already durable wherever the hook
                # writes (the resume journal) — only fresh ones go out.
                self.on_report(report)
        return reports

    def flush(self, now: int) -> List[EpisodeReport]:
        """Drain until no work remains (end-of-stream)."""
        if self.supervisor is not None:
            # Nothing buffered may stay dark, or its events would
            # silently vanish from the final verdicts.
            self.events_admitted += self.supervisor.force_recover(now)
        reports: List[EpisodeReport] = []
        while not self.idle:
            reports.extend(self.drain(now))
        return reports

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self.supervisor is not None:
            self.supervisor.close()

    # ---------------------------------------------------------- diagnosis

    def _static_asn_map(
        self, snapshot: MeasurementSnapshot, control: Optional[ControlPlaneView]
    ) -> StaticAsnMap:
        addresses = set()
        for store in (snapshot.before, snapshot.after):
            for path in store.paths():
                for hop in path.hops:
                    if isinstance(hop, str):
                        addresses.add(hop)
        if control is not None:
            for obs in control.igp_link_down:
                addresses.update((obs.address_a, obs.address_b))
            for obs in control.withdrawals:
                addresses.update((obs.at_address, obs.from_address))
        return StaticAsnMap(
            {address: self.asn_of(address) for address in sorted(addresses)}
        )

    def _diagnose_batch(
        self, batch: List[_PendingWork], now: int
    ) -> List[EpisodeReport]:
        """Diagnose a drained batch, serial or via the worker pool.

        Every transition in the batch sees the same window state (the
        windows only change in :meth:`offer`/:meth:`advance`), so the
        merged snapshot and control view are assembled once per drain.
        """
        next_index = len(self.reports)
        cached: Dict[int, EpisodeReport] = {}
        live: List[Tuple[int, EpisodeTransition]] = []
        for offset, work in enumerate(batch):
            index = next_index + offset
            if index in self.cached_reports:
                cached[index] = self.cached_reports[index]
                self.reports_reused += 1
            else:
                live.append((index, work.transition))

        open_work = [(index, t) for index, t in live if t.kind != CLOSE]
        snapshot = control = None
        if open_work:
            windows = [shard.window for shard in self.shards]
            snapshot = merged_snapshot(windows, self.asn_of)
            if self.asx is not None:
                control = merged_control_view(windows, self.asx)
        diagnosable = snapshot is not None and snapshot.any_failure()

        labels = list(self.diagnosers)
        pooled: Dict[Tuple[int, str], EpisodeDiagnosis] = {}
        if self.workers > 1 and diagnosable:
            pool_labels = [lbl for lbl in labels if self._pool_allowed(lbl)]
            jobs = [(i, label) for i, _t in open_work for label in pool_labels]
            if jobs:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.workers)
                static_map = self._static_asn_map(snapshot, control)
                picklable_snapshot = MeasurementSnapshot(
                    before=snapshot.before,
                    after=snapshot.after,
                    asn_of=static_map,
                )
                futures = [
                    (
                        (index, label),
                        self._pool.submit(
                            _diagnose_payload,
                            (
                                label,
                                self.diagnosers[label],
                                picklable_snapshot,
                                control,
                            ),
                        ),
                    )
                    for index, label in jobs
                ]
                for key, future in futures:
                    pooled[key] = future.result()

        reports: Dict[int, EpisodeReport] = dict(cached)
        for index, transition in live:
            diagnoses: List[EpisodeDiagnosis] = []
            if transition.kind != CLOSE and diagnosable:
                for label in labels:
                    if (index, label) in pooled:
                        verdict = pooled[(index, label)]
                    else:
                        verdict = self._diagnose_inline(
                            label, snapshot, control, transition, now
                        )
                    if verdict.error is not None:
                        self.diagnoses_failed += 1
                    if verdict.verdict is not None:
                        self.ensemble_verdicts.record(verdict.verdict)
                    diagnoses.append(verdict)
            reports[index] = EpisodeReport(
                report_index=index,
                episode_id=transition.episode_id,
                trigger=transition.kind,
                tick=transition.tick,
                diagnosed_at=now,
                pairs=transition.pairs,
                diagnoses=tuple(diagnoses),
            )
        return [reports[next_index + offset] for offset in range(len(batch))]

    def _pool_allowed(self, label: str) -> bool:
        """May this diagnoser's work use the process pool?  Never for
        unpicklable ``nd-lg`` closures, nor when the supervisor wants
        the outcome inline."""
        if not getattr(self.diagnosers[label], "poolable", True):
            return False
        return self.supervisor is None or self.supervisor.pool_allowed(label)

    def _diagnose_inline(
        self,
        label: str,
        snapshot: MeasurementSnapshot,
        control: Optional[ControlPlaneView],
        transition: EpisodeTransition,
        now: int,
    ) -> EpisodeDiagnosis:
        diagnoser = self.diagnosers[label]
        supervisor = self.supervisor
        refusal = None
        if supervisor is not None:
            refusal = supervisor.gate_diagnosis(
                label, diagnoser, transition.episode_id, now
            )
        if refusal is not None:
            verdict = _empty_diagnosis(label, error=refusal)
        else:
            try:
                verdict = _summarise(
                    diagnoser.diagnose(
                        snapshot, control=control, lg_lookup=self.lg_lookup
                    )
                )
            except Exception as exc:  # best-effort: degrade, never crash
                logger.debug(
                    "%s failed on window inputs (%s: %s); emitting an empty "
                    "verdict",
                    label, type(exc).__name__, exc,
                )
                verdict = _empty_diagnosis(label, error=type(exc).__name__)
        if supervisor is not None:
            supervisor.record_diagnosis(
                label, transition.episode_id, now, verdict.error
            )
        return verdict

    # ------------------------------------------------------------- counters

    def counters(self) -> Dict[str, int]:
        """The engine's own accounting, plus admission, merge and (when
        supervised) supervision counters."""
        counts = {
            "events_offered": self.events_offered,
            "events_admitted": self.events_admitted,
            "transitions_scheduled": self.transitions_scheduled,
            "episodes_coalesced": self.episodes_coalesced,
            "transitions_deferred": self.transitions_deferred,
            "reports_emitted": len(self.reports),
            "reports_reused": self.reports_reused,
            "diagnoses_failed": self.diagnoses_failed,
            "ensemble_agree": self.ensemble_verdicts.agree,
            "ensemble_partial": self.ensemble_verdicts.partial,
            "ensemble_conflict": self.ensemble_verdicts.conflict,
            "events_broadcast": self.events_broadcast,
            "shards": len(self.shards),
        }
        counts.update(self.admission.counters())
        counts["cross_shard_episodes"] = self.merger.cross_shard_episodes
        if self.supervisor is not None:
            counts.update(self.supervisor.engine_counters())
        return counts

    def ingest_counters(self) -> Dict[str, int]:
        """Summed screening accounting: every shard plus the control
        ingestor (each event is screened exactly once somewhere)."""
        return _summed(
            [shard.ingestor.counters() for shard in self.shards]
            + [self.control_ingestor.counters()]
        )

    def window_counters(self) -> Dict[str, int]:
        """Window accounting summed over the shards; broadcast copies
        (dark sensors, evicted feed entries) count once."""
        windows = [shard.window for shard in self.shards]
        counts = [window.counters() for window in windows]
        totals = _summed(counts)
        feed = [window.feed_evictions for window in windows]
        totals["stale_evictions"] -= sum(feed) - max(feed)
        totals["dark_sensors"] = max(c["dark_sensors"] for c in counts)
        return totals

    def detector_counters(self) -> Dict[str, int]:
        counts = {
            "pairs_tracked": sum(
                shard.alarms.pairs_tracked() for shard in self.shards
            ),
            "pairs_alarmed": sum(
                len(shard.alarms.alarmed_pairs()) for shard in self.shards
            ),
        }
        counts.update(self.merger.lifecycle.counters())
        return counts

    def stage_seconds(self) -> Dict[str, float]:
        totals = dict(self.seconds)
        for shard in self.shards:
            for key, value in shard.seconds.items():
                totals[key] += value
        return totals

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard balance view for the report and the benchmarks."""
        return [shard.stats() for shard in self.shards]

    def supervision_stats(self) -> Optional[Dict[str, Any]]:
        """The supervision block for reports and benchmark artifacts
        (``None`` when the engine is not supervised)."""
        if self.supervisor is None:
            return None
        return self.supervisor.supervision_stats()


def _summed(counters: List[Dict[str, int]]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for counts in counters:
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    return totals
