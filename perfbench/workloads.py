"""The benchmark's three workloads: two batch sweeps and one stream replay.

Every workload runs in one process on one thread, closed loop: one
caller issues the next unit of work as soon as the previous one returns.
The seed drives sensor placement and scenario draws only; the topologies
are fixed, so a seed names one set of inputs.

A run spreads its work over several *placements* (independent sensor
deployments, each seeded ``f"{seed}/{name}/{k}"``).  Set-up is timed once
per placement, so ``setup_s`` is the median of several set-ups within one
run.  The first ``quality_units`` units of every run feed the hypothesis
digest and the quality metrics, so those are exact for a seed whatever
the host's speed; a run always completes at least that many units.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.linkspace import undirected_projection
from repro.diagnosers import make_diagnosers
from repro.errors import ScenarioError
from repro.experiments import runner
from repro.measurement.sensors import random_stub_placement
from repro.netsim.gen.internet import research_internet
from repro.netsim.gen.powerlaw import powerlaw_internet
from repro.serialize import token_to_dict
from repro.stream import replay
from repro.stream.episodes import CLOSE, OPEN
from repro.stream.router import TenantConfig, source_tenant_of

_NO_SPAN = nullcontext()


def _span(tracer, name: str, op: Optional[int] = None):
    return _NO_SPAN if tracer is None else tracer.span(name, op)


def _sample(host) -> None:
    if host is not None:
        host.sample()


def _tokens(hypothesis) -> List[str]:
    """A hypothesis as sorted canonical JSON strings (digest input)."""
    return sorted(
        json.dumps(token_to_dict(token), sort_keys=True) for token in hypothesis
    )


def _paper_topology():
    return research_internet(n_tier2=22, n_stub=140, seed=100)


def _powerlaw_topology():
    return powerlaw_internet(500, seed=0)


class _Recorder:
    """Pass-through diagnoser that keeps the last hypothesis it returned.

    ``run_scenario`` returns scores only; the digest and the non-empty
    check need the hypotheses themselves.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.variant = inner.variant
        self.last = None

    def diagnose(self, snapshot, control=None, lg_lookup=None):
        result = self.inner.diagnose(
            snapshot, control=control, lg_lookup=lg_lookup
        )
        self.last = result.hypothesis
        return result


class Workload:
    """Shared run state: per-op latencies, failures, digest material.

    Subclasses implement :meth:`setup` (returns ``(seconds, start, end)``
    per placement) and :meth:`step` (one unit of work; returns the number
    of ops it covered and the seconds it was busy).  Every timed interval
    is kept with its ``perf_counter`` bounds, so that it can be scaled to
    the host speed sampled around it (see ``hostspeed.py``).
    """

    name = ""
    quality_units = 1

    def __init__(self) -> None:
        #: The run's :class:`hostspeed.HostSpeed`; a unit that spans many
        #: sampling intervals polls it between its own timed regions.
        self.host = None
        #: (seconds, start, end) of every latency sample.
        self.latencies: List[Tuple[float, float, float]] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.expected = 0
        self.digest_items: List[object] = []
        self.hits: List[float] = []

    def digest(self) -> str:
        blob = json.dumps(self.digest_items, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def sensitivity(self) -> float:
        return statistics.fmean(self.hits) if self.hits else 0.0

    def success_frac(self) -> float:
        """``1 - failed_frac``: the share of expected outcomes that held."""
        return 1.0 - len(self.failures) / max(1, self.expected)

    def instrument(self, instrumentation) -> None:
        """Attach instance-level spans to this workload's diagnosers."""
        for diagnoser, name in self.diagnosers():
            instrumentation.diagnoser(diagnoser, name)


#: Diagnosers that must name at least one link on every admitted
#: scenario.  Tomo is exempt: it exonerates every link on a working T+
#: path, so a misconfigured link (which by definition still carries some
#: paths) or a failure BGP reroutes around empties its hypothesis -- the
#: weakness the paper's Figure 6 measures, not a fault.
REQUIRED_NONEMPTY = ("nd-edge", "nd-bgpigp")


class SweepWorkload(Workload):
    """Batch sweep: one op is ``sampler.sample(kind)`` + ``run_scenario``.

    This is ``PlacementJob.run``'s loop run serially, interleaved over
    the placements: op ``i`` uses placement ``i % P`` and kind
    ``i % len(kinds)``.  ``P`` and the number of kinds share no factor,
    so every placement cycles through the kinds and a run of any length
    holds the kinds in equal parts.
    """

    diagnoser_names = ("tomo", "nd-edge", "nd-bgpigp")
    quality_units = 60

    def __init__(self, name, topology, sensors, kinds, placements) -> None:
        super().__init__()
        self.name = name
        self.topology = topology
        self.n_sensors = sensors
        self.kinds = kinds
        self.n_placements = placements
        self.placements: List[Tuple[runner.Session, int]] = []
        self.recorders: Dict[str, _Recorder] = {}

    def setup(self, seed: int, tracer=None, host=None) -> List[Tuple]:
        times = []
        for k in range(self.n_placements):
            started = time.perf_counter()
            with _span(tracer, "setup", k):
                topo = self.topology()
                rng = random.Random(f"{seed}/{self.name}/{k}")
                session = runner.make_session(
                    topo, random_stub_placement(topo, self.n_sensors, rng), rng
                )
            ended = time.perf_counter()
            times.append((ended - started, started, ended))
            _sample(host)
            self.placements.append((session, topo.core_asns[0]))
        self.recorders = {
            label: _Recorder(diagnoser)
            for label, diagnoser in make_diagnosers(self.diagnoser_names).items()
        }
        return times

    def diagnosers(self) -> Iterator[Tuple[object, str]]:
        for label, recorder in self.recorders.items():
            yield recorder.inner, f"core.diagnose.{label}"

    def sims(self):
        return [session.sim for session, _asx in self.placements]

    def diagnosis_rounds(self) -> int:
        return self.attempted - len(self.failures)

    def step(self, index: int, tracer=None) -> Tuple[int, float]:
        session, asx = self.placements[index % self.n_placements]
        kind = self.kinds[index % len(self.kinds)]
        for recorder in self.recorders.values():
            recorder.last = None
        record, error = None, None
        started = time.perf_counter()
        with _span(tracer, "op", index):
            try:
                scenario = session.sampler.sample(kind)
                record = runner.run_scenario(
                    session, scenario, self.recorders, asx=asx
                )
            except ScenarioError as exc:
                error = f"ScenarioError: {exc}"
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
        ended = time.perf_counter()
        busy = ended - started
        self.latencies.append((busy, started, ended))
        self.attempted += 1
        self.expected += 1
        empty = [
            label for label in REQUIRED_NONEMPTY if not self.recorders[label].last
        ]
        if error is None and empty:
            error = f"empty hypothesis from {', '.join(empty)}"
        if error is not None:
            self.failures.append(f"op {index} ({kind}): {error}")
        if index < self.quality_units:
            self.digest_items.append(
                [
                    index,
                    kind,
                    {
                        label: _tokens(rec.last or ())
                        for label, rec in self.recorders.items()
                    },
                ]
            )
            self.hits.append(
                record.scores["nd-bgpigp"].link.sensitivity
                if record is not None
                else 0.0
            )
        return 1, busy


#: Three tenants whose contracts (no rate limit) admit the whole load.
TENANTS = tuple(TenantConfig(f"tenant-{i}") for i in range(3))


class StreamWorkload(Workload):
    """Stream replay: one op is one event through ``offer``/``advance``/``drain``.

    One unit is a full pass over one placement's event log with a fresh
    supervised two-shard engine; units cycle over the placements.  Each
    episode is two incident rounds followed by a long quiet recovery
    stretch, so admission, screening, window and detection carry most of
    a pass and diagnosis the rest.
    """

    name = "stream-incident"
    diagnoser_names = ("nd-bgpigp", "ensemble")
    n_sensors = 20
    episodes = 7
    recovery_rounds = 28
    n_placements = 3
    quality_units = n_placements

    def __init__(self) -> None:
        super().__init__()
        self.placements: List[dict] = []
        #: Engine counters and stage seconds summed over every pass.
        self.engine_totals: Dict[str, float] = {}
        self.shard_offered: List[int] = [0, 0]
        #: (events, busy seconds, start, end) of every pass, in order.
        self.passes: List[Tuple[int, float, float, float]] = []

    def _engine(self, setup: replay.ReplaySetup):
        common = dict(
            asn_of=setup.session.sim.mapper.asn_of,
            diagnosers=setup.diagnosers,
            asx=setup.asx,
            workers=0,
        )
        return replay.build_engine(
            common,
            shards=2,
            supervise=True,
            tenants=TENANTS,
            tenant_of=source_tenant_of(TENANTS),
        )

    def setup(self, seed: int, tracer=None, host=None) -> List[Tuple]:
        times = []
        config = replay.ReplayConfig(
            kind="link-1",
            episodes=self.episodes,
            incident_rounds=2,
            recovery_rounds=self.recovery_rounds,
            fault_rate=0.0,
            seed=seed,
        )
        for k in range(self.n_placements):
            started = time.perf_counter()
            with _span(tracer, "setup", k):
                topo = _paper_topology()
                rng = random.Random(f"{seed}/{self.name}/{k}")
                session = runner.make_session(
                    topo, random_stub_placement(topo, self.n_sensors, rng), rng
                )
                setup = replay.ReplaySetup(
                    session=session,
                    asx=topo.core_asns[0],
                    blocked_ases=frozenset(),
                    lg_service=None,
                    diagnosers=make_diagnosers(self.diagnoser_names),
                )
                log = replay.build_event_log(setup, config)
                engine = self._engine(setup)
            ended = time.perf_counter()
            times.append((ended - started, started, ended))
            _sample(host)
            by_tick: Dict[int, list] = {}
            for event in log.events:
                by_tick.setdefault(event.tick, []).append(event)
            self.placements.append(
                {"setup": setup, "log": log, "by_tick": by_tick, "engine": engine}
            )
        return times

    def diagnosers(self) -> Iterator[Tuple[object, str]]:
        for placement in self.placements:
            for label, diagnoser in placement["setup"].diagnosers.items():
                if label == "ensemble":
                    yield diagnoser, "empathy.ensemble"
                    for member_label, member in diagnoser.members.items():
                        name = (
                            "empathy.diagnose"
                            if member_label == "empathy"
                            else f"core.diagnose.{member_label}"
                        )
                        yield member, name
                else:
                    yield diagnoser, f"core.diagnose.{label}"

    def sims(self):
        return [p["setup"].session.sim for p in self.placements]

    def diagnosis_rounds(self) -> int:
        return len(self.latencies)

    def step(self, index: int, tracer=None) -> Tuple[int, float]:
        placement = self.placements[index % self.n_placements]
        engine = placement.pop("engine", None) or self._engine(placement["setup"])
        log, by_tick = placement["log"], placement["by_tick"]
        arrivals: List[Tuple[object, float]] = []
        engine.on_report = lambda report: arrivals.append(
            (report, time.perf_counter())
        )
        tick_start: Dict[int, float] = {}
        tick_base = index * (log.last_tick + 2)
        paused = 0.0
        started = time.perf_counter()
        for tick in range(log.last_tick + 2):
            if self.host is not None:
                paused += self.host.poll()
            with _span(tracer, "op", tick_base + tick):
                tick_start[tick] = time.perf_counter()
                if tick <= log.last_tick:
                    with _span(tracer, "stream.offer"):
                        for event in by_tick.get(tick, ()):
                            engine.offer(event)
                with _span(tracer, "stream.advance"):
                    engine.advance(tick)
                with _span(tracer, "stream.drain"):
                    if tick <= log.last_tick:
                        engine.drain(tick)
                    else:  # end of stream: one grace tick retires the rest
                        engine.flush(tick)
        ended = time.perf_counter()
        busy = ended - started - paused
        engine.close()
        self._accumulate(engine)

        for report, arrived in arrivals:
            if report.trigger != CLOSE and report.diagnoses:
                begun = tick_start[report.tick]
                self.latencies.append((arrived - begun, begun, arrived))
        self._check(index, engine, log)
        self.attempted += len(log.events)
        self.passes.append((len(log.events), busy, started, ended))
        return len(log.events), busy

    def _accumulate(self, engine) -> None:
        counts = dict(engine.counters())
        counts.update(engine.ingest_counters())
        counts.update(engine.detector_counters())
        for stage, seconds in engine.stage_seconds().items():
            counts[f"stage.{stage}"] = seconds
        for key, value in counts.items():
            self.engine_totals[key] = self.engine_totals.get(key, 0) + value
        for shard in engine.shard_stats():
            self.shard_offered[shard["shard"]] += shard["events_offered"]

    def _check(self, index: int, engine, log) -> None:
        """Every episode opens, no diagnosis errs, accounting is exact."""
        reports = engine.reports
        offered = engine.counters()["events_offered"]
        if offered != len(log.events):
            self.failures.append(
                f"pass {index}: {offered} events offered, log holds "
                f"{len(log.events)}"
            )
        opens = [r for r in reports if r.trigger == OPEN]
        diagnoses = [d for r in reports for d in r.diagnoses]
        self.expected += len(diagnoses) + len(log.episodes)
        for diagnosis in diagnoses:
            if diagnosis.error is not None:
                self.failures.append(
                    f"pass {index}: {diagnosis.algorithm} raised {diagnosis.error}"
                )
        first_pass = index < self.quality_units
        for number, episode in enumerate(log.episodes):
            report = next(
                (
                    r
                    for r in opens
                    if episode.first_incident_tick <= r.tick <= episode.last_tick
                ),
                None,
            )
            if report is None:
                self.failures.append(f"pass {index}: episode {number} never opened")
                if first_pass:
                    self.hits.append(0.0)
                continue
            if first_pass:
                named = {
                    str(link)
                    for d in report.diagnoses
                    if d.algorithm == "nd-bgpigp"
                    for link in undirected_projection(d.hypothesis)
                }
                self.hits.append(1.0 if named & set(episode.truth) else 0.0)
        if first_pass:
            self.digest_items.append(
                [
                    [
                        r.tick,
                        r.trigger,
                        [[d.algorithm, _tokens(d.hypothesis)] for d in r.diagnoses],
                    ]
                    for r in reports
                ]
            )


WORKLOADS = ("sweep-paper", "sweep-powerlaw", "stream-incident")


def make_workload(name: str) -> Workload:
    if name == "sweep-paper":
        return SweepWorkload(
            name,
            _paper_topology,
            sensors=14,
            kinds=("link-1", "link-2", "router", "misconfig"),
            placements=27,
        )
    if name == "sweep-powerlaw":
        return SweepWorkload(
            name,
            _powerlaw_topology,
            sensors=4,
            kinds=("link-1", "link-2"),
            placements=27,
        )
    if name == "stream-incident":
        return StreamWorkload()
    raise ValueError(f"unknown workload {name!r}")
