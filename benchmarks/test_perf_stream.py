"""Throughput and latency benchmark for the streaming diagnosis engine.

Replays a multi-episode event log with measurement faults through
:class:`StreamEngine` on the paper's research-Internet topology and
records the numbers the stream lane tracks: sustained events/sec through
ingest→window→detect, and the p50/p99 episode-diagnosis latency in
logical ticks (how long an episode transition waited on the bounded
queue before its diagnosis ran).  A fault-free replay of the same
deployment first checks that each injected outage opens and closes its
own episode.

Run with the slow lane::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_stream.py -m slow -s

Scale knobs: ``REPRO_BENCH_STREAM_EPISODES`` (default 4) and
``REPRO_BENCH_SENSORS`` (default 10).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments.report import render_stream_report
from repro.experiments.stats import percentile
from repro.perf import write_bench_artifact
from repro.stream import (
    CLOSE,
    OPEN,
    UPDATE,
    ReplayConfig,
    make_replay_setup,
    run_stream_replay,
)

from conftest import REPO_ROOT

TOPO_SEED = 100
SEED = 0

SCHEMA = "bench-stream-v1"


def _replay(episodes, n_sensors, fault_rate):
    # A fresh setup per replay: the scenario sampler is stateful, so the
    # same setup arguments are what makes two replays inject the same
    # failures.
    setup = make_replay_setup(
        seed=SEED,
        topo_seed=TOPO_SEED,
        n_tier2=22,
        n_stub=140,
        n_sensors=n_sensors,
    )
    config = ReplayConfig(
        kind="link-1",
        episodes=episodes,
        incident_rounds=2,
        recovery_rounds=2,
        fault_rate=fault_rate,
        seed=SEED,
    )
    return run_stream_replay(setup, config, policy="quarantine")


def _reports_within(result, episode, triggers):
    return [
        report
        for report in result.reports
        if report.trigger in triggers
        and episode.first_incident_tick <= report.tick <= episode.last_tick
    ]


@pytest.mark.slow
def test_stream_throughput_and_episode_latency():
    episodes = int(os.environ.get("REPRO_BENCH_STREAM_EPISODES", "4"))
    n_sensors = int(os.environ.get("REPRO_BENCH_SENSORS", "10"))

    # Without faults every injected outage opens and closes its own
    # episode.
    clean = _replay(episodes, n_sensors, fault_rate=0.0)
    assert [r.trigger for r in clean.reports] == [OPEN, CLOSE] * episodes
    for episode in clean.episodes:
        assert len(_reports_within(clean, episode, (OPEN, CLOSE))) == 2, episode

    result = _replay(episodes, n_sensors, fault_rate=0.1)
    assert result.events_total > 0
    assert result.reports, "the replay must diagnose at least one episode"
    # Under faults a truncated recovery probe reports the pair still
    # unreachable, so an episode may stay open across the next outage,
    # which then arrives as an update.  Either way, every injected
    # outage is reported while it lasts.
    for episode in result.episodes:
        assert _reports_within(result, episode, (OPEN, UPDATE)), episode

    events_per_second = result.events_total / max(result.wall_seconds, 1e-9)
    p50 = percentile(result.latencies, 0.50)
    p99 = percentile(result.latencies, 0.99)

    def merge(data):
        data["replay"] = {
            "episodes": episodes,
            "n_sensors": n_sensors,
            "events_total": result.events_total,
            "wall_seconds": round(result.wall_seconds, 4),
            "events_per_second": round(events_per_second, 1),
            "latency_ticks_p50": p50,
            "latency_ticks_p99": p99,
            "reports": len(result.reports),
        }

    write_bench_artifact("stream", SCHEMA, merge, REPO_ROOT)

    print()
    print(render_stream_report(result))
    print(
        f"\n(22, 140) stream, {episodes} episodes, {n_sensors} sensors: "
        f"{result.events_total} events in {result.wall_seconds:.2f}s "
        f"-> {events_per_second:.0f} events/s, episode latency "
        f"p50={p50} p99={p99} ticks"
    )

    # Bounded latency: with an uncontended queue every transition is
    # diagnosed the tick it was scheduled (the grace tick at end of
    # stream adds at most one).
    assert p99 <= 1
