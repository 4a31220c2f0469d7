"""Sharded-engine scale benchmark: events/sec, latency, shed at overload.

The tentpole question of the sharding work: what does the
:class:`~repro.stream.StreamEngine` sustain per shard count, and how does
it behave when tenants exceed their admission contracts?  This bench
replays a **seeded synthetic load** — millions of per-pair reachability
events with deterministic failure waves sweeping across destination
prefixes (and therefore across shards) — and records into
``BENCH_stream_scale.json`` (repo root + ``results/``):

* sustained ``events_per_second`` through route→admit→screen→window→
  detect→merge, per shard count;
* ``latency_ticks_p99``: how long episode transitions waited on the
  bounded queue (logical ticks);
* the **overload** run: per-tenant token buckets far below the offered
  load, completing with zero unhandled exceptions and a nonzero,
  fully-accounted shed count (``offered == admitted + shed``).

Reachability events carry no hops, so the bench measures the streaming
fabric itself, not diagnoser algebra (that is ``test_perf_stream.py``'s
job).  Scale knobs: ``REPRO_BENCH_SHARD_EVENTS`` (default 1_000_000)
and ``REPRO_BENCH_SHARDS`` (default 4).

Run directly (the stream-smoke CI lane does)::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_shards.py -q \
        --benchmark-disable
"""

from __future__ import annotations

import json
import os
import time

from repro.experiments.stats import percentile, ratio
from repro.perf import peak_rss_mb, write_bench_artifact
from repro.stream import (
    ReachabilityEvent,
    StreamEngine,
    TenantConfig,
    source_tenant_of,
)

from conftest import REPO_ROOT

SCHEMA = "bench-stream-scale-v1"

N_EVENTS = int(os.environ.get("REPRO_BENCH_SHARD_EVENTS", "1000000"))
N_SHARDS = int(os.environ.get("REPRO_BENCH_SHARDS", "4"))

#: Synthetic mesh shape: sources x destinations = pairs per tick.
N_SOURCES = 40
N_DESTS = 50
#: Failure waves: every WAVE_PERIOD ticks, WAVE_WIDTH destination
#: prefixes go dark for WAVE_TICKS ticks (seeded, deterministic).
WAVE_PERIOD = 12
WAVE_TICKS = 5
WAVE_WIDTH = 6


def _no_asn(_address: str):
    """Synthetic addresses have no AS mapping: prefix-keyed routing."""
    return None


def _pairs():
    """The synthetic sensor mesh, as (src, dst) address pairs.

    Destinations spread over ``N_DESTS`` distinct /24 prefixes, so the
    consistent-hash router spreads them over every shard and failure
    waves span shards — exercising the cross-shard merge path.
    """
    sources = [f"10.0.{i // 250}.{i % 250 + 1}" for i in range(N_SOURCES)]
    dests = [f"198.51.{i}.1" for i in range(N_DESTS)]
    return [(src, dst) for src in sources for dst in dests]


def _dst_failing(dst: str, tick: int) -> bool:
    """Deterministic failure waves over destination prefixes."""
    phase = tick % WAVE_PERIOD
    if phase >= WAVE_TICKS:
        return False
    wave = tick // WAVE_PERIOD
    prefix_index = int(dst.split(".")[2])
    return (prefix_index + wave) % (N_DESTS // WAVE_WIDTH) == 0


def _make_engine(shards: int, tenants=(), tenant_of=None) -> StreamEngine:
    return StreamEngine(
        asn_of=_no_asn,
        diagnosers={},
        shards=shards,
        window_width=4,
        open_after=2,
        close_after=2,
        max_pending=16,
        overflow_limit=1024,
        tenants=tenants,
        tenant_of=tenant_of,
    )


def _drive(engine: StreamEngine, n_events: int):
    """Stream ``n_events`` synthetic reachability events, tick by tick."""
    pairs = _pairs()
    per_tick = len(pairs)
    ticks = max(1, n_events // per_tick)
    seq = 0
    started = time.perf_counter()
    for tick in range(1, ticks + 1):
        for src, dst in pairs:
            engine.offer(
                ReachabilityEvent(
                    tick=tick,
                    seq=seq,
                    src=src,
                    dst=dst,
                    reached=not _dst_failing(dst, tick),
                )
            )
            seq += 1
        engine.advance(tick)
        engine.drain(tick)
    engine.advance(ticks + 1)
    engine.flush(ticks + 1)
    engine.close()
    wall = time.perf_counter() - started
    return seq, ticks, wall


def _measure_throughput(shards: int, n_events: int):
    engine = _make_engine(shards)
    events, ticks, wall = _drive(engine, n_events)
    counters = engine.counters()
    latencies = engine.latencies
    stats = engine.shard_stats()
    offered = [s["events_offered"] for s in stats]
    return engine, {
        "shards": shards,
        "events": events,
        "ticks": ticks,
        "wall_seconds": round(wall, 3),
        "events_per_second": round(ratio(events, wall), 1),
        "reports": counters["reports_emitted"],
        "episodes": counters["episodes_total"]
        if "episodes_total" in counters
        else engine.detector_counters()["episodes_total"],
        "cross_shard_episodes": counters["cross_shard_episodes"],
        "latency_ticks_p50": percentile(latencies, 0.50),
        "latency_ticks_p99": percentile(latencies, 0.99),
        "shard_events_min": min(offered),
        "shard_events_max": max(offered),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }


def _measure_overload(shards: int, n_events: int):
    """Offer far more than the tenants' admission contracts allow."""
    pairs_per_tick = N_SOURCES * N_DESTS
    # Four tenants, each granted ~1/16 of the offered per-tick load:
    # the controller must shed the rest, deterministically and counted.
    tenants = tuple(
        TenantConfig(f"tenant-{i}", rate=max(1, pairs_per_tick // 16))
        for i in range(4)
    )
    engine = _make_engine(shards, tenants=tenants, tenant_of=source_tenant_of(tenants))
    events, ticks, wall = _drive(engine, n_events)
    counters = engine.counters()
    shed = counters["admission_shed"]
    admitted = counters["admission_admitted"]
    unknown = counters["admission_rejected_unknown"]
    # Every offered pair event is accounted exactly once: admitted or
    # shed (no unknowns — every source maps to a registered tenant).
    pair_events = counters["events_offered"] - counters["events_broadcast"]
    assert unknown == 0
    assert shed > 0, "an overload run that sheds nothing measured nothing"
    assert admitted + shed == pair_events, (
        f"unaccounted events: {pair_events} offered != "
        f"{admitted} admitted + {shed} shed"
    )
    return {
        "shards": shards,
        "events": events,
        "ticks": ticks,
        "wall_seconds": round(wall, 3),
        "events_per_second": round(ratio(events, wall), 1),
        "tenants": len(tenants),
        "admitted": admitted,
        "shed": shed,
        "shed_rate": round(ratio(shed, pair_events), 4),
        "reports": counters["reports_emitted"],
    }


def test_perf_shards():
    """Throughput + overload measurement, merged into the artifact."""
    engine, throughput = _measure_throughput(N_SHARDS, N_EVENTS)

    # The waves must actually produce episode work and span shards,
    # otherwise the throughput number measured an idle pipe.
    assert throughput["reports"] > 0
    assert throughput["cross_shard_episodes"] > 0
    assert throughput["events_per_second"] > 0
    # Bounded latency: the queue is drained every tick, so transitions
    # never wait more than the end-of-stream grace tick.
    assert throughput["latency_ticks_p99"] <= 1
    # The router must not have collapsed the mesh onto one shard.
    assert throughput["shard_events_min"] > 0

    overload = _measure_overload(N_SHARDS, max(N_EVENTS // 5, 20000))

    def merge(data):
        data.setdefault("throughput", {})[str(N_SHARDS)] = throughput
        data["overload"] = overload

    data = write_bench_artifact("stream_scale", SCHEMA, merge, REPO_ROOT)
    print()
    print(json.dumps(data, indent=2, sort_keys=True))

    assert (REPO_ROOT / "BENCH_stream_scale.json").exists()
    assert (REPO_ROOT / "results" / "BENCH_stream_scale.json").exists()


def test_perf_shards_serial_baseline():
    """One-shard throughput row for the scaling story in the artifact."""
    _engine, row = _measure_throughput(1, max(N_EVENTS // 10, 20000))
    assert row["reports"] > 0

    def merge(data):
        data.setdefault("throughput", {})["1"] = row

    write_bench_artifact("stream_scale", SCHEMA, merge, REPO_ROOT)
