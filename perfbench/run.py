#!/usr/bin/env python3
"""Benchmark of the NetDiagnoser reproduction: one command, three workloads.

    python3 perfbench/run.py --workload sweep-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of one timed run.  ``--trace
1`` is the traced run: an untraced pass of ``--seconds / 2`` counts how
many units of work fit, then a fresh set-up repeats exactly that many
units with every layer's entry points wrapped in spans (see
``tracing.py``) and prints the per-layer metrics.  ``--ops N`` fixes the
number of units instead of the time, for exact-count comparisons.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
(prefixed ``#``) carry the run digest, the host calibration and, for a
traced run, each layer's share of the traced time.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = Path(__file__).resolve().parent / "out"

#: The seed to use by default, and the one held back for confirming a
#: claim on inputs that were not looked at while the change was written.
DEFAULT_SEED = 1
CONFIRM_SEED = 7

WORKLOADS = ("sweep-paper", "sweep-powerlaw", "stream-incident")


def drive(workload, seconds: float, tracer=None, units=None):
    """Run units of work closed-loop; returns (units, ops, busy seconds).

    Without ``units`` the loop stops at the first unit boundary after
    ``seconds``, but never before the workload's quality units are done.
    The host's speed is sampled between units, outside the timed work.
    Peak RSS is read once the quality units are done, so it covers the
    same work on a fast host and a slow one.
    """
    from repro.perf import peak_rss_mb

    ops, busy, index = 0, 0.0, 0
    workload.host.sample()
    deadline = time.perf_counter() + seconds
    while True:
        if units is not None:
            if index >= units:
                break
        elif index >= workload.quality_units and time.perf_counter() >= deadline:
            break
        n, spent = workload.step(index, tracer)
        ops += n
        busy += spent
        index += 1
        if index == workload.quality_units:
            workload.rss_mb = peak_rss_mb()
        workload.host.poll()
    workload.host.sample()
    if index < workload.quality_units:
        workload.rss_mb = peak_rss_mb()
    return index, ops, busy


def throughput(workload, host=None) -> float:
    """Ops per second of busy time, scaled to reference speed by ``host``.

    A sweep's busy time is the sum of its ops.  A stream placement
    replays the same log on every pass, so its pass time is the median of
    its passes, and a stray pass moves nothing.
    """

    def seconds(timed):
        return host.scaled(*timed) if host is not None else timed[0]

    passes = getattr(workload, "passes", None)
    if not passes:
        return len(workload.latencies) / sum(map(seconds, workload.latencies))
    events, busy = 0, 0.0
    for k in range(workload.n_placements):
        mine = passes[k :: workload.n_placements]
        if mine:
            events += mine[0][0]
            busy += statistics.median(seconds(p[1:]) for p in mine)
    return events / busy


def _p50_p90(latencies):
    latencies = sorted(latencies)
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[-1]


def end_to_end(workload, setup_times, setup_host) -> dict:
    """The seven end-to-end metrics, times at the reference host speed."""
    host = workload.host
    raw_setup = statistics.median(t[0] for t in setup_times)
    raw_p50, raw_p90 = _p50_p90([t[0] for t in workload.latencies])
    print(
        f"# as measured: setup_s {raw_setup:.4f}, "
        f"ops_per_s {throughput(workload):.4f}, "
        f"latency_p50_ms {raw_p50 * 1000.0:.3f}, "
        f"latency_p90_ms {raw_p90 * 1000.0:.3f}; "
        f"{len(host.samples)} host samples, median {host.median_ms():.3f} ms"
    )
    p50, p90 = _p50_p90([host.scaled(*t) for t in workload.latencies])
    return {
        "setup_s": (
            statistics.median(setup_host.scaled(*t) for t in setup_times),
            "s",
        ),
        "ops_per_s": (throughput(workload, host), "op/s"),
        "latency_p50_ms": (p50 * 1000.0, "ms"),
        "latency_p90_ms": (p90 * 1000.0, "ms"),
        "peak_rss_mb": (workload.rss_mb, "MiB"),
        "success_frac": (workload.success_frac(), "ratio"),
        "sensitivity": (workload.sensitivity(), "ratio"),
    }


def per_layer(workload, tracer, ops, before, after, overhead):
    """Every per-layer metric, from the span table and counter deltas."""
    from tracing import SpanTable

    table = SpanTable(tracer.rows)

    def total(name):
        return table.total.get(("op", name), 0.0)

    def self_time(name):
        return table.self_time.get(("op", name), 0.0)

    def first_in_setup(name):
        durations = table.first.get(("setup", name), [])
        return statistics.median(durations) if durations else 0.0

    delta = {}
    for stats_before, stats_after in zip(before, after):
        for key, value in stats_after.items():
            delta[key] = delta.get(key, 0) + value - stats_before.get(key, 0)
    lookups = delta["trace_cache_hits"] + delta["trace_cache_misses"]
    rounds = max(1, workload.diagnosis_rounds())
    scenarios = rounds if workload.name.startswith("sweep") else 0
    engine = getattr(workload, "engine_totals", {})
    shards = getattr(workload, "shard_offered", [])
    edge_calls = table.calls.get(("op", "core.edge_inputs"), 0)

    metrics = {
        "netsim.converge_s": (total("netsim.converge"), "s"),
        "netsim.baseline_converge_s": (first_in_setup("netsim.converge"), "s"),
        "netsim.converges": (delta["routing_cache_misses"], "count"),
        "netsim.prefixes_converged": (delta["prefixes_converged"], "count"),
        "netsim.prefixes_reused": (delta["prefixes_reused"], "count"),
        "netsim.routing_evictions": (delta["routing_cache_evictions"], "count"),
        "netsim.trace_self_s": (self_time("netsim.trace"), "s"),
        "netsim.traces_computed": (delta["trace_cache_misses"], "count"),
        "netsim.trace_hit_ratio": (
            delta["trace_cache_hits"] / lookups if lookups else 0.0,
            "ratio",
        ),
        "netsim.trace_evictions": (delta["trace_cache_evictions"], "count"),
        "measurement.snapshot_self_s": (self_time("measurement.snapshot"), "s"),
        "measurement.control_s": (total("measurement.control"), "s"),
        "measurement.log_build_s": (
            first_in_setup("measurement.log_build"),
            "s",
        ),
        "experiments.sample_self_s": (self_time("experiments.sample"), "s"),
        "experiments.converges_per_scenario": (
            delta["routing_cache_misses"] / scenarios if scenarios else 0.0,
            "ratio",
        ),
        "experiments.score_self_s": (self_time("experiments.score"), "s"),
        "core.edge_inputs_s": (total("core.edge_inputs"), "s"),
        "core.edge_inputs_per_scenario": (edge_calls / rounds, "ratio"),
        "core.greedy_s": (total("core.greedy"), "s"),
        "core.greedy_iterations": (
            tracer.counts["core.greedy_iterations"],
            "count",
        ),
        "core.failure_sets": (tracer.counts["core.failure_sets"], "count"),
        "core.reroute_sets": (tracer.counts["core.reroute_sets"], "count"),
        "core.diagnose_s.tomo": (total("core.diagnose.tomo"), "s"),
        "core.diagnose_s.nd-edge": (total("core.diagnose.nd-edge"), "s"),
        "core.diagnose_s.nd-bgpigp": (total("core.diagnose.nd-bgpigp"), "s"),
        "empathy.ensemble_self_s": (self_time("empathy.ensemble"), "s"),
        "empathy.diagnose_s": (total("empathy.diagnose"), "s"),
        "empathy.verdicts_conflict": (
            engine.get("ensemble_conflict", 0),
            "count",
        ),
        "stream.offer_s": (total("stream.offer"), "s"),
        "stream.offer_us_per_event": (
            total("stream.offer") / ops * 1e6 if engine else 0.0,
            "us",
        ),
        "stream.advance_s": (total("stream.advance"), "s"),
        "stream.drain_self_s": (self_time("stream.drain"), "s"),
        "stream.stage.ingest_s": (engine.get("stage.ingest", 0.0), "s"),
        "stream.stage.window_s": (engine.get("stage.window", 0.0), "s"),
        "stream.stage.detect_s": (engine.get("stage.detect", 0.0), "s"),
        "stream.stage.diagnose_s": (engine.get("stage.diagnose", 0.0), "s"),
        "stream.events_quarantined": (
            engine.get("events_quarantined", 0),
            "count",
        ),
        "stream.transitions_scheduled": (
            engine.get("transitions_scheduled", 0),
            "count",
        ),
        "stream.episodes_coalesced": (
            engine.get("episodes_coalesced", 0),
            "count",
        ),
        "stream.reports_emitted": (engine.get("reports_emitted", 0), "count"),
        "stream.cross_shard_episodes": (
            engine.get("cross_shard_episodes", 0),
            "count",
        ),
        "stream.checkpoints_saved": (
            engine.get("checkpoints_saved", 0),
            "count",
        ),
        "stream.shard_balance": (
            min(shards) / max(shards) if shards and max(shards) else 0.0,
            "ratio",
        ),
        "trace.overhead_frac": (overhead, "ratio"),
        "trace.unattributed_frac": (
            table.shares("op").get("unattributed", 0.0),
            "ratio",
        ),
        "trace.wall_s": (table.wall("op"), "s"),
    }
    return metrics, table


def report_shares(table) -> None:
    wall = table.wall("op")
    shares = sorted(table.shares("op").items(), key=lambda kv: -kv[1])
    print(f"# traced wall {wall:.3f} s; self-time share per span:")
    for name, share in shares:
        print(f"#   {name:<28s} {share * 100:6.2f}%")
    layers = {}
    for name, share in shares:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + share
    print(
        "# per layer: "
        + ", ".join(f"{k} {v * 100:.1f}%" for k, v in sorted(layers.items()))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None, help="fixed units of work")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        parser.error("--seconds and --ops must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        import hostspeed
        import tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    workload = workloads.make_workload(args.workload)
    setup_host = hostspeed.HostSpeed()
    setup_host.sample()
    workload.host = hostspeed.HostSpeed()
    if not args.trace:
        setup_times = workload.setup(args.seed, host=setup_host)
        units, ops, busy = drive(workload, args.seconds, units=args.ops)
        metrics = end_to_end(workload, setup_times, setup_host)
        calib = workload.host.samples
    else:
        # Reference pass, untraced, for the tracing overhead.
        workload.setup(args.seed, host=setup_host)
        units, ops, busy = drive(workload, args.seconds / 2.0, units=args.ops)
        untraced_rate = throughput(workload, workload.host)
        calib = workload.host.samples
        workload = workloads.make_workload(args.workload)
        workload.host = hostspeed.HostSpeed()
        tracer = tracing.Tracer()
        with tracing.Instrumentation(tracer) as instrumentation:
            workload.setup(args.seed, tracer)
            workload.instrument(instrumentation)
            before = [sim.cache_stats() for sim in workload.sims()]
            units, ops, busy = drive(workload, 0.0, tracer, units=units)
            after = [sim.cache_stats() for sim in workload.sims()]
        overhead = 1.0 - throughput(workload, workload.host) / untraced_rate
        calib = calib + workload.host.samples
        metrics, table = per_layer(
            workload, tracer, ops, before, after, overhead
        )
        SPAN_DIR.mkdir(exist_ok=True)
        spans = SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_jsonl(str(spans))
        report_shares(table)
        print(f"# {len(tracer.rows)} spans written to {spans.relative_to(ROOT)}")
    host_ms = statistics.median(calib)
    if args.trace:
        metrics["host.calib_ms"] = (host_ms, "ms")

    print(
        f"# {args.workload} seed {args.seed}: {units} units, {ops} ops, "
        f"{len(workload.latencies)} latency samples, busy {busy:.3f} s; "
        f"digest {workload.digest()}; host.calib_ms {host_ms:.2f}"
    )
    for failure in workload.failures[:10]:
        print(f"# FAILED {failure}")
    result = {
        "correct": not workload.failures,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
