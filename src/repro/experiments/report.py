"""Text rendering of figure results.

The paper's figures are plots; our harness regenerates the underlying
series and prints them as aligned text tables (one per series) — plus an
optional ASCII chart overlaying all series — followed by per-series
summary statistics and the notes stating which qualitative claims the
series should exhibit.  ``EXPERIMENTS.md`` records these renderings next
to the paper's claims.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.experiments.figures.base import FigureResult, Series
    from repro.experiments.runner import RunnerStats
    from repro.stream.replay import StreamRunResult

__all__ = [
    "render_figure",
    "render_ascii_chart",
    "render_runner_stats",
    "render_stream_report",
]

#: Marker characters assigned to series in order.
_MARKERS = "ox+*#@%&"


def render_ascii_chart(
    series_list: Sequence["Series"], width: int = 60, height: int = 16
) -> str:
    """Overlay every series on one character grid (terminal plot).

    Each series gets a marker from ``o x + * ...``; axes are annotated
    with the data ranges.  Intended for quick visual inspection of the
    regenerated figures — the tables remain the authoritative record.
    """
    points = [p for series in series_list for p in series.points]
    if not points:
        return "(no data points)"
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, series in enumerate(series_list):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in series.points:
            col = round((x - x_lo) / x_span * (width - 1))
            row = (height - 1) - round((y - y_lo) / y_span * (height - 1))
            grid[row][col] = marker

    lines = [f"{y_hi:8.2f} |" + "".join(grid[0])]
    lines += ["         |" + "".join(row) for row in grid[1:-1]]
    lines.append(f"{y_lo:8.2f} |" + "".join(grid[-1]))
    lines.append("         +" + "-" * width)
    lines.append(f"          {x_lo:<10.3g}{'':>{max(0, width - 20)}}{x_hi:>10.3g}")
    legend = "  ".join(
        f"{_MARKERS[i % len(_MARKERS)]}={series.name}"
        for i, series in enumerate(series_list)
    )
    lines.append(f"          {legend}")
    return "\n".join(lines)


def render_runner_stats(stats: "RunnerStats") -> str:
    """Aligned accounting block for one batch's :class:`RunnerStats`.

    Not part of a figure's golden output: every timing in it is
    wall-clock, so it is rendered as an appendix after the series data.
    Phase times are labelled *CPU seconds* because they are summed over
    every placement's (worker) process; only ``wall`` is the batch's
    elapsed time, and under ``workers > 1`` the CPU total legitimately
    exceeds it — their ratio is the realised parallel speedup.
    """
    from repro.experiments.stats import ratio

    cpu_seconds = stats.setup_seconds + stats.scenario_seconds
    speedup = ratio(cpu_seconds, stats.wall_seconds)
    trace_rate = ratio(
        stats.trace_cache_hits, stats.trace_cache_hits + stats.trace_cache_misses
    )
    routing_rate = ratio(
        stats.routing_cache_hits,
        stats.routing_cache_hits + stats.routing_cache_misses,
    )
    reuse_rate = ratio(
        stats.prefixes_reused, stats.prefixes_reused + stats.prefixes_converged
    )
    lines = [
        "-- runner stats",
        f"   workers={stats.workers}  placements={stats.placements}  "
        f"records={stats.records}",
        f"   scenarios: sampled={stats.scenarios_sampled}  "
        f"rejected={stats.scenarios_rejected}  "
        f"budget-exhaustions={stats.budget_exhaustions}",
        f"   trace cache: entries={stats.trace_cache_entries}  "
        f"hits={stats.trace_cache_hits}  misses={stats.trace_cache_misses}  "
        f"evictions={stats.trace_cache_evictions}  "
        f"(hit-rate={trace_rate:.2f})",
        f"   routing cache: entries={stats.routing_cache_entries}  "
        f"hits={stats.routing_cache_hits}  "
        f"misses={stats.routing_cache_misses}  "
        f"evictions={stats.routing_cache_evictions}  "
        f"(hit-rate={routing_rate:.2f})",
        f"   convergence: full={stats.full_converges}  "
        f"incremental={stats.incremental_converges}  "
        f"prefixes converged={stats.prefixes_converged}  "
        f"reused={stats.prefixes_reused}  (reuse-rate={reuse_rate:.2f})",
        f"   rib sharing: owned={stats.rib_prefixes_owned}  "
        f"shared={stats.rib_prefixes_shared}  "
        f"cow-copies={stats.rib_cow_copies}",
        f"   time: setup-cpu={stats.setup_seconds:.2f}s  "
        f"scenarios-cpu={stats.scenario_seconds:.2f}s  "
        f"(aggregate CPU seconds across {stats.workers} worker(s))",
        f"   wall={stats.wall_seconds:.2f}s  (cpu/wall={speedup:.2f}x)",
    ]
    if stats.any_faults_seen():
        lines[-1:-1] = [
            f"   faults: probes dropped={stats.probes_dropped}  "
            f"truncated={stats.probes_truncated}  "
            f"hops anonymized={stats.hops_anonymized}  "
            f"sensors down={stats.sensors_down}  "
            f"pairs discarded={stats.pairs_discarded}  "
            f"failures masked={stats.masked_failures}",
            f"   looking glass: failures={stats.lg_failures}  "
            f"retries={stats.lg_retries}  exhausted={stats.lg_exhausted}  "
            f"rate-limited={stats.lg_rate_limited}",
            f"   control feed: outages={stats.feed_outages}  "
            f"withdrawals lost={stats.withdrawals_lost}  "
            f"delayed={stats.withdrawals_delayed}  "
            f"igp lost={stats.igp_lost}  delayed={stats.igp_delayed}",
            f"   degraded diagnoses={stats.degraded_diagnoses}",
        ]
    if stats.any_corruption_seen():
        lines[-1:-1] = [
            f"   corruption: hops forged={stats.hops_forged}  "
            f"duplicated={stats.hops_duplicated}  "
            f"loops injected={stats.loops_injected}  "
            f"reach bits flipped={stats.reach_bits_flipped}  "
            f"stale replays={stats.stale_replays}",
            f"   corrupted feeds: duplicated={stats.feed_messages_duplicated}  "
            f"misordered={stats.feed_messages_misordered}  "
            f"lg stale answers={stats.lg_stale_answers}",
        ]
    if stats.any_ensemble_seen():
        disagreement = stats.ensemble_disagreement()
        lines[-1:-1] = [
            f"   ensemble: agree={stats.ensemble_agreements}  "
            f"partial={stats.ensemble_partials}  "
            f"conflict={stats.ensemble_conflicts}  "
            f"(agreement-rate={disagreement.agreement_rate():.2f})",
        ]
    if stats.any_validation_seen():
        lines[-1:-1] = [
            f"   validation: violations={stats.invariant_violations}  "
            f"traces repaired={stats.traces_repaired}  "
            f"quarantined={stats.traces_quarantined}  "
            f"stale rounds dropped={stats.stale_rounds_dropped}",
            f"   validated feeds: repaired={stats.feed_messages_repaired}  "
            f"quarantined={stats.feed_messages_quarantined}  "
            f"lg paths quarantined={stats.lg_paths_quarantined}",
            f"   consistency: sensors excluded={stats.sensors_excluded}  "
            f"re-diagnoses={stats.rediagnoses}",
        ]
    if stats.placements_resumed:
        lines.append(f"   journal: resumed={stats.placements_resumed}")
    return "\n".join(lines)


def render_stream_report(result: "StreamRunResult") -> str:
    """Aligned accounting block for one stream replay.

    Episode reports themselves are deterministic; this block mixes them
    with wall-clock throughput, so (like :func:`render_runner_stats`)
    it is an appendix, never golden output.  Latency is in logical
    ticks: how long a scheduled episode transition waited in the
    bounded queue before its diagnosis ran.
    """
    from repro.experiments.stats import percentile, ratio

    engine = result.engine_counters
    ingest = result.ingest_counters
    window = result.window_counters
    detector = result.detector_counters
    events_per_second = ratio(result.events_total, result.wall_seconds)
    latencies = sorted(result.latencies)
    lines = [
        "-- stream replay",
        f"   events={result.events_total}  "
        f"episodes injected={len(result.episodes)}  "
        f"reports={engine['reports_emitted']}  "
        f"wall={result.wall_seconds:.2f}s  "
        f"({events_per_second:.0f} events/s)",
        f"   ingest: screened={ingest['events_screened']}  "
        f"quarantined={ingest['events_quarantined']}  "
        f"repaired={ingest['events_repaired']}",
        f"   window: baseline pairs={window['baseline_pairs']}  "
        f"current pairs={window['current_pairs']}  "
        f"stale evictions={window['stale_evictions']}  "
        f"dark sensors={window['dark_sensors']}",
        f"   episodes: detected={detector['episodes_total']}  "
        f"open at end={detector['episodes_open']}  "
        f"transitions={detector['transitions']}  "
        f"flaps={detector.get('flaps', 0)}  "
        f"pairs alarmed={detector['pairs_alarmed']}",
        f"   backpressure: coalesced={engine['episodes_coalesced']}  "
        f"deferred={engine['transitions_deferred']}  "
        f"reused={engine['reports_reused']}  "
        f"degraded diagnoses={engine['diagnoses_failed']}",
        *(
            [
                f"   ensemble verdicts: agree={engine['ensemble_agree']}  "
                f"partial={engine['ensemble_partial']}  "
                f"conflict={engine['ensemble_conflict']}"
            ]
            if engine.get("ensemble_agree", 0)
            + engine.get("ensemble_partial", 0)
            + engine.get("ensemble_conflict", 0)
            else []
        ),
        f"   latency (ticks): p50={percentile(latencies, 0.50):.0f}  "
        f"p99={percentile(latencies, 0.99):.0f}  "
        f"max={latencies[-1] if latencies else 0:.0f}",
        f"   stage cpu: ingest={result.stage_seconds['ingest']:.2f}s  "
        f"window={result.stage_seconds['window']:.2f}s  "
        f"detect={result.stage_seconds['detect']:.2f}s  "
        f"diagnose={result.stage_seconds['diagnose']:.2f}s",
    ]
    if result.shard_stats:
        lines.append(
            f"   shards: n={engine.get('shards', len(result.shard_stats))}  "
            f"broadcast events={engine.get('events_broadcast', 0)}  "
            f"cross-shard episodes={engine.get('cross_shard_episodes', 0)}"
        )
        for stats in result.shard_stats:
            lines.append(
                f"     shard {stats['shard']}: "
                f"offered={stats['events_offered']}  "
                f"admitted={stats['events_admitted']}  "
                f"pairs tracked={stats['pairs_tracked']}  "
                f"alarmed={stats['pairs_alarmed']}"
            )
        if engine.get("admission_shed", 0) or engine.get(
            "admission_rejected_unknown", 0
        ):
            lines.append(
                f"   admission: admitted={engine.get('admission_admitted', 0)}  "
                f"shed={engine.get('admission_shed', 0)}  "
                f"unknown tenant={engine.get('admission_rejected_unknown', 0)}"
            )
    if result.supervision is not None:
        sup = result.supervision["counters"]
        recoveries = result.supervision["ticks_to_recover"]
        mean_recover = (
            sum(recoveries) / len(recoveries) if recoveries else 0.0
        )
        lines.append(
            f"   supervision: crashes={sup['shard_crashes']}  "
            f"stalls={sup['shard_stalls']}  slow ticks={sup['slow_ticks']}  "
            f"recoveries={sup['recoveries']}  "
            f"mean ticks-to-recover={mean_recover:.1f}"
        )
        lines.append(
            f"   degraded coverage: ticks dark={sup['ticks_dark']}  "
            f"pairs uncovered={sup['pairs_uncovered']}  "
            f"episodes delayed={sup['episodes_delayed']}  "
            f"buffered={sup['events_buffered']}"
        )
        if result.supervision["dead_letters"]:
            lines.append(
                f"   dead letters: entries={result.supervision['dead_letters']}"
            )
    return "\n".join(lines)


def render_figure(result: "FigureResult", chart: bool = True) -> str:
    """Render one figure's series, summaries and notes as text."""
    lines: List[str] = []
    lines.append(f"=== {result.figure_id}: {result.title} ===")
    if chart and result.series:
        lines.append("")
        lines.append(render_ascii_chart(result.series))
    for series in result.series:
        lines.append("")
        lines.append(f"-- {series.name}")
        lines.append(f"   {series.x_label:>14s}  {series.y_label:>12s}")
        for x, y in series.points:
            lines.append(f"   {x:14.4f}  {y:12.4f}")
    if result.summaries:
        lines.append("")
        lines.append("-- summaries")
        for name, summary in result.summaries.items():
            parts = ", ".join(
                f"{key}={value:.3f}" for key, value in summary.items() if key != "n"
            )
            lines.append(f"   {name} (n={int(summary.get('n', 0))}): {parts}")
    if result.notes:
        lines.append("")
        lines.append("-- expected shape (from the paper)")
        for note in result.notes:
            lines.append(f"   * {note}")
    if result.runner_stats is not None:
        lines.append("")
        lines.append(render_runner_stats(result.runner_stats))
    return "\n".join(lines)
