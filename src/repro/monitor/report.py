"""Rendering one monitoring run: timeline, intervals, quality, verdicts.

Two kinds of lines, exactly as in the stream CLI: ``  report ...``
lines are deterministic (pure functions of ``(seed, config)`` — the CI
smoke lane diffs them byte for byte across process layouts) and the
``-- monitor`` accounting block is the wall-clock appendix that never
takes part in identity checks.
"""

from __future__ import annotations

from typing import List

from repro.monitor.runner import MonitorRunResult

__all__ = ["render_monitor_timeline", "render_monitor_report"]

#: Health glyphs for the timeline strip, best to worst.
_GLYPHS = " .:-=+*#%@"


def _health_glyph(health: float) -> str:
    """One character per bucket: ``' '`` = perfect, ``'@'`` = all down."""
    badness = min(1.0, max(0.0, 1.0 - health))
    return _GLYPHS[min(len(_GLYPHS) - 1, int(badness * len(_GLYPHS)))]


def render_monitor_timeline(result: MonitorRunResult, buckets: int = 60) -> str:
    """The at-a-glance downtime strip (deterministic)."""
    strip = "".join(
        _health_glyph(health)
        for health in result.recorder.timeline(result.config.ticks, buckets)
    )
    return f"  report timeline [{strip}]"


def render_monitor_report(result: MonitorRunResult) -> str:
    """The full monitor output: deterministic report lines + accounting."""
    config = result.config
    recorder = result.recorder.counters()
    schedule = result.schedule.counters()
    detection = result.detection
    classifier = result.classifier

    lines: List[str] = [
        f"  report scenario {config.name} seed={result.seed} "
        f"ticks={config.ticks} pairs={result.pairs_monitored}",
        render_monitor_timeline(result),
        f"  report schedule outages={schedule['outages_total']} "
        + " ".join(
            f"{key.replace('outages_', '')}={value}"
            for key, value in sorted(schedule.items())
            if key.startswith("outages_") and key != "outages_total"
        ).strip(),
        f"  report intervals total={recorder['intervals_total']} "
        f"open={recorder['intervals_open']} "
        f"censored={recorder['intervals_censored']} "
        f"flaps={recorder['flaps']}",
        f"  report detection outages={detection.outages_total} "
        f"detected={detection.outages_detected} "
        f"latency_mean={detection.latency_mean:.1f} "
        f"latency_p99={detection.latency_p99} "
        f"false_alarm_rate={detection.false_alarm_rate:.3f}",
        f"  report classifier scored={classifier.scored} "
        f"blocked_precision={classifier.precision_blocked:.3f} "
        f"blocked_recall={classifier.recall_blocked:.3f} "
        f"failed_precision={classifier.precision_failed:.3f} "
        f"failed_recall={classifier.recall_failed:.3f}",
    ]
    for row in result.quality[:10]:
        lines.append(
            f"  report quality as{row.src_asn}->as{row.dst_asn} "
            f"availability={row.availability:.4f} "
            f"intervals={row.intervals} bad_ticks={row.bad_ticks} "
            f"worst={row.worst_interval} flaps={row.flaps}"
        )

    engine = result.engine_counters
    detector = result.detector_counters
    lines += [
        "-- monitor",
        f"   events={result.events_total}  "
        f"thinned={result.observations_skipped}  "
        f"reports={engine['reports_emitted']}  "
        f"reused={engine['reports_reused']}  "
        f"wall={result.wall_seconds:.2f}s  "
        f"({result.events_per_second:.0f} events/s)",
        f"   episodes: detected={detector['episodes_total']}  "
        f"open at end={detector['episodes_open']}  "
        f"transitions={detector['transitions']}  "
        f"flaps={detector.get('flaps', 0)}  "
        f"pairs alarmed={detector['pairs_alarmed']}",
        f"   recorder: pairs={recorder['pairs_tracked']}  "
        f"baselines kept={recorder['baselines_kept']}  "
        f"lg queries={result.lg_queries}  "
        f"pairs skipped={result.pairs_skipped}",
    ]
    if result.shard_stats:
        lines.append(
            f"   shards: n={engine.get('shards', len(result.shard_stats))}  "
            f"broadcast events={engine.get('events_broadcast', 0)}  "
            f"cross-shard episodes={engine.get('cross_shard_episodes', 0)}"
        )
    if result.supervision is not None:
        sup = result.supervision["counters"]
        lines.append(
            f"   supervision: crashes={sup['shard_crashes']}  "
            f"stalls={sup['shard_stalls']}  "
            f"recoveries={sup['recoveries']}"
        )
    return "\n".join(lines)
