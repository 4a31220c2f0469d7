"""Streaming diagnosis: online event ingestion, episodes, continuous runs.

The paper's troubleshooter runs *continuously* at AS-X — probe results,
BGP withdrawals and IGP link-down messages arrive as a stream (§3.3).
This package is that online layer over the existing batch machinery:

* :mod:`repro.stream.events` — typed events, the logical clock, and the
  append-only JSON-lines format of the ``repro-event-log-v1`` event log
  and the ``repro-dlq-v1`` dead-letter queue;
* :mod:`repro.stream.ingest` — per-event screening under the
  :mod:`repro.validate` policies (strict/repair/quarantine);
* :mod:`repro.stream.window` — sliding-window reconciliation into the
  batch :class:`~repro.core.pathset.MeasurementSnapshot` shape, bounded
  by recency;
* :mod:`repro.stream.episodes` — debounced, hysteretic failure-episode
  detection (no diagnosis storms on transient loss);
* :mod:`repro.stream.engine` — :class:`StreamEngine`, the one engine
  (``shards=1`` is the serial one): bounded work queue, explicit
  backpressure, per-episode diagnosis, output bit-identical across shard
  counts;
* :mod:`repro.stream.replay` — deterministic replay of recorded rounds
  and fault plans (same log + seed ⇒ identical episode reports);
* :mod:`repro.stream.router` — consistent-hash shard routing, the
  per-shard ingest state and per-tenant admission control;
* :mod:`repro.stream.merge` — cross-shard snapshot/control/episode
  merging in global ``(tick, seq)`` order;
* :mod:`repro.stream.supervise` — the self-healing layer a supervised
  engine calls: darkness buffers folded back into a crashed or stalled
  shard's kept state at restart, a dead-letter queue for their
  overflow, seeded chaos injection.

CLI: ``python -m repro stream`` replays a configured stream (optionally
sharded via ``--shards`` / multi-tenant via ``--tenants`` / under
seeded chaos via ``--chaos``) and renders throughput, backpressure,
episode-latency and supervision statistics; ``--dlq PATH`` journals and
inspects dead letters.
"""

from repro.stream.engine import (
    EpisodeDiagnosis,
    EpisodeReport,
    StreamEngine,
)
from repro.stream.episodes import (
    CLOSE,
    OPEN,
    UPDATE,
    Episode,
    EpisodeLifecycle,
    EpisodeTransition,
    PairAlarmTracker,
)
from repro.stream.events import (
    EVENT_LOG_FORMAT,
    EventLogWriter,
    IgpLinkDownEvent,
    LogicalClock,
    ProbeEvent,
    ReachabilityEvent,
    SensorDropoutEvent,
    SensorHeartbeatEvent,
    StreamEvent,
    WithdrawalEvent,
    load_event_log,
    save_event_log,
    stream_event_from_dict,
    stream_event_to_dict,
)
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
    source_tenant_of,
    stable_hash,
)
from repro.stream.supervise import (
    DLQ_FORMAT,
    DeadLetterQueue,
    ShardSupervisor,
    SupervisionConfig,
    load_dead_letters,
)
from repro.stream.replay import (
    ReplayConfig,
    ReplayEpisodeInfo,
    ReplayLog,
    ReplaySetup,
    StreamRunResult,
    build_event_log,
    make_replay_setup,
    run_replay,
    run_stream_replay,
)
from repro.stream.window import SlidingWindow

__all__ = [
    "EVENT_LOG_FORMAT",
    "LogicalClock",
    "StreamEvent",
    "ProbeEvent",
    "ReachabilityEvent",
    "WithdrawalEvent",
    "IgpLinkDownEvent",
    "SensorHeartbeatEvent",
    "SensorDropoutEvent",
    "EventLogWriter",
    "save_event_log",
    "load_event_log",
    "stream_event_to_dict",
    "stream_event_from_dict",
    "StreamIngestor",
    "SlidingWindow",
    "OPEN",
    "UPDATE",
    "CLOSE",
    "Episode",
    "EpisodeTransition",
    "PairAlarmTracker",
    "EpisodeLifecycle",
    "stable_hash",
    "ShardRouter",
    "TenantConfig",
    "AdmissionController",
    "source_tenant_of",
    "StreamShard",
    "CrossShardMerger",
    "merged_snapshot",
    "merged_control_view",
    "DLQ_FORMAT",
    "DeadLetterQueue",
    "ShardSupervisor",
    "SupervisionConfig",
    "load_dead_letters",
    "EpisodeDiagnosis",
    "EpisodeReport",
    "StreamEngine",
    "ReplayConfig",
    "ReplaySetup",
    "ReplayEpisodeInfo",
    "ReplayLog",
    "StreamRunResult",
    "make_replay_setup",
    "build_event_log",
    "run_replay",
    "run_stream_replay",
]
