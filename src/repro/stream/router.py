"""Sharding and multi-tenant admission for the streaming engine.

The ROADMAP's north star is a troubleshooter absorbing traffic from
millions of sensor pairs; one sliding window serialises all of that.
This module holds the standard scale-out pieces the
:class:`~repro.stream.engine.StreamEngine` is built from:

* :class:`ShardRouter` — consistent hashing over destination origin AS
  (falling back to the destination /24 prefix when the AS is unknown),
  so every probe and reachability bit for one pair lands on the same
  shard, and re-sharding moves only ``~1/N`` of the key space.  With a
  single shard routing is a constant: no key, no hash;
* :class:`StreamShard` — one shard's ingest-side state: screening,
  sliding window, pair-alarm debounce.  All cleanly per-pair, which is
  why sharding them loses nothing;
* :class:`AdmissionController` — deterministic per-tenant token buckets
  refilled on logical ticks.  Overload sheds *accountably*: every
  dropped event lands in a per-tenant counter, never on the floor.

The engine routes pair events to shards, broadcasts control-plane and
sensor-liveness events to all of them, merges alarms through one global
:class:`~repro.stream.merge.CrossShardMerger`, and funnels episode
transitions into a single bounded diagnosis queue whose snapshots are
assembled by :func:`~repro.stream.merge.merged_snapshot`; its module
docstring states the determinism contract across shard counts.
"""

from __future__ import annotations

import hashlib
import time
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.pathset import EPOCH_POST, EPOCH_PRE
from repro.errors import StreamError
from repro.stream.episodes import PairAlarmTracker
from repro.stream.events import (
    ProbeEvent,
    ReachabilityEvent,
    SensorDropoutEvent,
    StreamEvent,
)
from repro.stream.ingest import StreamIngestor
from repro.stream.window import SlidingWindow

__all__ = [
    "stable_hash",
    "ShardRouter",
    "TenantConfig",
    "AdmissionController",
    "source_tenant_of",
    "StreamShard",
]

Pair = Tuple[str, str]


def stable_hash(key: str) -> int:
    """A process-independent 64-bit hash of ``key``.

    Python's builtin ``hash`` is salted per process (PYTHONHASHSEED),
    which would scatter the same event log across different shards on
    every run — the opposite of a determinism guarantee.  blake2b is
    stable everywhere and cheap at digest_size=8.
    """
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _destination(event: StreamEvent) -> Optional[str]:
    """The destination address of a pair-scoped event; ``None`` for the
    rest (control-plane messages, sensor heartbeats/dropouts)."""
    if isinstance(event, ProbeEvent):
        return event.path.dst
    if isinstance(event, ReachabilityEvent):
        return event.dst
    return None


#: Virtual nodes per shard on the consistent-hash ring.
_RING_REPLICAS = 32


class ShardRouter:
    """Consistent-hash routing of pair-scoped events to shards.

    The ring holds ``_RING_REPLICAS`` virtual nodes per shard; a key
    maps to the first virtual node clockwise from its hash.  Changing the
    shard count therefore remaps only the keys between affected virtual
    nodes (~``1/N`` of the space), not everything — the property that
    makes re-sharding a live deployment survivable.

    Events without a destination key (control-plane messages, sensor
    heartbeats/dropouts) route to ``None``: **broadcast**, every shard
    needs them.
    """

    def __init__(
        self,
        n_shards: int,
        asn_of: Optional[Callable[[str], Optional[int]]] = None,
    ) -> None:
        if n_shards < 1:
            raise StreamError(f"need >= 1 shard, got {n_shards}")
        self.n_shards = n_shards
        self.asn_of = asn_of
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for replica in range(_RING_REPLICAS):
                points.append((stable_hash(f"shard-{shard}/vn-{replica}"), shard))
        points.sort()
        self._ring_points = [point for point, _shard in points]
        self._ring_shards = [shard for _point, shard in points]
        # The key space is small (origin ASes / /24 prefixes) and so is
        # the set of destination sensors, while the event volume is huge;
        # memoise ring lookups per key and the owning shard per address.
        self._key_cache: Dict[str, int] = {}
        self._dst_cache: Dict[str, int] = {}

    def key_of(self, event: StreamEvent) -> Optional[str]:
        """The routing key for an event; ``None`` means broadcast.

        Keyed by the *destination* origin AS when the mapper knows it
        (all pairs probing into one AS co-locate — exactly the pairs a
        destination-side failure alarms together), else by the
        destination /24 prefix.
        """
        dst = _destination(event)
        return None if dst is None else self.key_for_destination(dst)

    def key_for_destination(self, dst: str) -> str:
        """The routing key of a destination address (origin AS or /24)."""
        asn = self.asn_of(dst) if self.asn_of is not None else None
        if asn is not None:
            return f"as{asn}"
        return f"pfx{dst.rsplit('.', 1)[0]}"

    def shard_for_destination(self, dst: str) -> int:
        """The shard owning a destination address's pairs."""
        shard = self._dst_cache.get(dst)
        if shard is None:
            shard = self.shard_for_key(self.key_for_destination(dst))
            self._dst_cache[dst] = shard
        return shard

    def shard_for_key(self, key: str) -> int:
        """The shard owning ``key`` on the ring (wraps clockwise)."""
        shard = self._key_cache.get(key)
        if shard is None:
            index = bisect_right(self._ring_points, stable_hash(key))
            if index == len(self._ring_points):
                index = 0
            shard = self._ring_shards[index]
            self._key_cache[key] = shard
        return shard

    def route(self, event: StreamEvent) -> Optional[int]:
        """Shard index for a pair-scoped event, ``None`` for broadcast."""
        dst = _destination(event)
        if dst is None:
            return None
        if self.n_shards == 1:
            return 0
        return self.shard_for_destination(dst)


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's admission contract.

    ``rate`` is events admitted per logical tick (``None`` = unlimited);
    ``burst`` the bucket depth (defaults to ``rate``).
    """

    name: str
    rate: Optional[int] = None
    burst: Optional[int] = None

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate < 1:
            raise StreamError(
                f"tenant {self.name!r} rate must be >= 1 or None, "
                f"got {self.rate}"
            )
        if self.burst is not None and self.burst < 1:
            raise StreamError(
                f"tenant {self.name!r} burst must be >= 1 or None, "
                f"got {self.burst}"
            )

    @property
    def bucket_size(self) -> Optional[int]:
        if self.rate is None:
            return None
        return self.burst if self.burst is not None else self.rate


class AdmissionController:
    """Deterministic per-tenant token buckets on the logical clock.

    Buckets start full and refill by ``rate`` tokens at each new tick —
    logical time, never the wall, so an overloaded replay sheds the
    *same* events every run.  An event from a tenant nobody registered
    is rejected (and counted): in a multi-tenant service, "unknown
    sender" is a policy violation, not a free ride.

    With no tenants registered the controller is disabled and admits
    everything — single-tenant deployments pay nothing.
    """

    def __init__(self, tenants: Sequence[TenantConfig] = ()) -> None:
        self.tenants: Dict[str, TenantConfig] = {}
        for tenant in tenants:
            if tenant.name in self.tenants:
                raise StreamError(f"duplicate tenant {tenant.name!r}")
            self.tenants[tenant.name] = tenant
        self._tokens: Dict[str, int] = {
            name: tenant.bucket_size
            for name, tenant in self.tenants.items()
            if tenant.bucket_size is not None
        }
        self._tick: Optional[int] = None
        self.admitted = 0
        self.shed = 0
        self.rejected_unknown = 0
        self.shed_by_tenant: Dict[str, int] = {
            name: 0 for name in self.tenants
        }

    @property
    def enabled(self) -> bool:
        return bool(self.tenants)

    def on_tick(self, tick: int) -> None:
        """Refill every bucket for a newly observed logical tick."""
        if self._tick is not None and tick <= self._tick:
            return
        elapsed = 1 if self._tick is None else tick - self._tick
        self._tick = tick
        for name, tokens in self._tokens.items():
            tenant = self.tenants[name]
            assert tenant.rate is not None and tenant.bucket_size is not None
            self._tokens[name] = min(
                tenant.bucket_size, tokens + tenant.rate * elapsed
            )

    def admit(self, tenant_name: Optional[str]) -> bool:
        """Spend one token for ``tenant_name``; False means shed."""
        if not self.enabled:
            self.admitted += 1
            return True
        if tenant_name is None or tenant_name not in self.tenants:
            self.rejected_unknown += 1
            return False
        if tenant_name not in self._tokens:  # unlimited tenant
            self.admitted += 1
            return True
        if self._tokens[tenant_name] >= 1:
            self._tokens[tenant_name] -= 1
            self.admitted += 1
            return True
        self.shed += 1
        self.shed_by_tenant[tenant_name] += 1
        return False

    def counters(self) -> Dict[str, int]:
        return {
            "admission_admitted": self.admitted,
            "admission_shed": self.shed,
            "admission_rejected_unknown": self.rejected_unknown,
        }


def source_tenant_of(
    tenants: Sequence[TenantConfig],
) -> Callable[[StreamEvent], Optional[str]]:
    """Assign pair-scoped events to tenants by stable hash of source.

    The CLI's stand-in for a real credential system: each sensor (by
    source address) consistently belongs to one tenant, so per-tenant
    rates mean something across a whole replay.  Broadcast events map
    to ``None`` (admission-exempt — the ISP's own control feed is not a
    tenant).  The assignment is memoised per source address.
    """
    names = [tenant.name for tenant in tenants]
    if not names:
        raise StreamError("source_tenant_of needs >= 1 tenant")
    by_source: Dict[str, str] = {}

    def tenant_of(event: StreamEvent) -> Optional[str]:
        if isinstance(event, ProbeEvent):
            src = event.path.src
        elif isinstance(event, ReachabilityEvent):
            src = event.src
        else:
            return None
        name = by_source.get(src)
        if name is None:
            name = by_source[src] = names[stable_hash(src) % len(names)]
        return name

    return tenant_of


class StreamShard:
    """One shard's ingest-side state: screening, window, alarm debounce.

    Everything here is per-pair, so partitioning it is lossless.  The
    shard never diagnoses and never runs the episode lifecycle — those
    need the global picture and live behind the merger.
    """

    def __init__(
        self,
        index: int,
        asn_of: Callable[[str], Optional[int]],
        policy: str = "quarantine",
        window_width: int = 4,
        open_after: int = 2,
        close_after: int = 2,
    ) -> None:
        self.index = index
        self.ingestor = StreamIngestor(
            asn_of, policy, expected_epochs=(EPOCH_PRE, EPOCH_POST)
        )
        self.window = SlidingWindow(window_width)
        self.alarms = PairAlarmTracker(
            open_after=open_after, close_after=close_after
        )
        self.events_offered = 0
        self.events_admitted = 0
        self.seconds = {"ingest": 0.0, "window": 0.0, "detect": 0.0}

    def offer(self, event: StreamEvent) -> bool:
        """Screen and fold one pair-scoped event routed to this shard."""
        self.events_offered += 1
        started = time.perf_counter()
        admitted = self.ingestor.ingest(event)
        self.seconds["ingest"] += time.perf_counter() - started
        if admitted is None:
            return False
        self._observe(admitted)
        return True

    def observe_broadcast(self, event: StreamEvent) -> None:
        """Fold one already-screened broadcast event.

        Broadcasts are screened exactly once, at the engine's control
        ingestor — re-screening here would double-count the validation
        report and fork the feed-dedup state.
        """
        self.events_offered += 1
        self._observe(event)

    def _observe(self, event: StreamEvent) -> None:
        self.events_admitted += 1
        started = time.perf_counter()
        self.window.observe(event)
        self.seconds["window"] += time.perf_counter() - started
        started = time.perf_counter()
        if isinstance(event, ProbeEvent):
            if event.path.epoch == EPOCH_POST:
                self.alarms.observe(event.path.pair, event.path.reached)
        elif isinstance(event, ReachabilityEvent):
            self.alarms.observe((event.src, event.dst), event.reached)
        elif isinstance(event, SensorDropoutEvent):
            self.alarms.forget(event.address)
        self.seconds["detect"] += time.perf_counter() - started

    def stats(self) -> Dict[str, int]:
        """Per-shard accounting for the stream report."""
        counts = {
            "shard": self.index,
            "events_offered": self.events_offered,
            "events_admitted": self.events_admitted,
            "pairs_tracked": self.alarms.pairs_tracked(),
            "pairs_alarmed": len(self.alarms.alarmed_pairs()),
        }
        counts.update(
            {
                key: value
                for key, value in self.window.counters().items()
                if key in ("baseline_pairs", "current_pairs")
            }
        )
        return counts
