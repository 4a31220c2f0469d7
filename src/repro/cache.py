"""The bounded LRU cache shared by the simulator and the solvers.

Long experiment batches used to grow the per-state routing cache
(:class:`~repro.netsim.bgp.engine.BgpEngine`) and the per-trace cache
(:class:`~repro.netsim.simulator.Simulator`) without bound: every sampled
failure scenario is a distinct :class:`~repro.netsim.topology.NetworkState`
and therefore a fresh set of keys.  :class:`LruCache` caps those maps at a
configurable capacity, evicting the least-recently-used entry, and counts
hits/misses/evictions so the runner's accounting
(:class:`~repro.experiments.runner.RunnerStats`) can report cache
effectiveness instead of just cache size.  The algorithm layer's memos
(:mod:`repro.core.bitsets`, :mod:`repro.core.hitting_set`) use the same
class, which is why it lives outside both layers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Hashable, Optional, TypeVar

from repro.errors import ReproError

__all__ = ["LruCache"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LruCache(Generic[K, V]):
    """A dict with LRU eviction and hit/miss/eviction counters.

    ``capacity`` is the maximum number of entries kept; inserting beyond it
    evicts the least recently *used* entry (both :meth:`get` hits and
    :meth:`put` refresh recency).  A capacity of ``0`` disables bounding —
    the cache then behaves like the historical plain dict, counters
    included.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ReproError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: K) -> Optional[V]:
        """The cached value, refreshed as most-recently-used; ``None`` on miss."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry if full."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        if self.capacity and len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: object) -> bool:
        """Membership test without touching recency or counters."""
        return key in self._data

    def counters(self) -> Dict[str, int]:
        """Snapshot of the accounting counters plus the current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._data),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"LruCache(capacity={self.capacity}, entries={len(self._data)}, "
            f"hits={self.hits}, misses={self.misses}, evictions={self.evictions})"
        )
