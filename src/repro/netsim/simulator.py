"""Simulator facade: one object tying topology, routing and measurement.

The experiments follow the paper's loop — converge, traceroute the sensor
mesh, inject an event, re-converge, traceroute again, hand everything to
the diagnosis algorithms.  :class:`Simulator` packages the substrate pieces
(IGP cache, BGP engine, traceroute, control-plane observation) behind the
small API that loop needs, with caching keyed on the immutable
:class:`~repro.netsim.topology.NetworkState`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.netsim.bgp.engine import (
    DEFAULT_ROUTING_CACHE_CAPACITY,
    BgpEngine,
)
from repro.netsim.bgp.messages import BgpWithdrawal, withdrawals_observed_by
from repro.netsim.bgp.rib import RoutingState
from repro.netsim.cache import LruCache
from repro.netsim.events import Event
from repro.netsim.forwarding import IgpCache
from repro.netsim.igp import igp_link_down_events
from repro.netsim.topology import Internetwork, Link, NetworkState
from repro.netsim.traceroute import TraceResult, trace_route
from repro.netsim.validate import validate_gao_rexford
from repro.errors import TopologyError

__all__ = ["Simulator", "DEFAULT_TRACE_CACHE_CAPACITY"]

#: Cached traceroutes kept per simulator.  A batch touches
#: ``O(pairs × states)`` distinct keys; this default holds the working set
#: of the standard figure batches while bounding week-long sweeps.
DEFAULT_TRACE_CACHE_CAPACITY = 65536


class Simulator:
    """Converged-state network simulator for one topology.

    Parameters
    ----------
    net:
        The internetwork.
    destination_asns:
        ASes whose prefixes routing must be converged for — the sensor ASes
        (and AS-X).  Restricting convergence to the prefixes measurements
        actually target keeps convergence cheap without changing any
        observable (see :class:`~repro.netsim.bgp.engine.BgpEngine`).
    trace_cache_capacity:
        Traceroutes kept in the LRU cache (``0`` = unbounded).
    routing_cache_capacity:
        Converged routing states kept by the BGP engine (``0`` =
        unbounded; the baseline state is pinned regardless).
    incremental:
        Enables the engine's incremental re-convergence; overridden by
        ``REPRO_FULL_CONVERGE=1``.
    validate:
        Run :func:`~repro.netsim.validate.validate_gao_rexford` on the
        topology up front and raise a
        :class:`~repro.errors.TopologyError` listing every offending
        AS/link.  Without it a provider cycle still fails fast, with the
        engine's :class:`~repro.errors.ConvergenceError`; disable only for
        deliberately unsafe test fixtures.
    """

    def __init__(
        self,
        net: Internetwork,
        destination_asns: Iterable[int],
        trace_cache_capacity: int = DEFAULT_TRACE_CACHE_CAPACITY,
        routing_cache_capacity: int = DEFAULT_ROUTING_CACHE_CAPACITY,
        incremental: bool = True,
        validate: bool = True,
    ) -> None:
        if validate:
            issues = validate_gao_rexford(net)
            if issues:
                details = "; ".join(
                    f"[{issue.kind}] {issue.detail}" for issue in issues
                )
                raise TopologyError(
                    f"topology failed validation with {len(issues)} "
                    f"issue(s): {details}"
                )
        self.net = net
        self._dest_asns = tuple(sorted(set(destination_asns)))
        self.engine = BgpEngine.for_sensor_ases(
            net,
            list(self._dest_asns),
            cache_capacity=routing_cache_capacity,
            incremental=incremental,
        )
        self.igp_cache = IgpCache(net)
        self._trace_cache: LruCache[tuple, TraceResult] = LruCache(
            trace_cache_capacity
        )
        self._mapper = net.ip_to_as_mapper()

    @property
    def mapper(self):
        """Shared IP-to-AS mapper (prefix allocations are fixed at build
        time, so one mapper serves every snapshot of this topology)."""
        return self._mapper

    # ------------------------------------------------------------- routing

    @property
    def destination_asns(self) -> tuple:
        """ASes whose prefixes this simulator converges."""
        return self._dest_asns

    def routing(self, state: NetworkState) -> RoutingState:
        """Converged routing under ``state`` (cached by the engine)."""
        return self.engine.converge(state)

    def apply(self, event: Event, base: Optional[NetworkState] = None) -> NetworkState:
        """Apply ``event`` on top of ``base`` (default: the nominal state)."""
        return event.apply_to(base or NetworkState.nominal())

    # --------------------------------------------------------- measurement

    def trace(
        self,
        state: NetworkState,
        src_router: int,
        dst_router: int,
        blocked_ases: FrozenSet[int] = frozenset(),
    ) -> TraceResult:
        """Traceroute between two routers under ``state`` (cached)."""
        key = (state, src_router, dst_router, blocked_ases)
        cached = self._trace_cache.get(key)
        if cached is None:
            cached = trace_route(
                self.net,
                self.routing(state),
                state,
                src_router,
                dst_router,
                blocked_ases=blocked_ases,
                igp_cache=self.igp_cache,
            )
            self._trace_cache.put(key, cached)
        return cached

    # ---------------------------------------------------------- accounting

    def cache_stats(self) -> Dict[str, int]:
        """Flat counter snapshot of both caches and the convergence work.

        Keys are prefixed ``trace_cache_*`` / ``routing_cache_*`` plus the
        engine's :class:`~repro.netsim.bgp.engine.ConvergenceCounters`
        fields — the exact numbers
        :class:`~repro.experiments.runner.PlacementStats` records.
        """
        stats = {
            f"trace_cache_{key}": value
            for key, value in self._trace_cache.counters().items()
        }
        stats.update(
            {
                f"routing_cache_{key}": value
                for key, value in self.engine._cache.counters().items()
            }
        )
        counters = self.engine.counters
        stats.update(
            full_converges=counters.full_converges,
            incremental_converges=counters.incremental_converges,
            prefixes_converged=counters.prefixes_converged,
            prefixes_reused=counters.prefixes_reused,
        )
        sharing = self.engine.rib_sharing
        stats.update(
            rib_prefixes_owned=sharing.prefixes_owned,
            rib_prefixes_shared=sharing.prefixes_shared,
            rib_cow_copies=sharing.cow_copies,
        )
        return stats

    # ------------------------------------------------------- control plane

    def igp_link_down(self, asx: int, state: NetworkState) -> List[Link]:
        """IGP "link down" messages AS-X observes under ``state`` (§3.3)."""
        return igp_link_down_events(self.net, asx, state)

    def withdrawals(
        self, asx: int, before: NetworkState, after: NetworkState
    ) -> List[BgpWithdrawal]:
        """BGP withdrawals AS-X logged between the two states (§3.3)."""
        return withdrawals_observed_by(
            self.net, asx, self.routing(before), self.routing(after), after
        )
