"""Simulator facade: one object tying topology, routing and measurement.

The experiments follow the paper's loop — converge, traceroute the sensor
mesh, inject an event, re-converge, traceroute again, hand everything to
the diagnosis algorithms.  :class:`Simulator` packages the substrate pieces
(IGP cache, BGP engine, traceroute, control-plane observation) behind the
small API that loop needs.  Routing and traceroutes are cached per
immutable :class:`~repro.netsim.topology.NetworkState`; IGP views per AS
and that AS's own IGP condition.  A traceroute the failure state did not
touch is the baseline's: an event changes only the traces that cross it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

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


class _BaselineWalk:
    """One baseline traceroute plus, once a failure state asks, what its
    walk read (a session's set-up traces the baseline only).

    ``reads`` holds the destination prefix; the ASes whose IGP the walk
    read (its AS sequence, or the source AS when a dead source left the
    walk empty); and the ASes of that sequence but the destination, whose
    baseline route towards the prefix it read.  The walk is a function of
    these reads, so any state that leaves them unchanged walks the same.
    A failed crossed link needs no check of its own: the engine never
    selects a down session, so the route over it changes.  Plain tuples
    of ints and strings: the collector stops tracking them.
    """

    __slots__ = ("trace", "reads")

    def __init__(self, trace: TraceResult) -> None:
        self.trace = trace
        self.reads: Optional[Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = None


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
        Traceroutes kept in the LRU cache (``0`` = unbounded); it also
        bounds the baseline walks kept for reuse.
    routing_cache_capacity:
        Converged routing states kept by the BGP engine (``0`` =
        unbounded; the baseline state is pinned regardless).
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
        )
        self.igp_cache = IgpCache(net)
        self._trace_cache: LruCache[tuple, TraceResult] = LruCache(
            trace_cache_capacity
        )
        self._baseline_walks: LruCache[tuple, _BaselineWalk] = LruCache(
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
        """Traceroute between two routers under ``state`` (cached).

        A cache miss converges ``state`` and, when everything the baseline
        walk of this pair read is unchanged under it, returns the baseline
        :class:`TraceResult` object itself instead of walking again.
        """
        blocked = tuple(sorted(blocked_ases))
        key = (state.key, src_router, dst_router, blocked)
        cached = self._trace_cache.get(key)
        if cached is None:
            routing = self.routing(state)
            walk = self._baseline_walk(src_router, dst_router, blocked)
            if routing is self.engine.baseline[1] or self._unchanged(
                walk, state, routing
            ):
                cached = walk.trace
            else:
                cached = trace_route(
                    self.net,
                    routing,
                    state,
                    src_router,
                    dst_router,
                    blocked_ases=blocked_ases,
                    igp_cache=self.igp_cache,
                )
            self._trace_cache.put(key, cached)
        return cached

    def _baseline_walk(
        self, src_router: int, dst_router: int, blocked: Tuple[int, ...]
    ) -> _BaselineWalk:
        """The pair's walk under the engine's pinned baseline (kept in an
        uncounted table: the LRU accounting sees only :meth:`trace`)."""
        key = (src_router, dst_router, blocked)
        walk = self._baseline_walks.get(key)
        if walk is None:
            base_state, base_routing = self.engine.baseline
            walk = _BaselineWalk(
                trace_route(
                    self.net,
                    base_routing,
                    base_state,
                    src_router,
                    dst_router,
                    blocked_ases=frozenset(blocked),
                    igp_cache=self.igp_cache,
                )
            )
            self._baseline_walks.put(key, walk)
        return walk

    def _unchanged(
        self, walk: _BaselineWalk, state: NetworkState, routing: RoutingState
    ) -> bool:
        """True when everything the baseline walk read is unchanged under
        ``state`` (converged to ``routing``)."""
        if walk.reads is None:
            walk.reads = self._reads_of(walk.trace)
        prefix, igp_ases, route_ases = walk.reads
        base_state, base_routing = self.engine.baseline
        if not self.igp_cache.changed_ases(state, base_state).isdisjoint(igp_ases):
            return False
        rib, base_rib = routing.rib(prefix), base_routing.rib(prefix)
        if rib is base_rib:
            return True  # the incremental engine shares an untouched RIB
        for asn in route_ases:
            now, route = rib.get(asn), base_rib.get(asn)
            if now is not route and now != route:
                return False
        return True

    def _reads_of(self, trace: TraceResult) -> tuple:
        """What the baseline walk behind ``trace`` read (see
        :class:`_BaselineWalk`)."""
        net = self.net
        dst_asn = net.asn_of_router(trace.dst_router)
        ases = tuple(dict.fromkeys(map(net.asn_of_router, trace.router_path())))
        return (
            net.autonomous_system(dst_asn).prefix,
            # A dead source ends the walk before it reads any route.
            ases or (net.asn_of_router(trace.src_router),),
            tuple(asn for asn in ases if asn != dst_asn),
        )

    # ---------------------------------------------------------- accounting

    def cache_stats(self) -> Dict[str, int]:
        """Flat counter snapshot of both caches and the convergence work.

        Keys are prefixed ``trace_cache_*`` / ``routing_cache_*`` plus the
        engine's :class:`~repro.netsim.bgp.engine.ConvergenceCounters`
        fields — the exact numbers
        :class:`~repro.experiments.runner.PlacementStats` records.  The
        ``rib_*`` keys split the per-prefix RIBs by origin: built by a full
        converge (owned), aliased from the baseline (shared), or re-solved
        by an incremental converge (copy-on-write copies).
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
        owned = counters.full_converges * len(self.engine.prefixes)
        stats.update(
            full_converges=counters.full_converges,
            incremental_converges=counters.incremental_converges,
            prefixes_converged=counters.prefixes_converged,
            prefixes_reused=counters.prefixes_reused,
            rib_prefixes_owned=owned,
            rib_prefixes_shared=counters.prefixes_reused,
            rib_cow_copies=counters.prefixes_converged - owned,
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
