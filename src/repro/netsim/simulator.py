"""Simulator facade: one object tying topology, routing and measurement.

The experiments follow the paper's loop — converge, traceroute the sensor
mesh, inject an event, re-converge, traceroute again, hand everything to
the diagnosis algorithms.  :class:`Simulator` packages the substrate pieces
(IGP cache, BGP engine, traceroute, control-plane observation) behind the
small API that loop needs.  Routing and traceroutes are cached per
immutable :class:`~repro.netsim.topology.NetworkState`; IGP views per AS
and that AS's own IGP condition.  A traceroute the failure state did not
touch is the baseline's: an event changes only the traces that cross it.
Each failure state names the baseline walks it touches once, off two
indexes that invert what every walk read (the path-link incidence h(l)
of Boolean tomography, over the session's own walks).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.cache import LruCache
from repro.netsim.bgp.engine import (
    DEFAULT_ROUTING_CACHE_CAPACITY,
    BgpEngine,
)
from repro.netsim.bgp.messages import BgpWithdrawal, withdrawals_observed_by
from repro.netsim.bgp.rib import RoutingState
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
        Traceroutes of touched walks kept in the LRU cache (``0`` =
        unbounded).  It also bounds the touched sets memoised per state,
        so a state redrawn after its routing was evicted is not
        re-converged just to name its touched walks.  The baseline walks,
        one per pair and blocked-AS set ever traced, are kept for the
        simulator's life, so a touched set stays exact for every walk it
        was computed over.
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
        #: (src, dst, sorted blocked ASes) -> the pair's walk under the
        #: engine's pinned baseline, uncounted: the LRU sees touched walks.
        self._walks: Dict[tuple, TraceResult] = {}
        # What the walks read, inverted when the first failure state asks:
        # AS -> walks that read its IGP; prefix -> AS -> walks that read
        # that AS's route towards the prefix.
        self._igp_index: Optional[Dict[int, Set[tuple]]] = None
        self._route_index: Dict[str, Dict[int, Set[tuple]]] = {}
        # state.key -> the walks it touches (oldest dropped first), and the
        # last state asked, by identity: a mesh asks once per pair.
        self._touched: Dict[tuple, FrozenSet[tuple]] = {}
        self._touched_capacity = trace_cache_capacity
        self._last_state: Optional[NetworkState] = None
        self._last_touched: FrozenSet[tuple] = frozenset()
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
        """Traceroute between two routers under ``state``.

        A walk ``state`` does not touch (:meth:`touched_walks`) returns the
        pair's baseline :class:`TraceResult` object itself, before any
        cache or routing lookup.  A touched walk goes through the trace
        LRU, so every LRU miss is a real walk under ``state``.
        """
        blocked = tuple(sorted(blocked_ases)) if blocked_ases else ()
        key = (src_router, dst_router, blocked)
        touched = (
            self._last_touched
            if state is self._last_state
            else self.touched_walks(state)
        )
        walk = self._walks.get(key)
        if walk is None:
            walk = self._new_walk(key)
            touched = self.touched_walks(state)
        if key not in touched:
            return walk
        cache_key = (state.key, src_router, dst_router, blocked)
        cached = self._trace_cache.get(cache_key)
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
            self._trace_cache.put(cache_key, cached)
        return cached

    def touched_walks(self, state: NetworkState) -> FrozenSet[tuple]:
        """The ``(src_router, dst_router, sorted blocked ASes)`` keys of
        the baseline walks ``state`` touches.

        A walk is a pair's traceroute under the engine's pinned baseline,
        kept from the pair's first trace on.  ``state`` touches it when
        some AS on its AS sequence (the source AS when a dead source left
        it empty) has another IGP condition, or some AS of that sequence
        but the destination holds another route to the destination
        prefix (``is`` first, then ``==``).  Under ``state``, every other
        walk's traceroute is the walk itself: the walk is a function of
        what it read.  A failed crossed link needs no check of its own:
        the engine never selects a down session, so the route over it
        changes.

        Converges ``state`` once; the set is memoised per ``state.key``
        and recomputed whenever a new walk joins the indexes.  A pair
        never traced is in no set: trace it under any state first.
        """
        if state is self._last_state:
            return self._last_touched
        touched = self._touched.get(state.key)
        if touched is None:
            touched = self._touched_by(state, self.routing(state))
            memo = self._touched
            if self._touched_capacity and len(memo) >= self._touched_capacity:
                del memo[next(iter(memo))]
            memo[state.key] = touched
        self._last_state, self._last_touched = state, touched
        return touched

    def _touched_by(
        self, state: NetworkState, routing: RoutingState
    ) -> FrozenSet[tuple]:
        """The walks ``state``, converged to ``routing``, touches: one
        pass over the indexes, built on the first failure state."""
        base_state, base_routing = self.engine.baseline
        if routing is base_routing:
            return frozenset()
        if self._igp_index is None:
            self._igp_index = {}
            for key, walk in self._walks.items():
                self._index(key, walk)
        touched: Set[tuple] = set()
        for asn in self.igp_cache.changed_ases(state, base_state):
            touched.update(self._igp_index.get(asn, ()))
        for prefix, readers in self._route_index.items():
            rib, base_rib = routing.rib(prefix), base_routing.rib(prefix)
            if rib is base_rib:
                continue  # the incremental engine shares an untouched RIB
            for asn, walks in readers.items():
                now, route = rib.get(asn), base_rib.get(asn)
                if now is not route and now != route:
                    touched.update(walks)
        return frozenset(touched)

    def _new_walk(self, key: tuple) -> TraceResult:
        """Walk the pair under the engine's pinned baseline and keep the
        walk; once the indexes exist it joins them, and every memoised
        touched set is dropped (none of them was computed over it)."""
        src_router, dst_router, blocked = key
        base_state, base_routing = self.engine.baseline
        walk = trace_route(
            self.net,
            base_routing,
            base_state,
            src_router,
            dst_router,
            blocked_ases=frozenset(blocked),
            igp_cache=self.igp_cache,
        )
        self._walks[key] = walk
        if self._igp_index is not None:
            self._index(key, walk)
            self._touched.clear()
            self._last_state = None
        return walk

    def _index(self, key: tuple, walk: TraceResult) -> None:
        """Add one walk's reads to the indexes: its AS sequence (the
        source AS when a dead source left it empty) to the IGP index, and
        those ASes but the destination to the route index of the
        destination prefix."""
        net = self.net
        dst_asn = net.asn_of_router(walk.dst_router)
        ases = tuple(dict.fromkeys(map(net.asn_of_router, walk.router_path())))
        # A dead source ends the walk before it reads any route.
        for asn in ases or (net.asn_of_router(walk.src_router),):
            self._igp_index.setdefault(asn, set()).add(key)
        route_ases = [asn for asn in ases if asn != dst_asn]
        if route_ases:
            prefix = net.autonomous_system(dst_asn).prefix
            readers = self._route_index.setdefault(prefix, {})
            for asn in route_ases:
                readers.setdefault(asn, set()).add(key)

    # ---------------------------------------------------------- accounting

    def cache_stats(self) -> Dict[str, int]:
        """Flat counter snapshot of both caches and the convergence work.

        Keys are prefixed ``trace_cache_*`` / ``routing_cache_*`` plus the
        engine's :class:`~repro.netsim.bgp.engine.ConvergenceCounters`
        fields — the exact numbers
        :class:`~repro.experiments.runner.PlacementStats` records.  Only
        touched walks reach the trace LRU, so ``trace_cache_misses``
        counts the walks made under failure states; the baseline walks and
        the untouched traces served from them are not counted.  The
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
