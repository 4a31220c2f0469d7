"""The per-pair trace-reuse check, kept as the oracle of the touched sets.

``Simulator.touched_walks`` names the baseline walks a failure state
touches off two indexes that invert what every walk read.  Before the
indexes, the simulator asked one pair at a time, on every trace-cache
miss, whether everything that pair's baseline walk read was unchanged
under the state.  :func:`unchanged` is that question, with the walk's
reads derived here from the walk itself: a walk is touched exactly when
it is not unchanged.
"""

from __future__ import annotations

from typing import Tuple

from repro.netsim.simulator import Simulator
from repro.netsim.topology import NetworkState
from repro.netsim.traceroute import TraceResult


def walk_reads(sim: Simulator, walk: TraceResult) -> Tuple[str, tuple, tuple]:
    """What a baseline walk read: the destination prefix; the ASes whose
    IGP it read (its AS sequence, or the source AS when a dead source
    left the walk empty); and the ASes of that sequence but the
    destination, whose route towards the prefix it read."""
    net = sim.net
    dst_asn = net.asn_of_router(walk.dst_router)
    ases = tuple(dict.fromkeys(net.asn_of_router(rid) for rid in walk.router_path()))
    return (
        net.autonomous_system(dst_asn).prefix,
        ases or (net.asn_of_router(walk.src_router),),
        tuple(asn for asn in ases if asn != dst_asn),
    )


def unchanged(sim: Simulator, walk: TraceResult, state: NetworkState) -> bool:
    """True when everything ``walk``, a pair's trace under the engine's
    pinned baseline, read is unchanged under ``state``."""
    base_state, base_routing = sim.engine.baseline
    routing = sim.routing(state)
    if routing is base_routing:
        return True
    prefix, igp_ases, route_ases = walk_reads(sim, walk)
    if not sim.igp_cache.changed_ases(state, base_state).isdisjoint(igp_ases):
        return False
    if not route_ases:
        return True
    rib, base_rib = routing.rib(prefix), base_routing.rib(prefix)
    if rib is base_rib:
        return True  # the incremental engine shares an untouched RIB
    for asn in route_ases:
        now, route = rib.get(asn), base_rib.get(asn)
        if now is not route and now != route:
            return False
    return True
