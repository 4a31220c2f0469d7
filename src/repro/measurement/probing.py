"""Full-mesh probing: turning simulator traceroutes into probe paths.

"Every sensor uses traceroute to examine the reachability from itself to
every other sensor, and sends the results to AS-X" (§2.2).  This module
runs that mesh against the simulator and assembles the
:class:`~repro.core.pathset.PathStore` the troubleshooter receives: hop
addresses with sensor endpoints attached, stars materialised as
:class:`~repro.core.linkspace.UhNode` tokens carrying (pair, epoch,
position) identity.

When a :class:`~repro.faults.FaultPlan` is supplied, each probe passes
through the measurement-plane faults it schedules — a dropped probe
yields no path at all, a truncated one a strict prefix with unknown
reachability, and anonymous hops become extra UH tokens — with every
degradation counted on the caller's
:class:`~repro.faults.DegradationReport`.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Sequence

from repro.core.linkspace import Endpoint, UhNode
from repro.core.pathset import EPOCH_PRE, PathStore, ProbePath
from repro.errors import MeasurementError
from repro.faults import DegradationReport, FaultPlan
from repro.measurement.sensors import Sensor
from repro.netsim.simulator import Simulator
from repro.netsim.topology import NetworkState
from repro.netsim.traceroute import corrupt_trace, degrade_trace

__all__ = ["probe_mesh", "probe_pair"]


def probe_pair(
    sim: Simulator,
    src: Sensor,
    dst: Sensor,
    state: NetworkState,
    blocked_ases: FrozenSet[int] = frozenset(),
    epoch: str = EPOCH_PRE,
    faults: Optional[FaultPlan] = None,
    report: Optional[DegradationReport] = None,
) -> Optional[ProbePath]:
    """One traceroute from sensor ``src`` to sensor ``dst``.

    Returns ``None`` when the fault plan drops this probe entirely.
    """
    if faults is not None and faults.drop_trace(src.address, dst.address, epoch):
        if report is not None:
            report.probes_dropped += 1
        return None
    trace = sim.trace(state, src.router_id, dst.router_id, blocked_ases)
    if faults is not None:
        n = len(trace.addresses())
        keep = faults.truncate_trace(src.address, dst.address, epoch, n)
        anonymize = frozenset(
            index
            for index in range(n if keep is None else keep)
            if faults.anonymize_hop(src.address, dst.address, epoch, index)
        )
        degraded = degrade_trace(trace, truncate_at=keep, anonymize=anonymize)
        if report is not None:
            if keep is not None:
                report.probes_truncated += 1
            report.hops_anonymized += sum(
                1
                for clean, dirty in zip(trace.addresses(), degraded.addresses())
                if clean is not None and dirty is None
            )
        trace = degraded
        n = len(trace.addresses())
        corrupted, applied = corrupt_trace(
            trace,
            forge=faults.forge_hop(src.address, dst.address, epoch, n),
            duplicate_at=faults.duplicate_hop(src.address, dst.address, epoch, n),
            loop=faults.inject_loop(src.address, dst.address, epoch, n),
        )
        if report is not None:
            report.hops_forged += applied.count("hop-forge")
            report.hops_duplicated += applied.count("hop-dup")
            report.loops_injected += applied.count("loop-inject")
        trace = corrupted
    raw: List[Optional[Endpoint]] = [src.address]
    raw.extend(trace.addresses())
    if trace.reached:
        raw.append(dst.address)
    hops: List[Endpoint] = []
    for index, endpoint in enumerate(raw):
        if endpoint is None:
            hops.append(
                UhNode(src=src.address, dst=dst.address, epoch=epoch, index=index)
            )
        else:
            hops.append(endpoint)
    reached = trace.reached
    if (
        faults is not None
        and reached
        and faults.flip_reach_bit(src.address, dst.address, epoch)
    ):
        # The lying sensor reports a working probe as failed.  The other
        # direction is unforgeable: a probe that never reached carries no
        # destination confirmation to flip, and the path invariant that a
        # reached probe ends at the destination makes the lie detectable.
        reached = False
        if report is not None:
            report.reach_bits_flipped += 1
    return ProbePath(
        src=src.address,
        dst=dst.address,
        hops=tuple(hops),
        reached=reached,
        epoch=epoch,
    )


def probe_mesh(
    sim: Simulator,
    sensors: Sequence[Sensor],
    state: NetworkState,
    blocked_ases: FrozenSet[int] = frozenset(),
    epoch: str = EPOCH_PRE,
    faults: Optional[FaultPlan] = None,
    report: Optional[DegradationReport] = None,
    untouched: Optional[PathStore] = None,
) -> PathStore:
    """The full measurement mesh: one probe per ordered sensor pair.

    Probes the fault plan dropped are simply absent from the store — the
    collector reconciles the before/after rounds over the surviving
    pairs.

    ``untouched`` is the same mesh (sensors, blocked ASes, epoch) probed
    without faults under the simulator's pinned baseline.  Each pair whose
    walk ``state`` does not touch (:meth:`Simulator.touched_walks`) takes
    its path from it, keyed by sensor pair, instead of being probed again.
    """
    if untouched is not None and faults is not None:
        raise MeasurementError("reused probes cannot be faulted")
    touched = sim.touched_walks(state) if untouched is not None else None
    blocked = tuple(sorted(blocked_ases))
    store = PathStore()
    for src in sensors:
        for dst in sensors:
            if src.sensor_id == dst.sensor_id:
                continue
            if touched is None or (src.router_id, dst.router_id, blocked) in touched:
                path = probe_pair(
                    sim, src, dst, state, blocked_ases, epoch, faults, report
                )
            else:
                path = untouched.get((src.address, dst.address))
            if path is not None:
                store.add(path)
    return store
