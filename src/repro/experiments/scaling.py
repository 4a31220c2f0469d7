"""Scaling study: how the pipeline behaves as the internetwork grows.

§5.3 of the paper speculates: "these results are from simulations on a
relatively small topology.  If these simulations were at the scale of the
real Internet, the benefit of using BGP and IGP information would be
greater."  This harness makes the growth measurable: for a sweep of
topology sizes it records substrate costs (convergence, probing) and
diagnosis quality (diagnosability, ND-edge and ND-bgpigp metrics on
sampled single-link failures), so the trend — not just the 165-AS point —
is part of the reproduction.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

from repro.core.diagnoser import NetDiagnoser
from repro.errors import ScenarioError
from repro.experiments.runner import make_session, run_scenario
from repro.experiments.stats import mean
from repro.measurement.sensors import random_stub_placement
from repro.netsim.gen.internet import research_internet
from repro.netsim.gen.powerlaw import powerlaw_internet
from repro.netsim.topology import NetworkState
from repro.netsim.traceroute import trace_route

__all__ = ["ScalePoint", "scaling_sweep", "render_scaling", "TOPOLOGY_STYLES"]

#: (tier-2 count, stub count) sweeps; the paper's point is (22, 140).
DEFAULT_SIZES: Tuple[Tuple[int, int], ...] = (
    (6, 40),
    (12, 80),
    (22, 140),
    (33, 210),
)

#: Topology tiers a sweep can run on.  ``research`` sizes are
#: (tier-2 count, stub count) pairs; ``powerlaw`` sizes are total AS
#: counts (the internet-scale tier of :mod:`repro.netsim.gen.powerlaw`).
TOPOLOGY_STYLES = ("research", "powerlaw")


def _build_topology(topology: str, size, seed: int):
    """Construct one sweep topology; returns (topo, (n_tier2, n_stub))."""
    if topology == "research":
        n_tier2, n_stub = size
        topo = research_internet(n_tier2=n_tier2, n_stub=n_stub, seed=seed)
        return topo, (n_tier2, n_stub)
    if topology == "powerlaw":
        n_ases = size if isinstance(size, int) else size[0] + size[1]
        topo = powerlaw_internet(n_ases, seed=seed)
        return topo, (len(topo.transit_asns), len(topo.stub_asns))
    raise ScenarioError(
        f"unknown topology style {topology!r}; choose from {TOPOLOGY_STYLES}"
    )


@dataclass
class ScalePoint:
    """Measurements at one topology size."""

    n_tier2: int
    n_stub: int
    n_ases: int
    n_routers: int
    n_links: int
    convergence_seconds: float
    mesh_seconds: float
    diagnosis_seconds: float
    diagnosability: float
    nd_edge_sensitivity: float
    nd_edge_specificity: float
    bgpigp_specificity: float


def _scale_point(
    size: Tuple[int, int],
    n_sensors: int,
    failures: int,
    seed: int,
    topology: str = "research",
) -> ScalePoint:
    """Measure one topology size (self-contained: safe in a worker)."""
    topo, (n_tier2, n_stub) = _build_topology(topology, size, seed)
    rng = random.Random(f"scaling/{seed}/{n_tier2}/{n_stub}")
    session = make_session(
        topo, random_stub_placement(topo, n_sensors, rng), rng
    )

    # Time a *fresh* engine: the session's own is already converged
    # (the sampler probed the mesh during construction).
    from repro.netsim.bgp import BgpEngine

    sensor_asns = sorted(
        topo.net.asn_of_router(s.router_id) for s in session.sensors
    )
    started = time.perf_counter()
    BgpEngine.for_sensor_ases(topo.net, sensor_asns).converge(
        NetworkState.nominal()
    )
    convergence = time.perf_counter() - started

    # The sampler already probed the mesh, and the simulator keeps those
    # walks: time one real walk per ordered pair over the same routing.
    sim = session.sim
    routing = sim.routing(session.base_state)
    started = time.perf_counter()
    for src in session.sensors:
        for dst in session.sensors:
            if src.sensor_id != dst.sensor_id:
                trace_route(
                    topo.net,
                    routing,
                    session.base_state,
                    src.router_id,
                    dst.router_id,
                    igp_cache=sim.igp_cache,
                )
    mesh = time.perf_counter() - started

    diagnosers = {
        "nd-edge": NetDiagnoser("nd-edge"),
        "nd-bgpigp": NetDiagnoser("nd-bgpigp"),
    }
    sens, spec, bgpigp_spec, diag = [], [], [], []
    diagnosis_time = 0.0
    produced = 0
    while produced < failures:
        try:
            scenario = session.sampler.sample("link-1")
        except ScenarioError:
            break
        started = time.perf_counter()
        try:
            record = run_scenario(
                session, scenario, diagnosers, asx=topo.core_asns[0]
            )
        except ScenarioError:
            continue
        diagnosis_time += time.perf_counter() - started
        produced += 1
        sens.append(record.scores["nd-edge"].link.sensitivity)
        spec.append(record.scores["nd-edge"].link.specificity)
        bgpigp_spec.append(record.scores["nd-bgpigp"].link.specificity)
        diag.append(record.diagnosability)
    if not produced:
        raise ScenarioError(
            f"no admissible failures at size ({n_tier2}, {n_stub})"
        )
    return ScalePoint(
        n_tier2=n_tier2,
        n_stub=n_stub,
        n_ases=topo.net.num_ases,
        n_routers=topo.net.num_routers,
        n_links=topo.net.num_links,
        convergence_seconds=convergence,
        mesh_seconds=mesh,
        diagnosis_seconds=diagnosis_time / produced,
        diagnosability=mean(diag),
        nd_edge_sensitivity=mean(sens),
        nd_edge_specificity=mean(spec),
        bgpigp_specificity=mean(bgpigp_spec),
    )


def scaling_sweep(
    sizes: Sequence[Tuple[int, int]] = DEFAULT_SIZES,
    n_sensors: int = 10,
    failures: int = 5,
    seed: int = 0,
    workers: int = 1,
    topology: str = "research",
) -> List[ScalePoint]:
    """Measure substrate cost and diagnosis quality across sizes.

    Each size is seeded independently (``f"scaling/{seed}/{size}"``), so
    with ``workers > 1`` the points are computed in parallel processes;
    every non-timing field matches the serial sweep exactly (the
    ``*_seconds`` fields are wall-clock measurements and naturally vary
    run to run).  ``workers=0`` uses every core.  ``topology`` selects the
    tier (see :data:`TOPOLOGY_STYLES`); ``powerlaw`` sizes are total AS
    counts.
    """
    from repro.experiments.runner import resolve_workers

    point_fn = partial(
        _scale_point,
        n_sensors=n_sensors,
        failures=failures,
        seed=seed,
        topology=topology,
    )
    n_workers = resolve_workers(workers, len(list(sizes)))
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(point_fn, sizes))
    return [point_fn(size) for size in sizes]


def render_scaling(points: Sequence[ScalePoint]) -> str:
    """Aligned text table of a scaling sweep."""
    header = (
        f"{'ASes':>5s} {'routers':>8s} {'links':>6s} "
        f"{'converge':>9s} {'mesh':>7s} {'diagnose':>9s} "
        f"{'D(G)':>6s} {'sens':>5s} {'spec':>6s} {'bgpigp':>7s}"
    )
    lines = [header]
    for p in points:
        lines.append(
            f"{p.n_ases:>5d} {p.n_routers:>8d} {p.n_links:>6d} "
            f"{p.convergence_seconds:>8.3f}s {p.mesh_seconds:>6.3f}s "
            f"{p.diagnosis_seconds:>8.3f}s "
            f"{p.diagnosability:>6.3f} {p.nd_edge_sensitivity:>5.2f} "
            f"{p.nd_edge_specificity:>6.3f} {p.bgpigp_specificity:>7.3f}"
        )
    return "\n".join(lines)
