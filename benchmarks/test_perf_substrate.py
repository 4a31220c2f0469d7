"""Micro-benchmarks of the substrate: convergence, probing, diagnosis.

These are classic pytest-benchmark timings (multiple rounds) quantifying
the costs the figure harnesses are built on; useful for catching
performance regressions in the engine or the greedy solver.
"""

import random

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.experiments.runner import make_session
from repro.measurement.collector import take_snapshot
from repro.measurement.probing import probe_mesh
from repro.measurement.sensors import random_stub_placement
from repro.netsim.bgp import BgpEngine
from repro.netsim.gen.internet import research_internet
from repro.netsim.topology import NetworkState


@pytest.fixture(scope="module")
def world():
    topo = research_internet(seed=42)
    rng = random.Random("perf")
    session = make_session(topo, random_stub_placement(topo, 10, rng), rng)
    scenario = session.sampler.sample("link-2")
    snapshot = take_snapshot(
        session.sim, session.sensors, session.base_state, scenario.after_state
    )
    return topo, session, scenario, snapshot


def test_perf_bgp_convergence(benchmark, world):
    topo, session, _scenario, _snapshot = world
    sensor_asns = sorted(
        topo.net.asn_of_router(s.router_id) for s in session.sensors
    )

    def converge():
        engine = BgpEngine.for_sensor_ases(topo.net, sensor_asns)
        return engine.converge(NetworkState.nominal())

    routing = benchmark(converge)
    assert routing.prefixes


def test_perf_probe_mesh(benchmark, world):
    _topo, session, scenario, _snapshot = world

    def mesh():
        # Clear the trace cache so every pair misses it: pairs the
        # scenario left alone are served by their baseline walk, the
        # rest walk the data plane again.
        session.sim._trace_cache.clear()
        return probe_mesh(session.sim, session.sensors, scenario.after_state)

    store = benchmark(mesh)
    assert len(store) == 90


def test_perf_tomo(benchmark, world):
    _topo, _session, _scenario, snapshot = world
    result = benchmark(lambda: NetDiagnoser("tomo").diagnose(snapshot))
    assert result.hypothesis


def test_perf_nd_edge(benchmark, world):
    _topo, _session, _scenario, snapshot = world
    result = benchmark(lambda: NetDiagnoser("nd-edge").diagnose(snapshot))
    assert result.hypothesis


def test_perf_topology_generation(benchmark):
    topo = benchmark(lambda: research_internet(seed=7))
    assert topo.net.num_ases == 165
