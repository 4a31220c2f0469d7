"""Speedup benchmark for incremental BGP re-convergence.

Converges the paper's research-Internet topology once, then replays a
sweep of single-link failure states through two engines — one with the
incremental path enabled, one forced to full recomputation — asserting
that the incremental engine (a) produces identical routing states,
(b) re-converges a strict subset of the prefixes, and (c) is faster in
wall clock on the sweep.  Each sweep's time is the minimum over
``REPEATS`` fresh engines: a single wall-clock sample put the same code
anywhere between 1.1x and 1.4x.

Run with the slow lane::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_incremental.py -m slow -s
"""

from __future__ import annotations

import time

import pytest

from repro.netsim.bgp import BgpEngine
from repro.netsim.gen.internet import research_internet
from repro.netsim.topology import NetworkState

TOPO_SEED = 100
N_SENSORS = 10
N_FAILURES = 40
REQUIRED_SPEEDUP = 1.3
REPEATS = 5


def failure_states(net, n):
    """The first ``n`` single-inter-link-failure states, in link order."""
    nominal = NetworkState.nominal()
    return [
        nominal.with_failed_links([link.lid])
        for link in net.inter_links()[:n]
    ]


def sweep(make_engine, states):
    """Converge nominal (the baseline) plus every failure state on
    ``REPEATS`` fresh engines; the fastest time, the last engine and its
    routings."""
    best = float("inf")
    for _ in range(REPEATS):
        engine = make_engine()
        started = time.perf_counter()
        engine.converge(NetworkState.nominal())
        routings = [engine.converge(state) for state in states]
        best = min(best, time.perf_counter() - started)
    return best, engine, routings


@pytest.mark.slow
def test_incremental_reconverges_strict_subset_and_is_faster():
    topo = research_internet(seed=TOPO_SEED)
    sensors = topo.stub_asns[:N_SENSORS]
    states = failure_states(topo.net, N_FAILURES)

    full_seconds, full, full_routings = sweep(
        lambda: BgpEngine.for_sensor_ases(topo.net, sensors, incremental=False),
        states,
    )
    incr_seconds, incremental, incr_routings = sweep(
        lambda: BgpEngine.for_sensor_ases(topo.net, sensors), states
    )

    # Correctness first: the incremental results must be identical.
    for incr, reference in zip(incr_routings, full_routings):
        assert incr.equivalent_to(reference)

    # Every failure state went through the incremental path...
    assert incremental.counters.incremental_converges == len(states)
    # ...and re-converged a strict subset of the prefixes: the reuse is
    # what the speedup is made of.
    assert (
        incremental.counters.prefixes_converged
        < full.counters.prefixes_converged
    )
    assert incremental.counters.prefixes_reused > 0
    n_prefixes = len(incremental.prefixes)
    reuse = incremental.counters.prefixes_reused / (len(states) * n_prefixes)

    speedup = full_seconds / incr_seconds
    print(
        f"\n(22, 140) sweep, {len(states)} failure states, "
        f"{n_prefixes} prefixes: full {full_seconds:.2f}s, "
        f"incremental {incr_seconds:.2f}s -> {speedup:.2f}x "
        f"(prefix reuse {reuse:.0%})"
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"expected >= {REQUIRED_SPEEDUP}x from incremental re-convergence, "
        f"measured {speedup:.2f}x"
    )
