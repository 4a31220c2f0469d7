"""Performance-at-scale bench: diagnoses/sec and peak RSS vs topology size.

§5.3 speculates about Internet-scale behaviour; this bench makes the
cost side of that story measurable.  It runs the full measure-and-
diagnose pipeline on the paper's 165-AS research topology and on
power-law internets (:mod:`repro.netsim.gen.powerlaw`) at 1k and 5k
ASes — plus a 20k tier under ``-m slow`` — recording per-tier diagnosis
throughput and peak RSS into ``results/BENCH_scale.json`` (the slow tier
merges into the same file).

At the 5k tier it also times the greedy hitting-set solver against the
set-based oracle (``tests/core/greedy_oracle.py``) on one large snapshot
and asserts the vectorized solver is at least :data:`SPEEDUP_FLOOR` times
faster while returning a bit-identical result.
"""

import json
import random
import time

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.core.hitting_set import greedy_hitting_set
from repro.core.nd_edge import build_edge_inputs
from repro.experiments.runner import make_session
from repro.measurement.collector import take_snapshot
from repro.measurement.sensors import random_stub_placement
from repro.netsim.gen.internet import research_internet
from repro.netsim.gen.powerlaw import powerlaw_internet
from repro.perf import peak_rss_mb, write_bench_artifact
from tests.core.greedy_oracle import _greedy_hitting_set_python

from conftest import REPO_ROOT, RESULTS_DIR

SCHEMA = "bench-scale-v1"
BENCH_PATH = RESULTS_DIR / "BENCH_scale.json"

#: Acceptance floor for the vectorized greedy at the 5k-AS tier.  The
#: measured margin is ~2x above this; the floor absorbs machine noise.
SPEEDUP_FLOOR = 3.0


def _hubs_by_degree(topo):
    """Tier-2 ASes, busiest (most inter-AS links) first, ASN tie-break."""
    net = topo.net
    return sorted(
        topo.tier2_asns, key=lambda asn: (-len(net.inter_links_of_as(asn)), asn)
    )


def _failure_lids(topo, session, index):
    """Deterministic failure scenario ``index`` for one tier.

    Cutting every uplink of one sensor's stub AS guarantees unreachable
    pairs (the diagnoser refuses all-reachable snapshots); cutting two
    links of a busy tier-2 hub adds rerouted pairs, so both evidence
    kinds are exercised.
    """
    net = topo.net
    sensor = session.sensors[index % len(session.sensors)]
    stub_asn = net.asn_of_router(sensor.router_id)
    lids = [link.lid for link in net.inter_links_of_as(stub_asn)]
    hubs = _hubs_by_degree(topo)
    hub = hubs[index % len(hubs)]
    lids += [link.lid for link in net.inter_links_of_as(hub)[:2]]
    return list(dict.fromkeys(lids))


def _measure_tier(label, build, n_sensors, n_diagnoses):
    """Build one tier, run ``n_diagnoses`` full pipeline rounds, record."""
    started = time.perf_counter()
    topo = build()
    build_seconds = time.perf_counter() - started
    rng = random.Random(f"perf-scale/{label}")
    session = make_session(
        topo, random_stub_placement(topo, n_sensors, rng), rng
    )
    diagnoser = NetDiagnoser("nd-edge")
    diagnosis_seconds = 0.0
    for index in range(n_diagnoses):
        after = session.base_state.with_failed_links(
            _failure_lids(topo, session, index)
        )
        started = time.perf_counter()
        snapshot = take_snapshot(
            session.sim, session.sensors, session.base_state, after
        )
        result = diagnoser.diagnose(snapshot)
        diagnosis_seconds += time.perf_counter() - started
        assert result.hypothesis, f"degenerate diagnosis at tier {label}"
    row = {
        "label": label,
        "n_ases": topo.net.num_ases,
        "n_routers": topo.net.num_routers,
        "n_links": topo.net.num_links,
        "n_sensors": n_sensors,
        "build_seconds": round(build_seconds, 4),
        "diagnoses": n_diagnoses,
        "diagnoses_per_second": round(n_diagnoses / diagnosis_seconds, 4),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    return topo, session, row


def _measure_greedy_speedup(topo, session, reps=20):
    """Time the greedy solver and its set-based oracle on one large
    5k-tier snapshot."""
    net = topo.net
    hub = _hubs_by_degree(topo)[0]
    failed = [link.lid for link in net.inter_links_of_as(hub)[:4]]
    after = session.base_state.with_failed_links(failed)
    snapshot = take_snapshot(
        session.sim, session.sensors, session.base_state, after
    )
    inputs = build_edge_inputs(snapshot)
    failures = list(inputs.failure_sets.values())
    reroutes = list(inputs.reroute_map.values())
    kwargs = dict(excluded=inputs.excluded(), cluster_of=inputs.cluster_of)

    reference = _greedy_hitting_set_python(failures, reroutes, **kwargs)
    vectorized = greedy_hitting_set(failures, reroutes, **kwargs)
    assert vectorized == reference, "vectorized greedy is not bit-identical"

    started = time.perf_counter()
    for _ in range(reps):
        _greedy_hitting_set_python(failures, reroutes, **kwargs)
    python_ms = (time.perf_counter() - started) / reps * 1000.0
    started = time.perf_counter()
    for _ in range(reps):
        greedy_hitting_set(failures, reroutes, **kwargs)
    numpy_ms = (time.perf_counter() - started) / reps * 1000.0
    return {
        "failure_sets": len(failures),
        "reroute_sets": len(reroutes),
        "reps": reps,
        "python_ms": round(python_ms, 3),
        "numpy_ms": round(numpy_ms, 3),
        "speedup": round(python_ms / numpy_ms, 2),
    }


def _merge_results(tiers, greedy=None):
    """Merge new tiers into ``BENCH_scale.json`` at the repo root and
    under ``results/``, so tiers measured by different test runs (the
    slow 20k tier in particular) accumulate."""

    def merge(data):
        data.setdefault("tiers", {})
        for row in tiers:
            data["tiers"][row["label"]] = row
        if greedy is not None:
            data["greedy_5k"] = greedy

    return write_bench_artifact("scale", SCHEMA, merge, REPO_ROOT)


def test_perf_scale(benchmark):
    def run():
        tiers = []
        for label, build, n_sensors, n_diagnoses in (
            (
                "research-165",
                lambda: research_internet(n_tier2=22, n_stub=140, seed=0),
                10,
                3,
            ),
            ("powerlaw-1000", lambda: powerlaw_internet(1000, seed=0), 12, 2),
            ("powerlaw-5000", lambda: powerlaw_internet(5000, seed=0), 64, 1),
        ):
            topo, session, row = _measure_tier(
                label, build, n_sensors, n_diagnoses
            )
            tiers.append(row)
        return _merge_results(tiers, _measure_greedy_speedup(topo, session))

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(json.dumps(data, indent=2, sort_keys=True))

    assert data["schema"] == SCHEMA
    assert len(data["tiers"]) >= 3
    sized = sorted(data["tiers"].values(), key=lambda row: row["n_ases"])
    assert [row["n_ases"] for row in sized][:2] == [165, 1000]
    assert sized[-1]["n_ases"] >= 5000
    for row in sized:
        assert row["diagnoses_per_second"] > 0
        assert row["peak_rss_mb"] > 0
    assert data["greedy_5k"]["speedup"] >= SPEEDUP_FLOOR


@pytest.mark.slow
def test_perf_scale_20k(benchmark):
    """Internet-scale tier: merged into BENCH_scale.json, run explicitly
    with ``pytest benchmarks/test_perf_scale.py -m slow``."""

    def run():
        _topo, _session, row = _measure_tier(
            "powerlaw-20000", lambda: powerlaw_internet(20000, seed=0), 16, 1
        )
        return _merge_results([row])

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    row = data["tiers"]["powerlaw-20000"]
    assert row["n_ases"] == 20000
    assert row["diagnoses_per_second"] > 0
