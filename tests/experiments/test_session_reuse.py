"""A session derives its T- round once and its memos stay flat.

Every fault-free scenario of a placement diagnoses against the same T-
round.  After the first scenario the round must stay the same object,
and its per-path token memos and its two graphs must neither grow nor
be rebuilt as scenarios accumulate: each snapshot passes a fresh bound
method ``mapper.asn_of``, which compares equal to the last one without
being the same object.
"""

from __future__ import annotations

import random

from repro.core.pathset import EPOCH_POST
from repro.diagnosers import make_diagnosers
from repro.experiments.runner import covered_ases, make_session, run_scenario
from repro.measurement.collector import take_snapshot
from repro.measurement.probing import probe_mesh
from repro.measurement.sensors import random_stub_placement

KINDS = ("link-1", "link-2", "router", "misconfig")


def memo_sizes(store, asn_of):
    return (
        sum(len(path.token_memo()) for path in store.paths()),
        len(store.physical_graph()),
        len(store.logical_graph(asn_of)),
    )


def test_t_minus_round_and_its_memos_stay_flat(research_topo):
    rng = random.Random("session-reuse")
    session = make_session(
        research_topo, random_stub_placement(research_topo, 8, rng), rng
    )
    diagnosers = make_diagnosers(("tomo", "nd-edge", "nd-bgpigp"))
    asx = research_topo.core_asns[0]
    first = None
    for index in range(12):
        scenario = session.sampler.sample(KINDS[index % len(KINDS)])
        run_scenario(session, scenario, diagnosers, asx=asx)
        store = session.baseline_round(frozenset())
        derived = (
            store.physical_graph(),
            store.logical_graph(session.sim.mapper.asn_of),
        )
        sizes = memo_sizes(store, session.sim.mapper.asn_of)
        if first is None:
            first = (store, derived, sizes)
            assert sizes[0] > 0
            continue
        assert store is first[0]
        assert derived[0] is first[1][0] and derived[1] is first[1][1]
        assert sizes == first[2]


def test_base_coverage_is_computed_once(research_topo):
    rng = random.Random("session-coverage")
    session = make_session(
        research_topo, random_stub_placement(research_topo, 6, rng), rng
    )
    covered = session.base_coverage()
    assert covered == covered_ases(session, session.base_state)
    assert session.base_coverage() is covered


def test_t_plus_round_reuse_with_shared_gateways(research_topo):
    """Two sensors on one gateway (the Fig. 5 placements): the T+ round
    reads untouched pairs off the session's post-epoch slot by sensor
    pair, so it holds one path per pair and equals a fresh probe."""
    rng = random.Random("session-post")
    routers = random_stub_placement(research_topo, 5, rng)
    session = make_session(research_topo, routers + routers[:2], rng)
    diagnosers = make_diagnosers(("nd-edge",))
    post = session.baseline_round(frozenset(), EPOCH_POST)
    for kind in KINDS:
        scenario = session.sampler.sample(kind)
        run_scenario(session, scenario, diagnosers)
        snapshot = take_snapshot(
            session.sim,
            session.sensors,
            session.base_state,
            scenario.after_state,
            baseline=session.baseline_round(frozenset()),
            baseline_post=session.baseline_round(frozenset(), EPOCH_POST),
        )
        fresh = probe_mesh(
            session.sim, session.sensors, scenario.after_state, epoch=EPOCH_POST
        )
        assert snapshot.after.pairs() == fresh.pairs()
        assert len(fresh) == 7 * 6
        for pair in fresh.pairs():
            assert snapshot.after.get(pair) == fresh.get(pair)
    assert session.baseline_round(frozenset(), EPOCH_POST) is post
