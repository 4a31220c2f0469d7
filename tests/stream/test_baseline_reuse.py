"""The stream builds each distinct T- round's inputs once.

Every snapshot of an incident compares its T+ round with the same T-
round, so :func:`~repro.stream.merge.merged_snapshot` keeps the previous
drain's T- store (and the graphs it built) while the usable pairs'
baseline slots hold exactly its paths: the same sorted pairs, each slot
the *same* :class:`ProbePath` object.  These tests pin when a store is
kept and when a fresh one is built, check that a replay keeping stores
equals one that builds every drain's store afresh (forced by patching
the engine's ``merged_snapshot``), and that the benchmark's stream
placement builds its T- physical graph once per pass.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.graph import InferredGraph
from repro.core.linkspace import UhNode
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, ProbePath
from repro.diagnosers import make_diagnosers
from repro.experiments.runner import make_session
from repro.measurement.sensors import random_stub_placement
from repro.netsim.gen.internet import research_internet
from repro.stream import (
    ProbeEvent,
    ReplayConfig,
    SensorDropoutEvent,
    ShardSupervisor,
    SlidingWindow,
    StreamShard,
    SupervisionConfig,
    make_replay_setup,
    merged_snapshot,
    run_stream_replay,
)
from repro.stream import engine as engine_module
from repro.stream import merge, replay
from repro.stream.router import TenantConfig, source_tenant_of

from .test_supervise import ScriptedPlan
from .test_window import A, B, C, MID, asn_of

OTHER = "10.0.1.2"


def pre(src, dst, mid=MID):
    return ProbePath(src=src, dst=dst, hops=(src, mid, dst), reached=True,
                     epoch=EPOCH_PRE)


def post(src, dst, reached=False):
    hops = (src, MID, dst) if reached else (src, MID)
    return ProbePath(src=src, dst=dst, hops=hops, reached=reached,
                     epoch=EPOCH_POST)


def observe(window, tick, *paths):
    for seq, path in enumerate(paths):
        window.observe(ProbeEvent(tick=tick, seq=seq, path=path))


PRE_AB, PRE_AC = pre(A, B), pre(A, C)


def incident_window():
    """A and B fail at T+, A and C still work: two usable pairs."""
    window = SlidingWindow(width=4)
    observe(window, 0, PRE_AB, post(A, B), PRE_AC, post(A, C, reached=True))
    return window


class TestStoreReuse:
    def test_identical_baselines_share_one_store(self):
        window = incident_window()
        first = merged_snapshot([window], asn_of)
        physical = first.before.physical_graph()
        logical = first.before.logical_graph(asn_of)
        # The same baseline objects again at a later tick, new T+ probes.
        observe(window, 1, PRE_AB, post(A, B, reached=True), PRE_AC)
        second = merged_snapshot([window], asn_of, first.before)
        assert second.before is first.before
        assert second.before.physical_graph() is physical
        assert second.before.logical_graph(asn_of) is logical
        assert second.after is not first.after
        assert second.working_pairs() == ((A, B), (A, C))

    def test_shards_share_one_store_too(self):
        windows = [SlidingWindow(width=4), SlidingWindow(width=4)]
        observe(windows[0], 0, PRE_AB, post(A, B))
        observe(windows[1], 0, PRE_AC, post(A, C, reached=True))
        first = merged_snapshot(windows, asn_of)
        assert first.before.pairs() == ((A, B), (A, C))
        assert merged_snapshot(windows, asn_of, first.before).before is (
            first.before
        )

    @pytest.mark.parametrize("mid", [MID, OTHER], ids=["equal", "rerouted"])
    def test_a_replaced_pre_probe_builds_afresh(self, mid):
        """Identity, not equality, decides: an equal path that is another
        object builds a fresh store as surely as a changed one."""
        window = incident_window()
        first = merged_snapshot([window], asn_of)
        replaced = pre(A, B, mid)
        observe(window, 1, replaced)
        second = merged_snapshot([window], asn_of, first.before)
        assert second.before is not first.before
        assert second.before.get((A, B)) is replaced
        assert second.before.get((A, C)) is PRE_AC

    def test_an_evicted_baseline_builds_afresh(self):
        window = incident_window()
        first = merged_snapshot([window], asn_of)
        # Only A->C's slots are refreshed; A->B's age out of the window.
        observe(window, 3, PRE_AC, post(A, C, reached=True))
        window.evict(4)
        second = merged_snapshot([window], asn_of, first.before)
        assert second.before is not first.before
        assert second.before.pairs() == ((A, C),)

    def test_a_dark_sensor_builds_afresh(self):
        window = incident_window()
        first = merged_snapshot([window], asn_of)
        window.observe(SensorDropoutEvent(tick=1, seq=0, address=C))
        second = merged_snapshot([window], asn_of, first.before)
        assert second.before is not first.before
        assert second.before.pairs() == ((A, B),)

    def test_a_changed_pair_set_builds_afresh(self):
        window = incident_window()
        first = merged_snapshot([window], asn_of)
        observe(window, 1, pre(B, C), post(B, C, reached=True))
        second = merged_snapshot([window], asn_of, first.before)
        assert second.before is not first.before
        assert second.before.pairs() == ((A, B), (A, C), (B, C))
        # Back to the first pair set: the kept store is the second one.
        window.observe(SensorDropoutEvent(tick=2, seq=0, address=B))
        third = merged_snapshot([window], asn_of, second.before)
        assert third.before is not second.before
        assert third.before.pairs() == ((A, C),)

    def test_no_usable_pair_is_no_snapshot(self):
        window = SlidingWindow(width=4)
        observe(window, 0, PRE_AB)
        previous = merged_snapshot([incident_window()], asn_of).before
        assert merged_snapshot([window], asn_of, previous) is None


class TestCrashRestore:
    """A restart folds the shard's darkness buffer into the window it
    kept; the store is kept only if that leaves the very same paths in
    the baseline slots."""

    def _crashed_shard(self):
        shard = StreamShard(0, asn_of)
        supervisor = ShardSupervisor(
            [shard],
            config=SupervisionConfig(restart_after=1),
            plan=ScriptedPlan(crashes={(0, 2)}),
        )
        for seq, path in enumerate(
            (PRE_AB, post(A, B), PRE_AC, post(A, C, reached=True))
        ):
            assert shard.offer(ProbeEvent(tick=1, seq=seq, path=path))
        supervisor.end_tick(1)
        first = merged_snapshot([shard.window], asn_of)
        supervisor.end_tick(2)  # crash
        assert supervisor.is_dark(0)
        # Dark, the shard serves its last window: the store is kept.
        dark = merged_snapshot([shard.window], asn_of, first.before)
        assert dark.before is first.before
        return shard, supervisor, first

    def test_a_restart_that_replaces_a_baseline_builds_afresh(self):
        shard, supervisor, first = self._crashed_shard()
        replaced = pre(A, B, OTHER)
        assert supervisor.buffer_event(
            0, "pair", ProbeEvent(tick=3, seq=0, path=replaced)
        )
        supervisor.begin_tick(3)  # restart: fold the buffer
        assert not supervisor.is_dark(0)
        restored = merged_snapshot([shard.window], asn_of, first.before)
        assert restored.before is not first.before
        assert restored.before.get((A, B)) is replaced

    def test_a_restart_to_the_same_paths_keeps_the_store(self):
        shard, supervisor, first = self._crashed_shard()
        supervisor.begin_tick(3)
        assert not supervisor.is_dark(0)
        restored = merged_snapshot([shard.window], asn_of, first.before)
        assert restored.before is first.before


def fresh_stores(monkeypatch):
    """Make every drain build its T- store afresh: the reference a
    replay keeping stores must equal."""
    monkeypatch.setattr(
        engine_module,
        "merged_snapshot",
        lambda windows, asn_of, before=None: merge.merged_snapshot(
            windows, asn_of
        ),
    )


def count_reuse(monkeypatch, stores=None):
    """Spy on the engine's snapshots: how many kept the offered store;
    ``stores`` collects each snapshot's (pairs, T- store)."""
    counts = {"kept": 0, "built": 0}

    def spy(windows, asn_of, before=None):
        snapshot = merge.merged_snapshot(windows, asn_of, before)
        if snapshot is not None:
            counts["kept" if snapshot.before is before else "built"] += 1
            if stores is not None:
                stores.append((snapshot.before.pairs(), snapshot.before))
        return snapshot

    monkeypatch.setattr(engine_module, "merged_snapshot", spy)
    return counts


def outputs(result):
    """Everything a run reports but its wall-clock timings."""
    return (
        result.reports,
        result.episodes,
        result.events_total,
        result.engine_counters,
        result.ingest_counters,
        result.window_counters,
        result.detector_counters,
        result.latencies,
        result.shard_stats,
        result.supervision,
    )


REPLAYS = {
    # Anonymous hops, truncations and reach flips, every family.
    "faulty": (
        dict(seed=3, n_sensors=6, algorithms=(
            "tomo", "nd-edge", "nd-bgpigp", "ensemble", "empathy", "scfs",
        )),
        ReplayConfig(kind="link-1", episodes=3, incident_rounds=2,
                     recovery_rounds=3, fault_rate=0.2, seed=3),
        dict(shards=2),
    ),
    # Seeded shard crashes, stalls and slow shards.
    "chaos": (
        dict(seed=7, n_sensors=6, algorithms=("nd-bgpigp", "ensemble")),
        ReplayConfig(kind="link-1", episodes=2, incident_rounds=2,
                     recovery_rounds=2, seed=7, chaos_rate=0.15),
        dict(),
    ),
    # Corrupted records screened out under quarantine.
    "corrupt": (
        dict(seed=6, n_sensors=6, algorithms=("nd-edge", "ensemble")),
        ReplayConfig(kind="link-2", episodes=3, incident_rounds=3,
                     recovery_rounds=2, fault_rate=0.1, corrupt=True,
                     seed=6),
        dict(shards=3),
    ),
}


@pytest.mark.parametrize("name", sorted(REPLAYS))
def test_kept_stores_replay_like_fresh_ones(name, monkeypatch):
    setup_args, config, layout = REPLAYS[name]
    with monkeypatch.context() as patch:
        counts = count_reuse(patch)
        kept = run_stream_replay(make_replay_setup(**setup_args), config,
                                 **layout)
    assert counts["kept"] > 0 and counts["built"] > 0, counts
    with monkeypatch.context() as patch:
        fresh_stores(patch)
        fresh = run_stream_replay(make_replay_setup(**setup_args), config,
                                  **layout)
    assert outputs(kept) == outputs(fresh)


def rebaselined(log):
    """The log with every odd episode's T- round re-probed with the
    first hop after the source hidden: the even episodes' pairs, other
    paths (interned per content, as a log's are)."""
    spans = [
        (episode.baseline_tick, episode.first_incident_tick)
        for index, episode in enumerate(log.episodes)
        if index % 2
    ]
    interned = {}
    events = []
    for event in log.events:
        path = getattr(event, "path", None)
        if (
            path is not None
            and path.epoch == EPOCH_PRE
            and len(path.hops) > 2
            and any(start <= event.tick < end for start, end in spans)
        ):
            star = UhNode(src=path.src, dst=path.dst, epoch=EPOCH_PRE, index=1)
            hidden = replace(path, hops=(path.src, star) + path.hops[2:])
            event = replace(event, path=interned.setdefault(hidden, hidden))
        events.append(event)
    return replace(log, events=events)


def test_replaced_baselines_over_the_same_pairs_replay_like_fresh_ones(
    monkeypatch,
):
    """Episodes alternate between two T- rounds over one pair set: each
    switch must build a fresh store, each repeat within an episode keep
    it, and the reports and counters equal those of fresh stores."""
    setup = make_replay_setup(seed=4, n_sensors=6, algorithms=(
        "tomo", "nd-edge", "nd-bgpigp", "ensemble", "empathy", "scfs",
    ))
    config = ReplayConfig(kind="link-1", episodes=4, incident_rounds=3,
                          recovery_rounds=1, seed=4)
    log = rebaselined(replay.build_event_log(setup, config))

    def replayed():
        engine = replay.build_engine(
            dict(asn_of=setup.session.sim.mapper.asn_of,
                 diagnosers=setup.diagnosers, asx=setup.asx),
            shards=2,
        )
        reports = replay.run_replay(log, engine)
        return (
            reports,
            engine.counters(),
            engine.ingest_counters(),
            engine.window_counters(),
            engine.detector_counters(),
        )

    stores = []
    with monkeypatch.context() as patch:
        counts = count_reuse(patch, stores)
        kept = replayed()
    assert counts["kept"] > 0, counts
    switches = sum(
        1 for previous, current in zip(stores, stores[1:])
        if current[0] == previous[0] and current[1] is not previous[1]
    )
    assert switches >= 3, stores
    with monkeypatch.context() as patch:
        fresh_stores(patch)
        fresh = replayed()
    assert kept == fresh


TENANTS = tuple(TenantConfig(f"tenant-{i}") for i in range(3))


def test_the_benchmark_placement_builds_its_t_minus_graph_once(monkeypatch):
    """The benchmark's seed-1 ``stream-incident`` placement 0
    (``perfbench/workloads.py``: 20 sensors on the 165-AS research
    internet, 7 link-1 episodes of 2 incident and 28 recovery rounds,
    a supervised 2-shard engine with three tenants): its 7 snapshots
    share one T- round, so each pass builds one store and one physical
    graph."""
    topo = research_internet(n_tier2=22, n_stub=140, seed=100)
    rng = random.Random("1/stream-incident/0")
    session = make_session(topo, random_stub_placement(topo, 20, rng), rng)
    setup = replay.ReplaySetup(
        session=session,
        asx=topo.core_asns[0],
        blocked_ases=frozenset(),
        lg_service=None,
        diagnosers=make_diagnosers(("nd-bgpigp", "ensemble")),
    )
    log = replay.build_event_log(
        setup,
        ReplayConfig(kind="link-1", episodes=7, incident_rounds=2,
                     recovery_rounds=28, fault_rate=0.0, seed=1),
    )
    builds = []
    original = InferredGraph.__dict__["from_paths"].__func__

    def counted(cls, paths):
        builds.append(1)
        return original(cls, paths)

    monkeypatch.setattr(InferredGraph, "from_paths", classmethod(counted))
    counts = count_reuse(monkeypatch)
    for _pass in range(2):
        engine = replay.build_engine(
            dict(asn_of=session.sim.mapper.asn_of,
                 diagnosers=setup.diagnosers, asx=setup.asx),
            shards=2,
            supervise=True,
            tenants=TENANTS,
            tenant_of=source_tenant_of(TENANTS),
        )
        builds.clear()
        counts.update(kept=0, built=0)
        reports = replay.run_replay(log, engine)
        diagnosed = [r for r in reports if r.diagnoses]
        assert len(diagnosed) == 7
        assert counts == {"kept": 6, "built": 1}
        assert len(builds) == 1
