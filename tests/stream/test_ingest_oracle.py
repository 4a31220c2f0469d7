"""Differential tests for the stream's screening fast path.

The ingestor checks each distinct path content once and memoises the
verdict; :class:`~tests.stream.ingest_oracle.ReferenceIngestor` checks
every event afresh.  On generated event sequences the two must agree
event by event — return values and raised errors — and on every counter
and the whole ledger.  A replay differential holds an event log with
interned paths to the same outcome as one whose every event carries its
own copy.  A parity test holds the stream's screen of one path to the
batch's screen of a one-path round.
"""

import copy
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_plane import WithdrawalObservation
from repro.core.linkspace import UhNode
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, PathStore, ProbePath
from repro.diagnosers import make_diagnosers
from repro.errors import ValidationError
from repro.experiments.runner import make_session
from repro.measurement.sensors import random_stub_placement
from repro.netsim.gen.internet import research_internet
from repro.stream import (
    IgpLinkDownEvent,
    ProbeEvent,
    ReplayConfig,
    ReplayLog,
    ReplaySetup,
    StreamIngestor,
    WithdrawalEvent,
    build_event_log,
    load_event_log,
    make_replay_setup,
    run_replay,
    save_event_log,
)
from repro.stream.replay import build_engine
from repro.validate import POLICIES, Validator

from tests.stream.ingest_oracle import ReferenceIngestor

SENSORS = ("10.0.0.1", "10.0.9.9", "10.0.5.5")
PAIRS = tuple((a, b) for a in SENSORS for b in SENSORS if a != b)
#: Resolvable mid-path routers plus two off-topology (forged) addresses.
HOP_POOL = ("10.0.1.1", "10.0.2.2", "10.0.3.3", "203.0.113.7", "203.0.113.8")
STAR = None
#: Both stream epochs plus a stale tag outside them.
EPOCHS = (EPOCH_PRE, EPOCH_POST, "stale")


def asn_of(address):
    return 64500 if address.startswith("10.") else None


@st.composite
def routes(draw):
    """A hop template: forged, duplicated and looped hops, and stars."""
    src, dst = draw(st.sampled_from(PAIRS))
    mids = draw(
        st.lists(
            st.one_of(
                st.sampled_from(HOP_POOL),
                st.just(STAR),
                st.sampled_from((src, dst)),
            ),
            max_size=6,
        )
    )
    return src, dst, tuple(mids), draw(st.booleans())


def make_path(route, epoch, claims_reached):
    """A fresh path object for a template, an epoch and a reach bit.

    ``claims_reached`` only holds when the trace ends at the destination
    (ProbePath's own constructor invariant); a trace that ends there but
    claims not to have reached is the reach-bit lie.
    """
    src, dst, mids, ends_at_dst = route
    hops = [src]
    for mid in mids:
        hops.append(UhNode(src, dst, epoch, len(hops)) if mid is STAR else mid)
    if ends_at_dst:
        hops.append(dst)
    return ProbePath(
        src=src,
        dst=dst,
        hops=tuple(hops),
        reached=ends_at_dst and claims_reached,
        epoch=epoch,
    )


@st.composite
def event_streams(draw):
    """Probe events over a few path contents, each repeated both as the
    same object and as an equal but distinct one, with feed messages
    (duplicates and backwards sequence numbers included) in between."""
    templates = draw(st.lists(routes(), min_size=1, max_size=3))
    contents = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(templates) - 1),
                st.sampled_from(EPOCHS),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    shared = [make_path(templates[t], epoch, bit) for t, epoch, bit in contents]
    picks = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("probe"),
                    st.integers(0, len(contents) - 1),
                    st.booleans(),
                ),
                st.tuples(
                    st.just("feed"),
                    st.sampled_from(("10.0.9.0/24", "10.0.5.0/24")),
                    st.integers(0, 4),
                ),
            ),
            min_size=1,
            max_size=30,
        )
    )
    events = []
    for seq, pick in enumerate(picks):
        tick = seq // 4
        if pick[0] == "probe":
            _kind, index, fresh = pick
            t, epoch, bit = contents[index]
            path = make_path(templates[t], epoch, bit) if fresh else shared[index]
            events.append(ProbeEvent(tick=tick, seq=seq, path=path))
        else:
            _kind, prefix, feed_seq = pick
            observation = WithdrawalObservation(
                prefix=prefix,
                at_address="10.0.1.1",
                from_address="10.0.2.2",
                from_asn=64501,
                seq=feed_seq,
            )
            events.append(WithdrawalEvent(tick=tick, seq=seq, observation=observation))
    return events


def screen_all(screen, events):
    """Each event's outcome: the admitted event (or ``None``), or the
    fields of the ValidationError it raised."""
    outcomes = []
    for event in events:
        try:
            outcomes.append(("ok", screen.ingest(event)))
        except ValidationError as error:
            outcomes.append(("raised", error.invariant, error.record, error.detail))
    return outcomes


def ingestor(cls, policy):
    return cls(asn_of, policy, expected_epochs=(EPOCH_PRE, EPOCH_POST))


class TestMemoisedScreeningMatchesReference:
    @given(events=event_streams(), policy=st.sampled_from(POLICIES))
    @settings(max_examples=200, deadline=None)
    def test_same_outcomes_counters_and_reports(self, events, policy):
        fast = ingestor(StreamIngestor, policy)
        slow = ingestor(ReferenceIngestor, policy)
        assert screen_all(fast, events) == screen_all(slow, events)
        assert fast.counters() == slow.counters()
        assert fast.validator.degradation == slow.validator.degradation

    def test_each_distinct_content_is_checked_once(self):
        route = ("10.0.0.1", "10.0.9.9", ("10.0.1.1", "203.0.113.7"), True)
        events = [
            ProbeEvent(tick=0, seq=seq, path=make_path(route, EPOCH_POST, True))
            for seq in range(5)
        ]
        screen = ingestor(StreamIngestor, "quarantine")
        assert screen_all(screen, events) == [("ok", None)] * 5
        assert len(screen._verdicts) == 1
        assert screen.counters()["events_quarantined"] == 5
        assert screen.validator.degradation.traces_quarantined == 5


def outcome(screen):
    """``screen()``'s surviving paths, or the fields of its ValidationError."""
    try:
        return ("ok", screen())
    except ValidationError as error:
        return ("raised", error.invariant, error.record, error.detail)


class TestStreamScreenMatchesBatch:
    @given(
        route=routes(),
        epoch=st.sampled_from((EPOCH_PRE, EPOCH_POST)),
        claims_reached=st.booleans(),
        policy=st.sampled_from(POLICIES),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_path_is_kept_repaired_dropped_or_raised_alike(
        self, route, epoch, claims_reached, policy
    ):
        path = make_path(route, epoch, claims_reached)
        store = PathStore()
        store.add(path)
        batch = Validator(policy)
        stream = ingestor(StreamIngestor, policy)

        def batch_screen():
            return list(batch.screen_store(store, asn_of, epoch).paths())

        def stream_screen():
            admitted = stream.ingest(ProbeEvent(tick=0, seq=0, path=path))
            return [] if admitted is None else [admitted.path]

        assert outcome(batch_screen) == outcome(stream_screen)
        assert batch.degradation == stream.validator.degradation


SETUP_ARGS = dict(seed=5, n_sensors=6)


def _replay(log, setup, policy):
    engine = build_engine(
        dict(
            asn_of=setup.session.sim.mapper.asn_of,
            diagnosers=setup.diagnosers,
            asx=setup.asx,
            policy=policy,
        ),
        shards=2,
    )
    reports = run_replay(log, engine)
    return (
        reports,
        engine.counters(),
        engine.ingest_counters(),
        engine.window_counters(),
        engine.detector_counters(),
        [shard.ingestor.validator.degradation for shard in engine.shards],
        engine.control_ingestor.validator.degradation,
    )


class TestLedgerCountsEachViolation:
    def test_corrupted_two_shard_replay(self):
        setup = make_replay_setup(seed=7, n_sensors=6)
        log = build_event_log(
            setup,
            ReplayConfig(
                kind="link-1", episodes=2, fault_rate=0.2, corrupt=True, seed=7
            ),
        )
        _reports, _counters, ingest, *_rest, shard_ledgers, control_ledger = (
            _replay(log, setup, "quarantine")
        )
        # 207: the summed length of the per-ingestor violation lists the
        # ledger replaced.
        ledgers = [*shard_ledgers, control_ledger]
        assert sum(ledger.invariant_violations for ledger in ledgers) == 207
        assert ingest == {
            "events_screened": 308,
            "events_quarantined": 155,
            "events_repaired": 0,
        }


def _copied(log):
    """The same log with every probe event carrying its own path copy."""
    events = [
        ProbeEvent(tick=e.tick, seq=e.seq, path=copy.deepcopy(e.path))
        if isinstance(e, ProbeEvent)
        else e
        for e in log.events
    ]
    return ReplayLog(events, log.episodes, log.last_tick, dict(log.lg_bindings))


def _paths(events):
    return [e.path for e in events if isinstance(e, ProbeEvent)]


class TestInternedReplayMatchesCopied:
    def test_build_event_log_shares_one_path_per_content(self):
        log = build_event_log(
            make_replay_setup(**SETUP_ARGS), ReplayConfig(episodes=2, seed=5)
        )
        paths = _paths(log.events)
        assert len({id(p) for p in paths}) == len(set(paths)) < len(paths)

    def test_load_event_log_shares_one_path_per_content(self, tmp_path):
        log = build_event_log(
            make_replay_setup(**SETUP_ARGS), ReplayConfig(episodes=2, seed=5)
        )
        save_event_log(log.events, tmp_path / "log.jsonl")
        loaded = load_event_log(tmp_path / "log.jsonl")
        assert loaded == log.events
        paths = _paths(loaded)
        assert len({id(p) for p in paths}) == len(set(paths)) < len(paths)

    def test_interned_and_copied_logs_replay_identically(self):
        config = ReplayConfig(
            episodes=3,
            incident_rounds=2,
            recovery_rounds=2,
            fault_rate=0.2,
            corrupt=True,
            seed=5,
        )
        setup = make_replay_setup(**SETUP_ARGS)
        log = build_event_log(setup, config)
        copied = _copied(log)
        assert len({id(p) for p in _paths(copied.events)}) == len(_paths(log.events))
        for policy in ("repair", "quarantine"):
            interned_run = _replay(log, setup, policy)
            copied_run = _replay(copied, setup, policy)
            assert interned_run == copied_run
            # The corrupted log exercises the screen, not only its clean path.
            ingest = interned_run[2]
            assert ingest["events_quarantined"] + ingest["events_repaired"] > 0


def _paper_placement_setup():
    """Placement 0 of the seed-1 ``stream-incident`` benchmark workload."""
    topo = research_internet(n_tier2=22, n_stub=140, seed=100)
    rng = random.Random("1/stream-incident/0")
    session = make_session(topo, random_stub_placement(topo, 20, rng), rng)
    return ReplaySetup(
        session=session,
        asx=topo.core_asns[0],
        blocked_ases=frozenset(),
        lg_service=None,
        diagnosers=make_diagnosers(("nd-bgpigp",)),
    )


class TestFeedSequenceAcrossEpisodes:
    """Each episode's control-plane collection numbers its messages from
    0; the log continues each feed kind's numbering, so the stream's
    run-long dedup and order screening keeps every genuine message."""

    CONFIG = ReplayConfig(
        kind="link-1",
        episodes=7,
        incident_rounds=1,
        recovery_rounds=1,
        fault_rate=0,
        seed=1,
    )

    def test_fault_free_feed_seqs_rise_strictly_per_kind(self):
        log = build_event_log(_paper_placement_setup(), self.CONFIG)
        for cls in (WithdrawalEvent, IgpLinkDownEvent):
            seqs = [e.observation.seq for e in log.events if isinstance(e, cls)]
            assert all(a < b for a, b in zip(seqs, seqs[1:])), (cls, seqs)
        withdrawal_ticks = {
            e.tick for e in log.events if isinstance(e, WithdrawalEvent)
        }
        assert len(withdrawal_ticks) > 1  # the feed spans several episodes

    def test_no_genuine_feed_message_is_quarantined(self):
        # Episode 5 repeats episode 3's failure and episode 6 follows a
        # longer collection: numbered per collection, six withdrawals
        # were quarantined as duplicates or backwards sequences.
        setup = _paper_placement_setup()
        log = build_event_log(setup, self.CONFIG)
        _reports, _counters, ingest, *_rest, shard_reports, control_report = (
            _replay(log, setup, "quarantine")
        )
        assert control_report.feed_messages_quarantined == 0
        assert all(r.feed_messages_quarantined == 0 for r in shard_reports)
        assert ingest["events_quarantined"] == 0
