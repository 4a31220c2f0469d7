"""Differential test: every engine layout tells the same story.

Hypothesis generates topology-free event sequences — probes and
reachability bits for sensor pairs spread over four destination ASes,
BGP withdrawals and IGP link-downs that age out of a narrow window,
sensor dropouts and heartbeats — and replays each through the engine
with 1 to 4 shards and through a supervised 2-shard engine without
chaos, all diagnosing with ``nd-bgpigp``.  Every layout must emit the
same reports and the same ingest, window and detector counters as the
serial ``shards=1`` engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_plane import IgpLinkDownObservation, WithdrawalObservation
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, ProbePath
from repro.diagnosers import make_diagnosers
from repro.stream import (
    IgpLinkDownEvent,
    ProbeEvent,
    ReachabilityEvent,
    ReplayLog,
    SensorDropoutEvent,
    SensorHeartbeatEvent,
    StreamEngine,
    SupervisionConfig,
    WithdrawalEvent,
    run_replay,
)

ASX = 64500
# Sensors in four destination ASes (the second octet is the AS offset).
SENSORS = (
    "10.1.0.1", "10.1.0.2", "10.2.0.1", "10.3.0.1", "10.3.0.2", "10.4.0.1",
)
CORE = ("10.0.1.1", "10.0.1.2", "10.0.1.3")


def asn_of(address):
    octets = address.split(".")
    if octets[0] != "10":
        return None
    return ASX + int(octets[1])


def _as_index(address):
    return int(address.split(".")[1])


def hops_for(src, dst, variant):
    """A loop-free route src -> border -> AS-X core -> border -> dst."""
    route = [
        src,
        f"10.{_as_index(src)}.1.1",
        CORE[variant],
        CORE[2],
        f"10.{_as_index(dst)}.1.{1 + variant}",
        dst,
    ]
    hops = []
    for hop in route:
        if hop not in hops:
            hops.append(hop)
    return tuple(hops)


pair_indices = st.tuples(
    st.integers(0, len(SENSORS) - 1), st.integers(0, len(SENSORS) - 1)
).filter(lambda pair: pair[0] != pair[1])

event_specs = st.one_of(
    st.tuples(
        st.just("probe"),
        pair_indices,
        st.sampled_from((EPOCH_PRE, EPOCH_POST)),
        st.booleans(),  # reached
        st.integers(0, 1),  # route variant
        st.integers(1, 4),  # cut point of a failed probe
    ),
    st.tuples(st.just("reach"), pair_indices, st.booleans()),
    st.tuples(st.just("withdraw"), st.integers(1, 4), st.integers(0, 12)),
    st.tuples(st.just("igp"), st.integers(1, 2), st.integers(0, 12)),
    st.tuples(st.just("dropout"), st.integers(0, len(SENSORS) - 1)),
    st.tuples(st.just("heartbeat"), st.integers(0, len(SENSORS) - 1)),
)


@st.composite
def event_logs(draw):
    """Probe rounds over a drawn set of pairs (baseline refreshes, then
    post-epoch probes failing towards drawn destination ASes) with
    arbitrary extra events mixed in."""
    pairs = draw(st.lists(pair_indices, min_size=1, max_size=10, unique=True))
    n_ticks = draw(st.integers(1, 8))
    events = []

    def emit(cls, tick, **fields):
        events.append(cls(tick=tick, seq=len(events), **fields))

    def emit_probe(tick, i, j, epoch, reached, variant, cut=4):
        src, dst = SENSORS[i], SENSORS[j]
        hops = hops_for(src, dst, variant)
        if not reached:
            hops = hops[: min(cut, len(hops) - 1)]
        path = ProbePath(src=src, dst=dst, hops=hops, reached=reached, epoch=epoch)
        emit(ProbeEvent, tick, path=path)

    for address in SENSORS:
        emit(SensorHeartbeatEvent, 0, address=address)
    for tick in range(n_ticks):
        if tick == 0 or draw(st.booleans()):
            for i, j in pairs:
                emit_probe(tick, i, j, EPOCH_PRE, True, 0)
        failing = draw(st.sets(st.integers(1, 4), max_size=2))
        variant = draw(st.integers(0, 1))
        for i, j in pairs:
            reached = _as_index(SENSORS[j]) not in failing
            emit_probe(tick, i, j, EPOCH_POST, reached, variant)
        for spec in draw(st.lists(event_specs, max_size=6)):
            kind = spec[0]
            if kind == "probe":
                _kind, (i, j), epoch, reached, variant, cut = spec
                emit_probe(tick, i, j, epoch, reached, variant, cut)
            elif kind == "reach":
                _kind, (i, j), reached = spec
                emit(
                    ReachabilityEvent,
                    tick,
                    src=SENSORS[i],
                    dst=SENSORS[j],
                    reached=reached,
                )
            elif kind == "withdraw":
                _kind, k, feed_seq = spec
                emit(
                    WithdrawalEvent,
                    tick,
                    observation=WithdrawalObservation(
                        prefix=f"10.{k}.0.0/16",
                        at_address=CORE[2],
                        from_address=f"10.{k}.1.1",
                        from_asn=ASX + k,
                        seq=feed_seq,
                    ),
                )
            elif kind == "igp":
                _kind, b, feed_seq = spec
                emit(
                    IgpLinkDownEvent,
                    tick,
                    observation=IgpLinkDownObservation(
                        address_a=CORE[0], address_b=CORE[b], seq=feed_seq
                    ),
                )
            elif kind == "dropout":
                emit(SensorDropoutEvent, tick, address=SENSORS[spec[1]])
            else:
                emit(SensorHeartbeatEvent, tick, address=SENSORS[spec[1]])
    knobs = dict(
        window_width=draw(st.integers(1, 3)),
        open_after=draw(st.integers(1, 2)),
        close_after=draw(st.integers(1, 2)),
    )
    return ReplayLog(events=events, episodes=[], last_tick=n_ticks - 1), knobs


LAYOUTS = [dict(shards=shards) for shards in (1, 2, 3, 4)] + [
    dict(shards=2, supervision=SupervisionConfig())
]


def outcome(log, knobs, layout):
    engine = StreamEngine(
        asn_of=asn_of,
        diagnosers=make_diagnosers(("nd-bgpigp",)),
        asx=ASX,
        **knobs,
        **layout,
    )
    reports = run_replay(log, engine)
    return (
        reports,
        engine.ingest_counters(),
        engine.window_counters(),
        engine.detector_counters(),
    )


def assert_layouts_agree(log, knobs):
    serial = outcome(log, knobs, LAYOUTS[0])
    for layout in LAYOUTS[1:]:
        assert outcome(log, knobs, layout) == serial, layout


@given(case=event_logs())
@settings(max_examples=60, deadline=None)
def test_every_layout_matches_serial(case):
    assert_layouts_agree(*case)


@pytest.mark.slow
@given(case=event_logs())
@settings(max_examples=400, deadline=None)
def test_every_layout_matches_serial_large_budget(case):
    assert_layouts_agree(*case)
