"""Per-event screening tests: the stream front door applies the same
three validation policies as the batch screen, one record at a time."""

import pytest

from repro.core.control_plane import (
    IgpLinkDownObservation,
    WithdrawalObservation,
)
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, ProbePath
from repro.errors import StreamError, ValidationError
from repro.stream import (
    IgpLinkDownEvent,
    ProbeEvent,
    ReachabilityEvent,
    SensorHeartbeatEvent,
    StreamIngestor,
    WithdrawalEvent,
)
from repro.validate import QUARANTINE, REPAIR, STRICT

SRC, MID, DST = "10.0.0.1", "10.0.1.1", "10.0.9.9"
FORGED = "203.0.113.7"


def asn_of(address):
    return 64500 if address.startswith("10.") else None


def probe_event(hops, reached=None, epoch=EPOCH_POST, seq=0):
    if reached is None:
        reached = hops[-1] == DST
    return ProbeEvent(
        tick=1,
        seq=seq,
        path=ProbePath(
            src=SRC, dst=DST, hops=tuple(hops), reached=reached, epoch=epoch
        ),
    )


def ingestor(policy):
    return StreamIngestor(
        asn_of, policy, expected_epochs=(EPOCH_PRE, EPOCH_POST)
    )


def withdrawal_event(seq, feed_seq, prefix="10.0.9.0/24"):
    return WithdrawalEvent(
        tick=1,
        seq=seq,
        observation=WithdrawalObservation(
            prefix=prefix,
            at_address=MID,
            from_address=DST,
            from_asn=64501,
            seq=feed_seq,
        ),
    )


class TestPolicies:
    def test_unknown_policy_raises(self):
        with pytest.raises(StreamError):
            ingestor("lenient")

    def test_clean_probe_passes_either_epoch(self):
        screen = ingestor(QUARANTINE)
        for epoch in (EPOCH_PRE, EPOCH_POST):
            event = probe_event([SRC, MID, DST], epoch=epoch)
            assert screen.ingest(event) is event
        assert screen.counters() == {
            "events_screened": 2,
            "events_quarantined": 0,
            "events_repaired": 0,
        }

    def test_structureless_events_always_pass(self):
        screen = ingestor(STRICT)
        heartbeat = SensorHeartbeatEvent(tick=0, seq=0, address=SRC)
        reach = ReachabilityEvent(tick=0, seq=1, src=SRC, dst=DST, reached=False)
        assert screen.ingest(heartbeat) is heartbeat
        assert screen.ingest(reach) is reach

    def test_quarantine_drops_forged_probe(self):
        screen = ingestor(QUARANTINE)
        assert screen.ingest(probe_event([SRC, FORGED, DST])) is None
        assert screen.counters()["events_quarantined"] == 1
        assert screen.validator.degradation.traces_quarantined == 1

    def test_repair_fixes_forged_probe(self):
        screen = ingestor(REPAIR)
        admitted = screen.ingest(probe_event([SRC, FORGED, DST]))
        assert admitted is not None
        assert FORGED not in admitted.path.hops
        assert screen.counters()["events_repaired"] == 1
        assert screen.validator.degradation.traces_repaired == 1

    def test_strict_raises_on_forged_probe(self):
        screen = ingestor(STRICT)
        with pytest.raises(ValidationError):
            screen.ingest(probe_event([SRC, FORGED, DST]))

    def test_stale_epoch_is_always_quarantined(self):
        # A stale replay is not repairable: even under repair it drops.
        screen = ingestor(REPAIR)
        assert screen.ingest(probe_event([SRC, MID, DST], epoch="ancient")) is None
        assert screen.counters()["events_quarantined"] == 1
        assert screen.validator.degradation.stale_rounds_dropped == 1


class TestFeedScreening:
    def test_clean_feed_passes_and_tracks_seq(self):
        screen = ingestor(QUARANTINE)
        first = withdrawal_event(seq=0, feed_seq=0)
        second = withdrawal_event(seq=1, feed_seq=1, prefix="10.0.8.0/24")
        assert screen.ingest(first) is first
        assert screen.ingest(second) is second
        assert screen.counters()["events_quarantined"] == 0

    def test_duplicate_message_is_quarantined(self):
        screen = ingestor(QUARANTINE)
        assert screen.ingest(withdrawal_event(seq=0, feed_seq=0)) is not None
        assert screen.ingest(withdrawal_event(seq=1, feed_seq=0)) is None
        assert screen.validator.degradation.feed_messages_quarantined == 1

    def test_backwards_sequence_is_quarantined(self):
        screen = ingestor(QUARANTINE)
        assert screen.ingest(withdrawal_event(seq=0, feed_seq=5)) is not None
        assert (
            screen.ingest(withdrawal_event(seq=1, feed_seq=3, prefix="10.0.8.0/24"))
            is None
        )

    def test_repair_degrades_to_quarantine_for_feeds(self):
        # A stream cannot re-sort history; dropping the offender is the
        # canonical incremental fixup.
        screen = ingestor(REPAIR)
        assert screen.ingest(withdrawal_event(seq=0, feed_seq=0)) is not None
        assert screen.ingest(withdrawal_event(seq=1, feed_seq=0)) is None
        assert screen.counters()["events_repaired"] == 0
        assert screen.counters()["events_quarantined"] == 1

    def test_strict_raises_on_duplicate(self):
        screen = ingestor(STRICT)
        screen.ingest(withdrawal_event(seq=0, feed_seq=0))
        with pytest.raises(ValidationError):
            screen.ingest(withdrawal_event(seq=1, feed_seq=0))

    def test_feed_kinds_screen_independently(self):
        screen = ingestor(QUARANTINE)
        bgp = withdrawal_event(seq=0, feed_seq=4)
        igp = IgpLinkDownEvent(
            tick=1,
            seq=1,
            observation=IgpLinkDownObservation(
                address_a=MID, address_b=DST, seq=0
            ),
        )
        assert screen.ingest(bgp) is bgp
        # IGP seq 0 < BGP seq 4: no cross-feed ordering violation.
        assert screen.ingest(igp) is igp
        assert screen.counters()["events_quarantined"] == 0
