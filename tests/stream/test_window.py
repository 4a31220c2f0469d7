"""Sliding-window tests: slot semantics, tick eviction, dark sensors, and snapshot assembly (``merged_snapshot`` /
``merged_control_view`` over one window) that satisfies the batch
invariants by construction."""

import pytest

from repro.core.control_plane import (
    IgpLinkDownObservation,
    WithdrawalObservation,
)
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, ProbePath
from repro.errors import StreamError
from repro.stream import (
    IgpLinkDownEvent,
    ProbeEvent,
    SensorDropoutEvent,
    SensorHeartbeatEvent,
    SlidingWindow,
    WithdrawalEvent,
    merged_control_view,
    merged_snapshot,
)

A, B, C = "10.0.0.1", "10.0.0.2", "10.0.0.3"
MID = "10.0.1.1"


def asn_of(address):
    return 64500 if address.startswith("10.") else None


def probe(src, dst, epoch, reached=True, tick=0, seq=0):
    hops = (src, MID, dst) if reached else (src, MID)
    return ProbeEvent(
        tick=tick,
        seq=seq,
        path=ProbePath(src=src, dst=dst, hops=hops, reached=reached, epoch=epoch),
    )


def seed_pair(window, src=A, dst=B, tick=0, post_reached=False):
    window.observe(probe(src, dst, EPOCH_PRE, tick=tick))
    window.observe(probe(src, dst, EPOCH_POST, reached=post_reached, tick=tick))


class TestSlots:
    def test_zero_width_raises(self):
        with pytest.raises(StreamError):
            SlidingWindow(width=0)

    def test_failed_pre_probe_is_no_baseline(self):
        window = SlidingWindow(width=4)
        window.observe(probe(A, B, EPOCH_PRE, reached=False))
        assert window.counters()["baseline_pairs"] == 0
        assert window.counters()["probes_ignored"] == 1

    def test_snapshot_requires_both_slots(self):
        window = SlidingWindow(width=4)
        window.observe(probe(A, B, EPOCH_PRE))
        assert merged_snapshot([window], asn_of) is None
        window.observe(probe(A, B, EPOCH_POST, reached=False))
        snapshot = merged_snapshot([window], asn_of)
        assert snapshot is not None
        assert snapshot.after.pairs() == ((A, B),)
        assert snapshot.any_failure()

    def test_newest_probe_wins_a_slot(self):
        window = SlidingWindow(width=4)
        seed_pair(window, post_reached=False)
        window.observe(probe(A, B, EPOCH_POST, reached=True, tick=1))
        assert window.failed_pairs() == ()


class TestEviction:
    def test_observations_age_out_by_tick(self):
        window = SlidingWindow(width=2)
        seed_pair(window, tick=0)
        # horizon = now - width = 0: both tick-0 slots are stale.
        assert window.evict(now=2) == 2
        assert merged_snapshot([window], asn_of) is None
        assert window.counters()["stale_evictions"] == 2

    def test_fresh_observations_survive(self):
        window = SlidingWindow(width=4)
        seed_pair(window, tick=3)
        window.evict(now=5)
        assert merged_snapshot([window], asn_of) is not None

    def test_control_plane_messages_age_out(self):
        window = SlidingWindow(width=2)
        window.observe(
            IgpLinkDownEvent(
                tick=0,
                seq=0,
                observation=IgpLinkDownObservation(
                    address_a=A, address_b=MID, seq=0
                ),
            )
        )
        window.evict(now=3)
        assert merged_control_view([window], 64500).igp_link_down == ()


class TestDarkSensors:
    def test_dark_endpoint_excludes_pair(self):
        window = SlidingWindow(width=4)
        seed_pair(window, A, B)
        window.observe(SensorDropoutEvent(tick=1, seq=9, address=B))
        assert merged_snapshot([window], asn_of) is None
        assert window.dark_sensors() == (B,)

    def test_heartbeat_restores_pair(self):
        window = SlidingWindow(width=4)
        seed_pair(window, A, B)
        window.observe(SensorDropoutEvent(tick=1, seq=9, address=B))
        window.observe(SensorHeartbeatEvent(tick=2, seq=10, address=B))
        assert merged_snapshot([window], asn_of) is not None
        assert window.dark_sensors() == ()


class TestControlView:
    def test_messages_listed_in_arrival_order(self):
        window = SlidingWindow(width=4)
        early = WithdrawalObservation(
            prefix="10.0.9.0/24",
            at_address=A,
            from_address=MID,
            from_asn=64501,
            seq=0,
        )
        late = WithdrawalObservation(
            prefix="10.0.8.0/24",
            at_address=A,
            from_address=MID,
            from_asn=64501,
            seq=1,
        )
        # Folded out of order: the view restores stream-arrival order
        # (the event seq), matching what the batch collector would list.
        window.observe(WithdrawalEvent(tick=0, seq=6, observation=late))
        window.observe(WithdrawalEvent(tick=0, seq=5, observation=early))
        view = merged_control_view([window], 64500)
        assert view.withdrawals == (early, late)
        assert view.asx_asn == 64500


class _CountingSlot(dict):
    """A probe slot that counts its keyed lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def counting_slots(window):
    """Swap the window's probe slots for counting copies."""
    window._baseline = _CountingSlot(window._baseline)
    window._current = _CountingSlot(window._current)
    return window._baseline, window._current


class TestCacheAccountingThroughWindow:
    """The window spends slot lookups only where it must: eviction
    sweeps and dark-sensor screening are lookup-free, snapshot assembly
    spends one lookup per slot per usable pair."""

    def test_eviction_sweep_is_lookup_free(self):
        window = SlidingWindow(width=2)
        seed_pair(window, A, B, tick=0)
        seed_pair(window, A, C, tick=0)
        slots = counting_slots(window)
        dropped = window.evict(10)  # everything is stale
        assert dropped == 4
        assert [len(slot) for slot in slots] == [0, 0]
        # An empty window snapshots to None without spending lookups.
        assert merged_snapshot([window], asn_of) is None
        assert [slot.lookups for slot in slots] == [0, 0]

    def test_snapshot_spends_exactly_one_lookup_per_slot(self):
        window = SlidingWindow(width=4)
        seed_pair(window, A, B, tick=0)
        seed_pair(window, B, C, tick=0)
        slots = counting_slots(window)
        assert merged_snapshot([window], asn_of) is not None
        # Two usable pairs: two lookups in each slot.
        assert [slot.lookups for slot in slots] == [2, 2]

    def test_dark_sensor_forgetting_screens_without_lookups(self):
        """Dropping and re-admitting a sensor flows through the dark set
        and membership checks — usable-pair screening spends no slot
        lookups."""
        window = SlidingWindow(width=4)
        seed_pair(window, A, B, tick=0)
        seed_pair(window, B, C, tick=0)
        baseline, current = counting_slots(window)
        window.observe(SensorDropoutEvent(tick=1, seq=100, address=A))
        assert window.usable_pairs() == ((B, C),)
        assert (baseline.lookups, current.lookups) == (0, 0)
        snapshot = merged_snapshot([window], asn_of)
        assert snapshot.after.pairs() == ((B, C),)
        assert baseline.lookups == 1  # only the usable pair
        window.observe(SensorHeartbeatEvent(tick=2, seq=101, address=A))
        assert window.usable_pairs() == ((A, B), (B, C))
        assert baseline.lookups == 1  # screening stayed lookup-free
        assert window.counters()["dark_sensors"] == 0
