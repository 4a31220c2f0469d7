"""Episode-detection tests: debounce keeps blips from opening episodes,
hysteresis keeps half-recovered pairs from flapping them, and the
open/update/close lifecycle tracks the alarmed set.

Detection is two pieces the engine wires together each tick: the
per-pair :class:`PairAlarmTracker` and the global
:class:`EpisodeLifecycle` fed the tracker's alarmed set."""

import pytest

from repro.errors import StreamError
from repro.stream import (
    CLOSE,
    OPEN,
    UPDATE,
    EpisodeLifecycle,
    PairAlarmTracker,
)

AB = ("10.0.0.1", "10.0.0.2")
AC = ("10.0.0.1", "10.0.0.3")


def detection(open_after, close_after):
    return PairAlarmTracker(open_after, close_after), EpisodeLifecycle()


def advance(tracker, lifecycle, tick):
    return lifecycle.advance(tick, tracker.alarmed_pairs())


class TestDebounce:
    def test_thresholds_must_be_positive(self):
        with pytest.raises(StreamError):
            PairAlarmTracker(open_after=0)
        with pytest.raises(StreamError):
            PairAlarmTracker(close_after=0)

    def test_single_failure_does_not_open(self):
        tracker, lifecycle = detection(open_after=2, close_after=2)
        tracker.observe(AB, reached=False)
        assert advance(tracker, lifecycle, tick=1) == []
        assert lifecycle.open_episode is None

    def test_blip_resets_the_failure_count(self):
        tracker, lifecycle = detection(open_after=2, close_after=2)
        tracker.observe(AB, reached=False)
        tracker.observe(AB, reached=True)  # transient loss: counter resets
        tracker.observe(AB, reached=False)
        assert advance(tracker, lifecycle, tick=1) == []

    def test_consecutive_failures_open(self):
        tracker, lifecycle = detection(open_after=2, close_after=2)
        tracker.observe(AB, reached=False)
        tracker.observe(AB, reached=False)
        (transition,) = advance(tracker, lifecycle, tick=1)
        assert transition.kind == OPEN
        assert transition.pairs == (AB,)
        assert lifecycle.open_episode.is_open


class TestHysteresis:
    def test_single_success_does_not_close(self):
        tracker, lifecycle = detection(open_after=1, close_after=2)
        tracker.observe(AB, reached=False)
        advance(tracker, lifecycle, tick=1)
        tracker.observe(AB, reached=True)
        assert advance(tracker, lifecycle, tick=2) == []  # still alarmed
        tracker.observe(AB, reached=True)
        (transition,) = advance(tracker, lifecycle, tick=3)
        assert transition.kind == CLOSE
        assert transition.pairs == ()
        assert lifecycle.open_episode is None

    def test_failure_resets_the_recovery_count(self):
        tracker, lifecycle = detection(open_after=1, close_after=2)
        tracker.observe(AB, reached=False)
        advance(tracker, lifecycle, tick=1)
        tracker.observe(AB, reached=True)
        tracker.observe(AB, reached=False)  # relapse
        tracker.observe(AB, reached=True)
        assert advance(tracker, lifecycle, tick=2) == []


class TestLifecycle:
    def test_update_when_alarmed_set_grows(self):
        tracker, lifecycle = detection(open_after=1, close_after=1)
        tracker.observe(AB, reached=False)
        advance(tracker, lifecycle, tick=1)
        tracker.observe(AC, reached=False)
        (transition,) = advance(tracker, lifecycle, tick=2)
        assert transition.kind == UPDATE
        assert transition.pairs == (AB, AC)

    def test_episode_remembers_every_pair_that_alarmed(self):
        tracker, lifecycle = detection(open_after=1, close_after=1)
        tracker.observe(AB, reached=False)
        advance(tracker, lifecycle, tick=1)
        tracker.observe(AC, reached=False)
        tracker.observe(AB, reached=True)  # AB clears, AC stays
        advance(tracker, lifecycle, tick=2)
        tracker.observe(AC, reached=True)
        advance(tracker, lifecycle, tick=3)
        episode = lifecycle.episodes[0]
        assert not episode.is_open
        assert episode.pairs_ever == {AB, AC}
        assert episode.opened_at == 1 and episode.closed_at == 3

    def test_steady_alarmed_set_emits_nothing(self):
        tracker, lifecycle = detection(open_after=1, close_after=1)
        tracker.observe(AB, reached=False)
        advance(tracker, lifecycle, tick=1)
        tracker.observe(AB, reached=False)
        assert advance(tracker, lifecycle, tick=2) == []

    def test_episode_ids_increment(self):
        tracker, lifecycle = detection(open_after=1, close_after=1)
        for tick in (1, 3):
            tracker.observe(AB, reached=False)
            advance(tracker, lifecycle, tick=tick)
            tracker.observe(AB, reached=True)
            advance(tracker, lifecycle, tick=tick + 1)
        assert [e.episode_id for e in lifecycle.episodes] == [0, 1]

    def test_forget_clears_a_dark_sensors_pairs(self):
        tracker, lifecycle = detection(open_after=1, close_after=1)
        tracker.observe(AB, reached=False)
        advance(tracker, lifecycle, tick=1)
        tracker.forget(AB[1])  # the sensor went dark, not the network
        (transition,) = advance(tracker, lifecycle, tick=2)
        assert transition.kind == CLOSE

    def test_counters(self):
        tracker, lifecycle = detection(open_after=1, close_after=1)
        tracker.observe(AB, reached=False)
        advance(tracker, lifecycle, tick=1)
        counters = lifecycle.counters()
        assert counters["episodes_total"] == 1
        assert counters["episodes_open"] == 1
        assert len(tracker.alarmed_pairs()) == 1
        assert counters["transitions"] == 1
