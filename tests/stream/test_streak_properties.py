"""Property-based tests for the shared streak machine under adversarial
flapping.

The contracts the flight recorder and the episode detector both lean on:

* :class:`PairAlarmTracker` is exactly the "alarm after ``open_after``
  consecutive failures, clear after ``close_after`` consecutive
  successes" machine — checked against an independent model oracle over
  arbitrary observation/forget interleavings;
* :meth:`forget` never leaks — a forgotten sensor's pairs vanish from
  the alarmed set and the tracked-pair accounting, and re-observing
  them starts the streak from zero;
* :class:`EpisodeLifecycle` transition and flap counts stay bounded by
  the alarm churn that caused them, no matter how hostile the flapping.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.streak import PairAlarmTracker
from repro.stream.episodes import CLOSE, OPEN, EpisodeLifecycle

ADDRESSES = ("10.0.0.1", "10.0.0.2", "10.0.0.3", "10.0.0.4")
PAIRS = tuple(
    (a, b) for a in ADDRESSES for b in ADDRESSES if a != b
)


@st.composite
def streak_worlds(draw):
    """Thresholds plus an adversarial observe/forget op sequence."""
    open_after = draw(st.integers(1, 3))
    close_after = draw(st.integers(1, 3))
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("obs"),
                    st.sampled_from(PAIRS),
                    st.booleans(),
                ),
                st.tuples(
                    st.just("forget"),
                    st.sampled_from(ADDRESSES),
                    st.just(True),
                ),
            ),
            min_size=1,
            max_size=80,
        )
    )
    return open_after, close_after, ops


class _ModelAlarm:
    """Independent oracle: the streak rule, restated from scratch."""

    def __init__(self, open_after, close_after):
        self.open_after = open_after
        self.close_after = close_after
        self.state = {}  # pair -> [fails, successes, alarmed]

    def observe(self, pair, reached):
        fails, successes, alarmed = self.state.get(pair, (0, 0, False))
        if reached:
            successes, fails = successes + 1, 0
            if alarmed and successes >= self.close_after:
                alarmed = False
        else:
            fails, successes = fails + 1, 0
            if fails >= self.open_after:
                alarmed = True
        self.state[pair] = (fails, successes, alarmed)

    def forget(self, member):
        for pair in [p for p in self.state if member in p]:
            del self.state[pair]

    def alarmed(self):
        return tuple(
            sorted(p for p, (_, _, alarmed) in self.state.items() if alarmed)
        )


@given(world=streak_worlds())
@settings(max_examples=120)
def test_tracker_matches_the_model_oracle(world):
    open_after, close_after, ops = world
    tracker = PairAlarmTracker(open_after, close_after)
    model = _ModelAlarm(open_after, close_after)
    for op, target, reached in ops:
        if op == "obs":
            tracker.observe(target, reached)
            model.observe(target, reached)
        else:
            tracker.forget(target)
            model.forget(target)
        assert tracker.alarmed_pairs() == model.alarmed()
        assert tracker.pairs_tracked() == len(model.state)


@given(world=streak_worlds())
@settings(max_examples=120)
def test_forget_never_leaks_mid_flap(world):
    open_after, close_after, ops = world
    tracker = PairAlarmTracker(open_after, close_after)
    for op, target, reached in ops:
        if op == "obs":
            tracker.observe(target, reached)
        else:
            tracker.forget(target)
            assert not any(
                target in pair for pair in tracker.alarmed_pairs()
            )
    # After a final forget of every address nothing is tracked at all.
    for address in ADDRESSES:
        tracker.forget(address)
    assert tracker.alarmed_pairs() == ()
    assert tracker.pairs_tracked() == 0
    # A forgotten pair starts its streak from zero: open_after - 1
    # failures must not alarm it again.
    pair = PAIRS[0]
    for _ in range(open_after - 1):
        tracker.observe(pair, False)
    assert pair not in tracker.alarmed_pairs()


@st.composite
def alarm_histories(draw):
    """A per-tick sequence of alarmed-pair sets, flap-heavy by design."""
    return draw(
        st.lists(
            st.frozensets(st.sampled_from(PAIRS), max_size=4),
            min_size=1,
            max_size=60,
        )
    )


@given(history=alarm_histories(), flap_window=st.integers(0, 6))
@settings(max_examples=120)
def test_lifecycle_transitions_are_bounded_by_alarm_churn(
    history, flap_window
):
    lifecycle = EpisodeLifecycle(flap_window=flap_window)
    transitions = []
    changes = 0
    previous = frozenset()
    for tick, alarmed in enumerate(history):
        if alarmed != previous:
            changes += 1
        previous = alarmed
        transitions.extend(lifecycle.advance(tick, alarmed))

    counts = lifecycle.counters()
    # At most one transition per tick, and only when the alarmed set moved.
    assert counts["transitions"] == len(transitions) <= len(history)
    assert counts["transitions"] <= changes
    opens = sum(1 for t in transitions if t.kind == OPEN)
    closes = sum(1 for t in transitions if t.kind == CLOSE)
    assert counts["episodes_total"] == opens
    assert opens - closes == counts["episodes_open"] in (0, 1)
    # A flap is a re-open near a close: never more than either count.
    assert counts["flaps"] <= max(0, opens - 1)
    assert counts["flaps"] <= closes


@given(history=alarm_histories())
@settings(max_examples=120)
def test_lifecycle_with_infinite_window_counts_every_reopen(history):
    """With a huge flap window every open after the first close is a flap
    — the upper bound the report's flap counter can never exceed."""
    lifecycle = EpisodeLifecycle(flap_window=10_000)
    reopens = 0
    closed_once = False
    for tick, alarmed in enumerate(history):
        for transition in lifecycle.advance(tick, alarmed):
            if transition.kind == OPEN and closed_once:
                reopens += 1
            if transition.kind == CLOSE:
                closed_once = True
    assert lifecycle.counters()["flaps"] == reopens
