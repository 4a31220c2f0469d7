"""The consecutive-observation streak primitive shared by both detectors.

The paper's §6 robustness rule — "raise an alarm only if the failure
manifests itself in several successive measurements" — drives both the
stream's episode detector and the monitor's
:class:`~repro.monitor.recorder.FlightRecorder`.  A pair alarms after
``open_after`` consecutive failures and clears only after
``close_after`` consecutive successes: live streams see half-recovered
pairs, and the hysteresis stops them flapping an episode open and
closed.  ``close_after=1`` is the batch rule, where rounds are converged
snapshots and one success is proof of recovery.

Exactly one implementation lives here (and :mod:`repro.stream.episodes`
re-exports it under its historical name).  A pair's alarm depends only
on its own observation sequence, which is what lets the sharded engine
partition pairs across trackers and still match the single tracker bit
for bit.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.errors import StreamError

__all__ = ["Pair", "PairAlarmTracker"]

Pair = Tuple[str, str]


class _PairAlarm:
    """Debounce/hysteresis state for one probe pair."""

    __slots__ = ("fails", "successes", "alarmed")

    def __init__(self) -> None:
        self.fails = 0
        self.successes = 0
        self.alarmed = False


class PairAlarmTracker:
    """Per-pair debounce state: alarm after ``open_after`` consecutive
    failures, clear after ``close_after`` consecutive successes.

    The shardable half of the streaming detector: any partition of pairs
    across trackers yields, pair for pair, the same alarms the single
    tracker would — the keystone of the sharded engine's bit-identical
    replay guarantee.
    """

    def __init__(self, open_after: int = 2, close_after: int = 2) -> None:
        if open_after < 1 or close_after < 1:
            raise StreamError(
                "episode debounce thresholds must be >= 1 "
                f"(open_after={open_after}, close_after={close_after})"
            )
        self.open_after = open_after
        self.close_after = close_after
        self._alarms: Dict[Pair, _PairAlarm] = {}
        self.observations = 0

    def observe(self, pair: Pair, reached: bool) -> None:
        """Fold one reachability observation (probe or ping) for a pair."""
        self.observations += 1
        alarm = self._alarms.get(pair)
        if alarm is None:
            alarm = self._alarms[pair] = _PairAlarm()
        if reached:
            alarm.successes += 1
            alarm.fails = 0
            if alarm.alarmed and alarm.successes >= self.close_after:
                alarm.alarmed = False
        else:
            alarm.fails += 1
            alarm.successes = 0
            if alarm.fails >= self.open_after:
                alarm.alarmed = True

    def forget(self, pair_member: str) -> None:
        """Drop alarm state for every pair touching a dark sensor.

        A sensor that stopped reporting is not *failing* — its silence
        must not keep an episode open forever.
        """
        for pair in [p for p in self._alarms if pair_member in p]:
            del self._alarms[pair]

    def alarmed_pairs(self) -> Tuple[Pair, ...]:
        return tuple(
            sorted(pair for pair, alarm in self._alarms.items() if alarm.alarmed)
        )

    def pairs_tracked(self) -> int:
        return len(self._alarms)
