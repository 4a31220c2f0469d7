"""Single-window snapshot and control-view assembly, kept as a reference.

The stream engine assembles its diagnosis inputs only through
:func:`repro.stream.merge.merged_snapshot` and
:func:`repro.stream.merge.merged_control_view`, over the list of its
shard windows.  :class:`~repro.stream.window.SlidingWindow` once had its
own ``snapshot`` and ``control_view`` methods for one window; the
functions below are those methods, unchanged but for taking the window
as an argument.  ``tests/stream/test_sharding.py`` requires the merged
views over several shard windows to equal them over one window holding
everything.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.control_plane import ControlPlaneView
from repro.core.pathset import MeasurementSnapshot, PathStore
from repro.stream.window import SlidingWindow


def snapshot(
    window: SlidingWindow, asn_of: Callable[[str], Optional[int]]
) -> Optional[MeasurementSnapshot]:
    """The batch-shaped snapshot of the window's current knowledge.

    Covers every pair with both a live baseline and a live current probe
    and no dark endpoint; ``None`` when no pair qualifies.  The
    invariants :class:`MeasurementSnapshot` enforces (same pairs both
    rounds, all baselines reached) hold by construction.
    """
    pairs = window.usable_pairs()
    if not pairs:
        return None
    before, after = PathStore(), PathStore()
    for pair in pairs:
        baseline = window._baseline.get(pair)
        current = window._current.get(pair)
        before.add(baseline[1])
        after.add(current[1])
    return MeasurementSnapshot(before=before, after=after, asn_of=asn_of)


def control_view(window: SlidingWindow, asx_asn: int) -> ControlPlaneView:
    """The in-window control-plane knowledge, in arrival order."""
    return ControlPlaneView(
        asx_asn=asx_asn,
        igp_link_down=tuple(
            obs for _tick, _seq, obs in sorted(
                window._igp_downs, key=lambda entry: entry[1]
            )
        ),
        withdrawals=tuple(
            obs for _tick, _seq, obs in sorted(
                window._withdrawals, key=lambda entry: entry[1]
            )
        ),
    )
