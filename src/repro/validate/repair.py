"""Canonical, deterministic fixups for repairable invariant violations.

Repairs are pure functions of the record and the IP-to-AS mapping — no
randomness, no ambient state — so a repaired sweep is reproducible and
``repair`` is idempotent (``repair(repair(x)) == repair(x)``, property-
tested in ``tests/validate/``).  Each repair returns the fixed record;
a probe path that needed no fixing comes back as the input object.

The probe-path pipeline runs in a fixed order chosen so later stages
cannot re-introduce earlier violations:

1. drop unresolvable identified hops (never position 0 — the source
   sensor vouches for its own address);
2. collapse consecutive duplicate hops (dropping a forged hop between
   two copies of a router exposes the pair as adjacent);
3. truncate at the first loop revisit (keep the prefix before the hop
   that re-enters a visited router);
4. re-derive the reachability bit from the hops (`reached` iff the
   trace ends at the destination sensor).

Invariants with no sound repair (a stale epoch tag, an LG answer from
the wrong table) are *not* handled here; the engine quarantines those
records even under the ``repair`` policy.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.linkspace import Endpoint
from repro.core.pathset import ProbePath

__all__ = ["repair_probe_path", "repair_feed"]


def repair_probe_path(
    path: ProbePath, asn_of: Callable[[str], Optional[int]]
) -> ProbePath:
    """Repair one probe path.

    The returned path satisfies every repairable per-record invariant;
    if nothing needed fixing the input object is returned unchanged.
    Repair can lose information — a loop truncation may cut the tail
    that confirmed reachability — but it never invents any: every
    surviving hop was reported, in its reported order.
    """
    # Steps 1 and 2: drop unresolvable hops, collapse consecutive repeats.
    collapsed: List[Endpoint] = []
    for index, hop in enumerate(path.hops):
        if isinstance(hop, str) and (
            (index > 0 and asn_of(hop) is None)
            or (collapsed and hop == collapsed[-1])
        ):
            continue
        collapsed.append(hop)
    seen = set()
    truncated: List[Endpoint] = []
    for hop in collapsed:
        if isinstance(hop, str):
            if hop in seen:
                break
            seen.add(hop)
        truncated.append(hop)
    hops = tuple(truncated)
    reached = hops[-1] == path.dst
    if hops == path.hops and reached == path.reached:
        return path
    return ProbePath(
        src=path.src, dst=path.dst, hops=hops, reached=reached, epoch=path.epoch
    )


def repair_feed(messages: Sequence) -> Tuple:
    """Repair one feed stream.

    Deduplicates on full-record identity (first occurrence wins) and
    restores monotonic order with a stable sort of the *sequenced*
    messages among themselves — unsequenced messages (``seq < 0``) have
    nothing sound to sort by and keep their arrival positions, exactly
    the subset the ``feed-order`` invariant skips.
    """
    deduped = list(dict.fromkeys(messages))

    def sequenced(message) -> bool:
        seq = getattr(message, "seq", -1)
        return seq is not None and seq >= 0

    slots = [i for i, m in enumerate(deduped) if sequenced(m)]
    ordered = sorted((deduped[i] for i in slots), key=lambda m: m.seq)
    for i, m in zip(slots, ordered):
        deduped[i] = m
    return tuple(deduped)
