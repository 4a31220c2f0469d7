"""Logical-link expansion (§3.1).

BGP export policies are configured per neighbour, so a misconfiguration
breaks an interdomain link only for the routes learned from one particular
out-neighbour.  To make such partial failures expressible in Boolean
tomography, each interdomain hop pair (u, v) of a path is replaced by a
*logical link* tagged with the AS the path continues to after v's AS.

Tag determination for the consecutive hop pair (u, v) on a path:

* u and v in the same AS (or either unmappable) → plain physical token;
* otherwise scan the hops after v for the first identified hop mapped to
  an AS different from v's AS — that AS is the tag;
* the path ends inside v's AS → ``ORIGIN_TAG`` (the routes are originated
  there, there is no out-neighbour);
* an unidentified hop interrupts the scan → ``UNKNOWN_TAG`` (the region
  beyond is dark; ND-LG handles those paths at AS granularity instead).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.core.linkspace import (
    ORIGIN_TAG,
    UNKNOWN_TAG,
    LinkToken,
    LogicalLink,
    ip_link,
)
from repro.core.pathset import ProbePath, same_mapping

__all__ = ["logicalize"]


def logicalize(
    path: ProbePath,
    asn_of: Callable[[str], Optional[int]],
    terminal_tag: Optional[int] = None,
) -> Tuple[LinkToken, ...]:
    """Token sequence of ``path`` with interdomain links expanded (§3.1).

    Intradomain hop pairs and pairs touching an unidentified hop stay
    physical (undirected); identified interdomain pairs become directed
    :class:`~repro.core.linkspace.LogicalLink` tokens.

    ``terminal_tag`` is the tag assigned when the out-neighbour scan runs
    off the end of the path.  For a complete path that genuinely means the
    routes terminate in the far AS (default ``ORIGIN_TAG``); for a
    *truncated* trace (a failed probe) the continuation is simply unknown,
    so callers pass ``UNKNOWN_TAG`` to keep untrustworthy tags out of
    exoneration sets.

    Memoised on the path, one entry per terminal tag; a mapping that is
    not the :func:`~repro.core.pathset.same_mapping` replaces the entry.
    """
    if terminal_tag is None:
        terminal_tag = ORIGIN_TAG if path.reached else UNKNOWN_TAG
    memo = path.token_memo()
    entry = memo.get(terminal_tag)
    if entry is not None and same_mapping(entry[0], asn_of):
        return entry[1]
    hops = path.hops
    hop_asns: List[Optional[int]] = [
        asn_of(hop) if isinstance(hop, str) else None for hop in hops
    ]
    tokens: List[LinkToken] = []
    for index, (u, v) in enumerate(zip(hops, hops[1:])):
        if not (isinstance(u, str) and isinstance(v, str)):
            tokens.append(ip_link(u, v))
            continue
        asn_u, asn_v = hop_asns[index], hop_asns[index + 1]
        if asn_u is None or asn_v is None or asn_u == asn_v:
            tokens.append(ip_link(u, v))
            continue
        tag = _tag_after(hop_asns, index + 1, terminal_tag)
        tokens.append(LogicalLink(src=u, dst=v, tag=tag))
    result = tuple(tokens)
    memo[terminal_tag] = (asn_of, result)
    return result


def _tag_after(
    hop_asns: List[Optional[int]], v_index: int, terminal_tag: int
) -> int:
    """Out-neighbour tag: first AS after position ``v_index`` differing from
    the AS at ``v_index`` (see module docstring for the edge cases)."""
    asn_v = hop_asns[v_index]
    for asn in hop_asns[v_index + 1 :]:
        if asn is None:
            return UNKNOWN_TAG
        if asn != asn_v:
            return asn
    return terminal_tag
