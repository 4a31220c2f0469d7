"""The reachability matrix R of §2.3.

``R[i][j] = 1`` when the probe from sensor i to sensor j reached, else 0.
Internally keyed by sensor addresses rather than indices so it composes
directly with :class:`~repro.core.pathset.PathStore`; a dense index-based
view is available for display and tests.

The matrix is immutable after construction, so the derived views (sorted
pairs, sensor list, the dense matrix itself) are computed once and
memoised — at internet scale (:mod:`repro.netsim.gen.powerlaw`) a full
mesh holds thousands of pairs and the diagnosis variants iterate them
repeatedly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.pathset import Pair, PathStore
from repro.errors import DiagnosisError

__all__ = ["ReachabilityMatrix"]


class ReachabilityMatrix:
    """Boolean end-to-end status of every probed sensor pair."""

    def __init__(self, status: Dict[Pair, bool]) -> None:
        self._status = dict(status)
        self._pairs_memo: Optional[Tuple[Pair, ...]] = None
        self._sensors_memo: Optional[Tuple[str, ...]] = None
        self._dense_memo: Optional[List[List[int]]] = None

    @classmethod
    def from_store(cls, store: PathStore) -> "ReachabilityMatrix":
        """Build R from a measurement round (normally the T+ round)."""
        return cls({path.pair: path.reached for path in store.paths()})

    def is_up(self, src: str, dst: str) -> bool:
        """R_ij as a boolean."""
        try:
            return self._status[(src, dst)]
        except KeyError:
            raise DiagnosisError(f"pair ({src}, {dst}) was never probed") from None

    def pairs(self) -> Tuple[Pair, ...]:
        """All probed pairs, sorted."""
        if self._pairs_memo is None:
            self._pairs_memo = tuple(sorted(self._status))
        return self._pairs_memo

    def failed_pairs(self) -> Tuple[Pair, ...]:
        """Pairs with R_ij = 0."""
        return tuple(p for p in self.pairs() if not self._status[p])

    def working_pairs(self) -> Tuple[Pair, ...]:
        """Pairs with R_ij = 1."""
        return tuple(p for p in self.pairs() if self._status[p])

    def sensors(self) -> Tuple[str, ...]:
        """Every sensor address appearing in the matrix, sorted."""
        if self._sensors_memo is None:
            seen = set()
            for src, dst in self._status:
                seen.add(src)
                seen.add(dst)
            self._sensors_memo = tuple(sorted(seen))
        return self._sensors_memo

    def dense(self) -> List[List[int]]:
        """Index-based dense matrix (diagonal = 1 by convention)."""
        if self._dense_memo is None:
            sensors = self.sensors()
            index = {address: k for k, address in enumerate(sensors)}
            rows = [[1] * len(sensors) for _ in sensors]
            for (src, dst), up in self._status.items():
                rows[index[src]][index[dst]] = 1 if up else 0
            self._dense_memo = rows
        return self._dense_memo

    def __len__(self) -> int:
        return len(self._status)
