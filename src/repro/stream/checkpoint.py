"""Per-shard checkpoint store for supervised recovery.

A crashed shard must not replay the whole stream to catch up: the
supervisor periodically snapshots each healthy shard's state
(:meth:`~repro.stream.router.StreamShard.state` — window, alarm
tracker, ingestor accounting) and, on restart, restores the latest
snapshot and replays only the events offered since it was taken.

The on-disk format reuses the run-journal idiom
(:mod:`repro.experiments.journal`): a pickle header carrying a format
tag and run fingerprint, then one fsync'd pickle record per checkpoint.
A crash mid-append loses at most the checkpoint being written — the
previous one for that shard is still on disk and still sufficient,
because the supervisor keeps the replay tail until a *newer* checkpoint
lands.  A store built with ``path=None`` keeps checkpoints in memory
only, which is what replay-driven chaos tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import CheckpointError
from repro.experiments.journal import append_pickle_record, iter_pickle_records

__all__ = ["CheckpointStore", "ShardCheckpoint"]

_FORMAT = "repro-shard-checkpoint-v2"


@dataclass(frozen=True)
class ShardCheckpoint:
    """One shard's state as of one logical tick."""

    shard: int
    tick: int
    state: Dict[str, Any]


class CheckpointStore:
    """Append-only store of per-shard checkpoints.

    Parameters
    ----------
    path:
        Checkpoint file location, or ``None`` for an in-memory store.
    fingerprint:
        Picklable, equality-comparable description of the run (seed,
        shard count, config...).  Loading a file whose fingerprint
        differs raises :class:`~repro.errors.CheckpointError` — mixing
        one run's checkpoints into another would silently corrupt
        recovery.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        fingerprint: Any = None,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.fingerprint = fingerprint
        self._latest: Dict[int, ShardCheckpoint] = {}
        self.checkpoints_saved = 0
        if self.path is not None and self.path.exists():
            for checkpoint in iter_pickle_records(
                self.path, _FORMAT, self.fingerprint, error_cls=CheckpointError
            ):
                self._latest[checkpoint.shard] = checkpoint

    def save(self, shard: int, tick: int, state: Dict[str, Any]) -> ShardCheckpoint:
        """Record ``shard``'s state as of ``tick`` (durably when on disk)."""
        checkpoint = ShardCheckpoint(shard=shard, tick=tick, state=state)
        if self.path is not None:
            append_pickle_record(
                self.path,
                checkpoint,
                {"format": _FORMAT, "fingerprint": self.fingerprint},
            )
        self._latest[shard] = checkpoint
        self.checkpoints_saved += 1
        return checkpoint

    def latest(self, shard: Optional[int] = None):
        """The newest checkpoint per shard (or for one ``shard``).

        Returns ``None`` when the shard has never checkpointed — the
        supervisor then restores from the shard's pristine reset state
        and replays the full tail.
        """
        if shard is not None:
            return self._latest.get(shard)
        return dict(self._latest)

    def counters(self) -> Dict[str, int]:
        return {
            "checkpoints_saved": self.checkpoints_saved,
            "shards_checkpointed": len(self._latest),
        }
