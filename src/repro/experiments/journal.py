"""Checkpoint journal for experiment sweeps and stream runs.

A week-long sweep must survive its host: the runner appends every
completed placement's :class:`~repro.experiments.runner.PlacementResult`
to an on-disk journal, and a re-run with ``resume=True`` replays the
completed placements from disk and executes only the missing ones.
Because every placement is a pure function of its job (seed-derived
RNGs, no shared state), a resumed sweep's merged output is bit-identical
to an uninterrupted run.  Stream and monitor runs journal their episode
reports the same way.

The journal is a header record followed by one pickle per placement.
Appends are flushed and fsync'd, so a crash loses at most the placement
being written; a truncated trailing record is detected and ignored on
load.  The header carries a fingerprint of the batch parameters.  It is
checked when the journal is opened, before any work runs: a journal
written by a *different* run, a file whose header cannot be read and a
file of another format are refused with
:class:`~repro.errors.JournalError` and left untouched, instead of
silently mixing results.  A missing or empty file (a crash before the
header) is a journal not written yet.
"""

from __future__ import annotations

import logging
import os
import pickle
from pathlib import Path
from typing import Any, BinaryIO, Dict, Union

from repro.errors import JournalError

__all__ = ["RunJournal"]

logger = logging.getLogger(__name__)

#: v2: link tokens pickle as NamedTuples, and a v1 record's frozen
#: dataclass tokens no longer unpickle.
_FORMAT = "repro-run-journal-v2"


class RunJournal:
    """Append-only checkpoint store for one run's results.

    Parameters
    ----------
    path:
        Journal file location (created on first append).
    fingerprint:
        Any picklable, equality-comparable description of every argument
        that shapes the results (seed, sizes, kinds, fault config...).

    Raises
    ------
    JournalError
        When ``path`` is a non-empty file whose header is unreadable,
        of another format, or carries another fingerprint.
    """

    def __init__(self, path: Union[str, Path], fingerprint: Any) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint
        if not self._unwritten():
            with open(self.path, "rb") as handle:
                self._check_header(handle)

    def _unwritten(self) -> bool:
        return not self.path.exists() or self.path.stat().st_size == 0

    def _check_header(self, handle: BinaryIO) -> None:
        try:
            header = pickle.load(handle)
        except Exception as exc:
            # Arbitrary bytes fail to unpickle in many ways (UnpicklingError,
            # EOFError, ValueError, OverflowError, ImportError...): each
            # means there is no header to read.
            raise JournalError(
                f"{self.path} has no readable {_FORMAT} header "
                f"({type(exc).__name__}); move it away to start afresh"
            ) from None
        if not isinstance(header, dict) or header.get("format") != _FORMAT:
            raise JournalError(
                f"{self.path} is not a {_FORMAT} journal (header {header!r}); "
                "move it away to start afresh"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise JournalError(
                f"journal {self.path} was written by a different run "
                "(fingerprint mismatch); refusing to use it"
            )

    def append(self, result: Any) -> None:
        """Durably append one completed result, writing the header first
        on a fresh or empty file.  Flush + fsync per append: a crash
        loses at most the result being written."""
        new_file = self._unwritten()
        with open(self.path, "ab") as handle:
            if new_file:
                pickle.dump(
                    {"format": _FORMAT, "fingerprint": self.fingerprint}, handle
                )
            pickle.dump(result, handle)
            handle.flush()
            os.fsync(handle.fileno())

    def load_completed(self) -> Dict[int, Any]:
        """Completed results by placement index; ``{}`` when unwritten.

        A truncated trailing record (crash mid-append) is dropped with a
        warning; everything before it is recovered.
        """
        completed: Dict[int, Any] = {}
        if self._unwritten():
            return completed
        with open(self.path, "rb") as handle:
            self._check_header(handle)
            count = 0
            while True:
                try:
                    result = pickle.load(handle)
                except EOFError:
                    break
                except (pickle.UnpicklingError, AttributeError, IndexError,
                        ValueError) as exc:
                    logger.warning(
                        "journal %s has a truncated trailing record (%s); "
                        "recovered %d records",
                        self.path, exc, count,
                    )
                    break
                count += 1
                completed[result.placement_index] = result
        return completed
