"""Checkpoint journal for experiment sweeps.

A week-long sweep must survive its host: the runner appends every
completed placement's :class:`~repro.experiments.runner.PlacementResult`
to an on-disk journal, and a re-run with ``resume=True`` replays the
completed placements from disk and executes only the missing ones.
Because every placement is a pure function of its job (seed-derived
RNGs, no shared state), a resumed sweep's merged output is bit-identical
to an uninterrupted run.

The journal is a header record followed by one pickle per placement.
Appends are flushed and fsync'd, so a crash loses at most the placement
being written; a truncated trailing record is detected and ignored on
load.  The header carries a fingerprint of the batch parameters — a
journal written by a *different* sweep refuses to resume instead of
silently mixing results (:class:`~repro.errors.JournalError`), and so
does a file whose header cannot be read at all.  An empty file (a crash
before the header) is a journal not written yet.
"""

from __future__ import annotations

import logging
import os
import pickle
from pathlib import Path
from typing import Any, Dict, Union

from repro.errors import JournalError

__all__ = ["RunJournal", "append_pickle_record", "iter_pickle_records"]

logger = logging.getLogger(__name__)

_FORMAT = "repro-run-journal-v1"


def append_pickle_record(
    path: Path, record: Any, header: Dict[str, Any]
) -> None:
    """Durably append one pickle record, writing ``header`` first on a
    fresh or empty file.  Flush + fsync per append: a crash loses at most
    the record being written.  Shared by :class:`RunJournal` and the
    per-shard :class:`~repro.stream.checkpoint.CheckpointStore`."""
    new_file = not path.exists() or path.stat().st_size == 0
    with open(path, "ab") as handle:
        if new_file:
            pickle.dump(header, handle)
        pickle.dump(record, handle)
        handle.flush()
        os.fsync(handle.fileno())


def iter_pickle_records(
    path: Path,
    expected_format: str,
    fingerprint: Any,
    error_cls: type = JournalError,
):
    """Yield the records of a pickle journal, torn-tail tolerantly.

    Validates the header's format tag and fingerprint (mismatch raises
    ``error_cls`` — a journal written by a *different* run must refuse
    to load rather than silently mix state).  A missing or empty file
    yields nothing; a non-empty file whose header cannot be read raises
    ``error_cls`` too, since appending to it would never make it
    loadable.  A truncated trailing record (crash mid-append) is dropped
    with a warning.
    """
    if not path.exists() or path.stat().st_size == 0:
        return
    with open(path, "rb") as handle:
        try:
            header = pickle.load(handle)
        except Exception as exc:
            # Arbitrary bytes fail to unpickle in many ways (UnpicklingError,
            # EOFError, ValueError, OverflowError, ImportError...): each
            # means there is no header to read.
            raise error_cls(
                f"{path} has no readable {expected_format} header "
                f"({type(exc).__name__}); move it away to start afresh"
            ) from None
        if not isinstance(header, dict) or header.get("format") != expected_format:
            raise error_cls(
                f"{path} is not a {expected_format} journal (header {header!r})"
            )
        if header.get("fingerprint") != fingerprint:
            raise error_cls(
                f"journal {path} was written by a different run "
                "(fingerprint mismatch); refusing to load it"
            )
        count = 0
        while True:
            try:
                record = pickle.load(handle)
            except EOFError:
                return
            except (pickle.UnpicklingError, AttributeError, IndexError,
                    ValueError) as exc:
                logger.warning(
                    "journal %s has a truncated trailing record (%s); "
                    "recovered %d records",
                    path, exc, count,
                )
                return
            count += 1
            yield record


class RunJournal:
    """Append-only checkpoint store for one sweep's placement results.

    Parameters
    ----------
    path:
        Journal file location (created on first append).
    fingerprint:
        Any picklable, equality-comparable description of every argument
        that shapes the results (seed, sizes, kinds, fault config...).
        Loading a journal whose fingerprint differs raises
        :class:`~repro.errors.JournalError`.
    """

    def __init__(self, path: Union[str, Path], fingerprint: Any) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint

    def exists(self) -> bool:
        return self.path.exists()

    def append(self, result: Any) -> None:
        """Durably append one completed placement result."""
        append_pickle_record(
            self.path,
            result,
            {"format": _FORMAT, "fingerprint": self.fingerprint},
        )

    def load_completed(self) -> Dict[int, Any]:
        """Completed results by placement index; ``{}`` when absent.

        A truncated trailing record (crash mid-append) is dropped with a
        warning; everything before it is recovered.
        """
        completed: Dict[int, Any] = {}
        for result in iter_pickle_records(self.path, _FORMAT, self.fingerprint):
            completed[result.placement_index] = result
        return completed
