"""Resilience harness for the experiment runner.

The contracts under test:

* each placement runs once: the first placement that raises, or whose
  worker process dies, stops the batch with that error, and the journal
  then holds exactly the placements accepted before it;
* a results journal checkpoints completed placements, refuses foreign
  sweeps, tolerates a truncated tail, and ``resume=True`` completes an
  interrupted sweep, on every journal cut, with output identical to an
  uninterrupted run.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.errors import JournalError, ReproError, TopologyError
from repro.experiments.jobs import CoreAsx, ResearchTopoFactory, StubPlacement
from repro.experiments.journal import RunJournal
from repro.experiments.runner import RunnerStats, run_kind_batch

_FACTORY = ResearchTopoFactory(topo_seed=7, n_tier2=4, n_stub=16)


@dataclass(frozen=True)
class CrashingTopoFactory:
    """Kills its worker process outright for one placement index."""

    crash_index: int

    def __call__(self, placement_index: int):
        if placement_index == self.crash_index:
            os._exit(17)
        return _FACTORY(placement_index)


@dataclass(frozen=True)
class RaisingTopoFactory:
    """Raises a typed error for one placement index."""

    fail_index: int

    def __call__(self, placement_index: int):
        if placement_index == self.fail_index:
            raise TopologyError(f"placement {placement_index} cannot be built")
        return _FACTORY(placement_index)


@dataclass(frozen=True)
class RefusingTopoFactory:
    """Fails loudly if any placement is (re)built at all."""

    def __call__(self, placement_index: int):
        raise AssertionError(
            f"placement {placement_index} was rebuilt; expected it to be "
            "replayed from the journal"
        )


def _batch(topo_factory, **overrides):
    batch = dict(
        topo_factory=topo_factory,
        placement_fn=StubPlacement(5),
        kinds=("link-1",),
        diagnosers={
            "tomo": NetDiagnoser("tomo"),
            "nd-edge": NetDiagnoser("nd-edge"),
        },
        placements=3,
        failures_per_placement=2,
        seed=0,
        asx_selector=CoreAsx(),
    )
    batch.update(overrides)
    return batch


@pytest.fixture(scope="module")
def clean_records():
    return run_kind_batch(**_batch(_FACTORY), workers=1)


@dataclass(frozen=True)
class _Done:
    """The one field :meth:`RunJournal.load_completed` reads."""

    placement_index: int


class TestJournalAndResume:
    def test_empty_journal_file_gets_its_header_on_append(self, tmp_path):
        """A crash before the header leaves an empty file: it is a
        journal not written yet, not a headerless one."""
        path = tmp_path / "empty.journal"
        path.write_bytes(b"")
        journal = RunJournal(path, fingerprint="sweep")
        journal.append(_Done(0))
        journal.append(_Done(2))
        assert sorted(journal.load_completed()) == [0, 2]

    def test_unreadable_header_is_a_typed_error(self, tmp_path):
        """A foreign file at the path never becomes loadable by appending
        to it, so opening refuses it before anything is appended."""
        path = tmp_path / "foreign.journal"
        path.write_bytes(b"not a pkl")
        with pytest.raises(JournalError, match="no readable"):
            RunJournal(path, fingerprint="sweep")
        assert path.read_bytes() == b"not a pkl"

    def test_another_runs_journal_is_refused_on_open(self, tmp_path):
        """A second run must not append under the first run's header: the
        first run's resume would return a mix of both runs."""
        path = tmp_path / "shared.journal"
        first = RunJournal(path, fingerprint={"seed": 1})
        first.append(_Done(0))
        first.append(_Done(1))
        written = path.read_bytes()
        with pytest.raises(JournalError, match="different run") as refused:
            RunJournal(path, fingerprint={"seed": 2})
        assert str(path) in str(refused.value)
        assert path.read_bytes() == written
        # The run that wrote it still appends without resuming.
        RunJournal(path, {"seed": 1}).append(_Done(2))
        assert RunJournal(path, {"seed": 1}).load_completed() == {
            0: _Done(0),
            1: _Done(1),
            2: _Done(2),
        }

    def test_another_format_is_refused_on_open(self, tmp_path):
        path = tmp_path / "other.journal"
        path.write_bytes(pickle.dumps({"format": "repro-other-v1"}))
        written = path.read_bytes()
        with pytest.raises(JournalError, match="is not a repro-run-journal"):
            RunJournal(path, fingerprint="sweep")
        assert path.read_bytes() == written

    def test_a_journal_from_before_tuple_tokens_is_refused_on_open(
        self, tmp_path, dataclass_era_record
    ):
        """A v1 journal's records hold dataclass tokens that no longer
        unpickle; its header is refused before any record is read."""
        with pytest.raises(TypeError):
            pickle.loads(dataclass_era_record)
        path = tmp_path / "v1.journal"
        header = {"format": "repro-run-journal-v1", "fingerprint": "sweep"}
        path.write_bytes(pickle.dumps(header) + dataclass_era_record)
        written = path.read_bytes()
        for resume in (False, True):
            with pytest.raises(JournalError, match="is not a repro-run-journal-v2"):
                journal = RunJournal(path, fingerprint="sweep")
                if resume:
                    journal.load_completed()
        assert path.read_bytes() == written

    def test_resume_replays_without_rerunning(self, tmp_path, clean_records):
        # The resumed run swaps in a factory that refuses to build, which
        # a path journal's fingerprint would refuse: vouch for the swap
        # with an explicit fingerprint.
        journal = RunJournal(tmp_path / "sweep.journal", fingerprint="sweep")
        first = run_kind_batch(
            **_batch(_FACTORY), workers=1, journal=journal
        )
        assert first == clean_records
        stats = RunnerStats()
        resumed = run_kind_batch(
            **_batch(RefusingTopoFactory()),
            workers=1,
            journal=journal,
            resume=True,
            stats=stats,
        )
        assert resumed == clean_records
        assert stats.placements_resumed == 3

    def test_interrupted_sweep_resumes_to_identical_output(
        self, tmp_path, clean_records
    ):
        # Interrupt: placement 1's worker dies and breaks the pool.  The
        # resume swaps the crashing factory for the healthy one, so the
        # journal carries an explicit fingerprint (see above).
        journal = RunJournal(
            tmp_path / "interrupted.journal", fingerprint="sweep"
        )
        with pytest.raises(BrokenProcessPool):
            run_kind_batch(
                **_batch(CrashingTopoFactory(crash_index=1)),
                workers=2,
                journal=journal,
            )
        # Placement 0 is journalled only if it finished before the pool
        # broke; the dead worker's placement never is.
        completed = sorted(journal.load_completed())
        assert completed in ([], [0])
        stats = RunnerStats()
        resumed = run_kind_batch(
            **_batch(_FACTORY),
            workers=2,
            journal=journal,
            resume=True,
            stats=stats,
        )
        assert stats.placements_resumed == len(completed)
        assert resumed == clean_records

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("cut", [0, 1, 2])
    def test_every_journal_cut_resumes_to_identical_output(
        self, tmp_path, clean_records, cut, workers
    ):
        """A placement that raises stops the batch with its own error;
        the journal holds exactly the placements before it, and the
        resume runs only the rest."""
        journal = RunJournal(tmp_path / "cut.journal", fingerprint="sweep")
        with pytest.raises(TopologyError, match=f"placement {cut} "):
            run_kind_batch(
                **_batch(RaisingTopoFactory(fail_index=cut)),
                workers=workers,
                journal=journal,
            )
        assert sorted(journal.load_completed()) == list(range(cut))
        stats = RunnerStats()
        resumed = run_kind_batch(
            **_batch(_FACTORY),
            workers=workers,
            journal=journal,
            resume=True,
            stats=stats,
        )
        assert stats.placements_resumed == cut
        assert stats.workers == max(1, min(workers, 3 - cut))
        assert resumed == clean_records

    def test_truncated_tail_is_recovered_from(self, tmp_path, clean_records):
        journal = tmp_path / "truncated.journal"
        run_kind_batch(**_batch(_FACTORY), workers=1, journal=journal)
        raw = journal.read_bytes()
        journal.write_bytes(raw[:-200])  # crash mid-append: chop the tail
        stats = RunnerStats()
        resumed = run_kind_batch(
            **_batch(_FACTORY),
            workers=1,
            journal=journal,
            resume=True,
            stats=stats,
        )
        assert 1 <= stats.placements_resumed < 3
        assert resumed == clean_records

    def test_foreign_journal_refused(self, tmp_path):
        journal = tmp_path / "foreign.journal"
        run_kind_batch(**_batch(_FACTORY), workers=1, journal=journal)
        with pytest.raises(ReproError):
            run_kind_batch(
                **_batch(_FACTORY, seed=999),
                workers=1,
                journal=journal,
                resume=True,
            )

    def test_journal_of_another_placement_is_refused(self, tmp_path):
        """The fingerprint holds the job callables: a journal written with
        5 sensors per placement cannot resume a 6-sensor sweep."""
        journal = tmp_path / "placement.journal"
        run_kind_batch(**_batch(_FACTORY), workers=1, journal=journal)
        with pytest.raises(JournalError, match="different run"):
            run_kind_batch(
                **_batch(_FACTORY, placement_fn=StubPlacement(6)),
                workers=1,
                journal=journal,
                resume=True,
            )

    def test_journal_object_with_custom_fingerprint(self, tmp_path, clean_records):
        journal = RunJournal(tmp_path / "custom.journal", fingerprint="v1")
        run_kind_batch(**_batch(_FACTORY), workers=1, journal=journal)
        resumed = run_kind_batch(
            **_batch(RefusingTopoFactory()),
            workers=1,
            journal=journal,
            resume=True,
        )
        assert resumed == clean_records
