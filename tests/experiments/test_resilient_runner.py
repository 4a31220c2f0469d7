"""Resilience harness for the experiment runner.

The contracts under test:

* a worker process dying mid-placement fails that placement only — the
  rest of the sweep completes and is bit-identical to running the
  surviving placements alone;
* a placement exceeding ``job_timeout`` is charged, its stuck worker is
  reclaimed, and innocent in-flight placements are re-run uncharged;
* transient in-worker exceptions are retried with bounded backoff;
* a results journal checkpoints completed placements, refuses foreign
  sweeps, tolerates a truncated tail, and ``resume=True`` completes an
  interrupted sweep with output identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.errors import JournalError, ReproError
from repro.experiments.jobs import CoreAsx, ResearchTopoFactory, StubPlacement
from repro.experiments import runner
from repro.experiments.journal import RunJournal
from repro.experiments.runner import (
    RunnerStats,
    build_placement_jobs,
    run_kind_batch,
)

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
class HangingTopoFactory:
    """Sleeps far past any job timeout for one placement index."""

    hang_index: int

    def __call__(self, placement_index: int):
        if placement_index == self.hang_index:
            time.sleep(60)
        return _FACTORY(placement_index)


@dataclass(frozen=True)
class FlakyOnceTopoFactory:
    """Raises on the first build of one placement, succeeds after.

    Cross-attempt state lives in a sentinel file so the behaviour
    survives the process boundary between retry attempts.
    """

    fail_index: int
    sentinel: str

    def __call__(self, placement_index: int):
        if placement_index == self.fail_index and not os.path.exists(
            self.sentinel
        ):
            Path(self.sentinel).touch()
            raise RuntimeError("transient topology-build failure")
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
        retry_backoff_seconds=0.0,
        sleep=lambda _seconds: None,
    )
    batch.update(overrides)
    return batch


@pytest.fixture(scope="module")
def clean_records():
    return run_kind_batch(**_batch(_FACTORY), workers=1)


class TestCrashIsolation:
    def test_dead_worker_fails_one_placement_not_the_sweep(self):
        stats = RunnerStats()
        records = run_kind_batch(
            **_batch(CrashingTopoFactory(crash_index=1)),
            workers=2,
            max_job_retries=0,
            stats=stats,
        )
        survivors = sorted(p.placement_index for p in stats.per_placement)
        assert survivors == [0, 2]
        assert stats.jobs_crashed >= 1
        assert stats.jobs_failed == 1
        # The surviving placements' records are exactly what running
        # those placements alone produces — nothing was perturbed.
        jobs = build_placement_jobs(
            _FACTORY,
            StubPlacement(5),
            ("link-1",),
            {"tomo": NetDiagnoser("tomo"), "nd-edge": NetDiagnoser("nd-edge")},
            placements=3,
            failures_per_placement=2,
            seed=0,
            asx_selector=CoreAsx(),
        )
        expected = [jobs[0].run(), jobs[2].run()]
        assert records["link-1"] == [
            record
            for result in expected
            for record in result.records["link-1"]
        ]

    def test_crashing_placement_is_retried_before_dropping(self):
        stats = RunnerStats()
        run_kind_batch(
            **_batch(CrashingTopoFactory(crash_index=0), placements=2),
            workers=2,
            max_job_retries=2,
            stats=stats,
        )
        # Deterministic crasher: every retry crashes again until the
        # budget is spent, then the sweep moves on.
        assert stats.jobs_retried == 2
        assert stats.jobs_failed == 1
        assert sorted(p.placement_index for p in stats.per_placement) == [1]


class TestPoolBrokenBeforeSubmit:
    def test_submit_into_a_broken_pool_requeues_the_job_uncharged(
        self, monkeypatch, clean_records
    ):
        # A worker can die between wait() returning and the next submit;
        # the executor then refuses the submit itself.  An in-process
        # stand-in replays exactly that, deterministically: the second
        # submit ever made raises, every other one runs the job inline.
        submits = []

        class BreaksOnSecondSubmit:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def submit(self, fn, *args):
                submits.append(args)
                if len(submits) == 2:
                    raise BrokenProcessPool("a worker died after wait()")
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(runner, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        stats = RunnerStats()
        records = run_kind_batch(**_batch(_FACTORY), workers=2, stats=stats)
        assert records == clean_records
        assert stats.jobs_failed == 0
        assert stats.jobs_crashed == 1
        # Placement 0 was in flight when the pool broke and re-ran in
        # isolation; placement 1, refused, went out again once.
        submitted = [job.placement_index for (job,) in submits]
        assert submitted == [0, 1, 0, 1, 2]


class TestJobTimeouts:
    def test_hung_placement_times_out_and_sweep_completes(self):
        stats = RunnerStats()
        records = run_kind_batch(
            **_batch(HangingTopoFactory(hang_index=1), placements=2),
            workers=2,
            job_timeout=3.0,
            max_job_retries=0,
            stats=stats,
        )
        assert stats.jobs_timed_out == 1
        assert stats.jobs_failed == 1
        assert sorted(p.placement_index for p in stats.per_placement) == [0]
        assert len(records["link-1"]) > 0


class TestBoundedRetries:
    def test_transient_exception_retried_serially(self, tmp_path, clean_records):
        stats = RunnerStats()
        factory = FlakyOnceTopoFactory(
            fail_index=1, sentinel=str(tmp_path / "failed-once")
        )
        records = run_kind_batch(
            **_batch(factory), workers=1, max_job_retries=2, stats=stats
        )
        assert stats.jobs_retried == 1
        assert stats.jobs_failed == 0
        assert records == clean_records

    def test_transient_exception_retried_in_workers(self, tmp_path, clean_records):
        stats = RunnerStats()
        factory = FlakyOnceTopoFactory(
            fail_index=1, sentinel=str(tmp_path / "failed-once-par")
        )
        records = run_kind_batch(
            **_batch(factory), workers=2, max_job_retries=2, stats=stats
        )
        assert stats.jobs_retried == 1
        assert stats.jobs_failed == 0
        assert records == clean_records

    def test_exhausted_retries_drop_the_placement(self, clean_records):
        @dataclass(frozen=True)
        class AlwaysRaises:
            def __call__(self, placement_index: int):
                raise RuntimeError("permanent failure")

        stats = RunnerStats()
        records = run_kind_batch(
            **_batch(AlwaysRaises(), placements=1),
            workers=1,
            max_job_retries=1,
            stats=stats,
        )
        assert stats.jobs_retried == 1
        assert stats.jobs_failed == 1
        assert records == {"link-1": []}


class TestJobTimeoutOnTheSerialBackend:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_an_ignored_timeout_is_a_warning(self, workers, caplog):
        """Serial by request or by fallback (a lambda cannot be pickled):
        either way no placement can be pre-empted."""
        batch = _batch(_FACTORY, placements=2, failures_per_placement=1)
        batch["asx_selector"] = lambda topo, rng: topo.core_asns[0]
        with caplog.at_level("WARNING", logger="repro.experiments.runner"):
            run_kind_batch(**batch, workers=workers, job_timeout=30.0)
        assert any(
            "job_timeout=30s is ignored" in message for message in caplog.messages
        )


class TestSerialFallbackAccounting:
    def test_unpicklable_jobs_count_a_serial_fallback(self, clean_records):
        stats = RunnerStats()
        batch = _batch(_FACTORY)
        batch["asx_selector"] = lambda topo, rng: topo.core_asns[0]
        records = run_kind_batch(**batch, workers=3, stats=stats)
        assert stats.serial_fallbacks == 1
        assert stats.workers == 1
        assert records == clean_records


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
        # Interrupt: placement 1's worker dies, the journal keeps 0 and 2.
        # The resume swaps the crashing factory for the healthy one, so
        # the journal carries an explicit fingerprint (see above).
        journal = RunJournal(
            tmp_path / "interrupted.journal", fingerprint="sweep"
        )
        partial_stats = RunnerStats()
        run_kind_batch(
            **_batch(CrashingTopoFactory(crash_index=1)),
            workers=2,
            max_job_retries=0,
            journal=journal,
            stats=partial_stats,
        )
        assert partial_stats.jobs_failed == 1
        # Resume with the healthy factory: only placement 1 runs, and the
        # merged output matches an uninterrupted clean run exactly.
        stats = RunnerStats()
        resumed = run_kind_batch(
            **_batch(_FACTORY),
            workers=2,
            journal=journal,
            resume=True,
            stats=stats,
        )
        assert stats.placements_resumed == 2
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
