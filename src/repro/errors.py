"""Exception hierarchy for the NetDiagnoser reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate the failure domain (topology construction,
routing, measurement, diagnosis).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "TopologyError",
    "AddressingError",
    "RoutingError",
    "ConvergenceError",
    "MeasurementError",
    "DiagnosisError",
    "ScenarioError",
    "FaultInjectionError",
    "ControlPlaneFeedError",
    "JournalError",
    "ValidationError",
    "EmpathyError",
    "StreamError",
    "EpisodeOverflowError",
    "SupervisionError",
    "MonitorError",
]


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class TopologyError(ReproError):
    """Invalid topology construction or lookup (unknown router, duplicate
    link, inter-AS link without a declared relationship, ...)."""


class AddressingError(ReproError):
    """Prefix or interface address allocation failed, or an address could
    not be mapped back to an autonomous system."""


class RoutingError(ReproError):
    """A routing computation was asked something inconsistent (unknown
    prefix, query against a state the engine never converged, ...)."""


class ConvergenceError(RoutingError):
    """The path-vector fixpoint failed to stabilise within the iteration
    budget.  With valley-free (Gao-Rexford) policies this indicates a bug
    or a deliberately adversarial configuration."""


class MeasurementError(ReproError):
    """Sensor placement or probing was misconfigured (sensor on a failed
    router, duplicate sensor ids, probing an empty overlay, ...)."""


class DiagnosisError(ReproError):
    """A diagnosis algorithm received inconsistent inputs (failure set with
    no candidate links, reachability matrix that disagrees with the path
    store, ...)."""


class EmpathyError(ReproError):
    """The empathy / ensemble machinery was misconfigured: an ensemble
    with fewer than two member diagnosers, a cross-validation run with
    nothing to cross-validate, an unknown diagnoser name handed to the
    registry.  User-diagnosable: both CLIs print the message on stderr
    and exit 2 instead of dumping a traceback."""


class ScenarioError(ReproError):
    """A failure-scenario sampler could not produce an admissible scenario
    (e.g. no sampled failure combination causes an unreachability within
    the attempt budget)."""


class FaultInjectionError(MeasurementError):
    """An injected measurement-plane fault fired: the fault subsystem
    signals transient conditions (a flaky or rate-limited Looking Glass,
    a dead collector feed) with this type so callers can distinguish
    "the measurement plane is misbehaving, degrade gracefully" from a
    misconfigured experiment."""


class ControlPlaneFeedError(FaultInjectionError):
    """AS-X's control-plane feed (IGP listener / BGP route monitor) was
    unavailable for the whole event window; no
    :class:`~repro.core.control_plane.ControlPlaneView` could be
    assembled.  Diagnosis proceeds without control-plane inputs."""


class JournalError(ReproError):
    """A journal cannot serve this run: its header is unreadable or not a
    run journal's, or its fingerprint says a run with different arguments
    wrote it.  Raised when the journal is opened, before any work runs.
    User-diagnosable: the CLI prints the message on stderr and exits 2
    instead of dumping a traceback."""


class StreamError(ReproError):
    """The streaming diagnosis engine was misconfigured or handed an
    unusable event stream (unknown log format, zero-width window,
    non-monotonic logical clock, ...).  User-diagnosable: the CLIs print
    the message on stderr and exit 2 instead of dumping a traceback."""


class EpisodeOverflowError(StreamError):
    """The engine's bounded work queue *and* its deferral buffer are both
    full: episodes are opening faster than diagnoses retire them.  The
    engine refuses to shed diagnosis work silently — the caller must
    widen ``max_pending``/``overflow_limit``, drain more often, or slow
    the event source.

    ``shard`` carries the owning shard id when the overflow happened
    inside a sharded engine (``None`` for the single-shard engine).
    """

    def __init__(self, message: str, shard: "int | None" = None) -> None:
        super().__init__(message)
        self.shard = shard


class SupervisionError(StreamError):
    """A dead-letter journal cannot be read back: its header is not a
    ``repro-dlq-v1`` header, or one of its entries is not a
    dead-lettered event."""


class MonitorError(ReproError):
    """A long-horizon monitoring scenario was misconfigured or failed.

    Raised by :mod:`repro.monitor` for bad scenario knobs (negative
    dwell, unknown scenario name, empty candidate pools) before any
    expensive log building starts.
    """


class ValidationError(ReproError):
    """A diagnosis input violated one of the typed invariants of
    :mod:`repro.validate` under the ``strict`` policy.

    The message names the offending record and the invariant, so an
    operator can find the lying measurement instead of debugging a
    corrupted hypothesis set.  ``invariant`` is the stable invariant id
    (e.g. ``"trace-loop"``); ``record`` identifies the screened record
    (e.g. ``"probe 10.0.0.1->10.0.9.2 [post]"``).
    """

    def __init__(self, invariant: str, record: str, detail: str = "") -> None:
        message = f"invariant {invariant!r} violated by {record}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.invariant = invariant
        self.record = record
        self.detail = detail

    def __reduce__(self):
        # The default rebuilds from the message alone, which this
        # signature cannot take; a process pool pickles raised errors.
        return (type(self), (self.invariant, self.record, self.detail))
