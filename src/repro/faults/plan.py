"""Deterministic measurement-plane fault schedules.

NetDiagnoser's evaluation assumes an imperfect measurement plane — ASes
that block traceroute are only one fault mode (§3.4).  This module makes
every other realistic imperfection injectable *and reproducible*: dropped
and truncated traceroutes, anonymous ``'*'`` hops, sensor dropout, flaky
or rate-limited Looking Glass servers, and lost/delayed control-plane
feed messages.

Determinism is the design constraint.  Every decision is a pure function
of ``(plan seed, fault kind, decision key)``: the plan derives one
:class:`random.Random` per decision from ``f"{seed}/{kind}/{key}"`` —
the same seed-derivation idiom the experiment runner uses for its
per-placement RNGs (``f"{seed}/{placement_index}"``) — so decisions do
not depend on call order, process boundaries, or how many other faults
fired first.  A parallel sweep therefore injects bit-for-bit the same
faults as a serial one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Optional, Sequence, Tuple

from repro.errors import FaultInjectionError

__all__ = [
    "FaultConfig",
    "FaultPlan",
    "FAULT_MODES",
    "CORRUPTION_MODES",
    "CHAOS_MODES",
    "MONITOR_MODES",
    "FORGED_ADDRESS_PREFIX",
]

#: The five injectable fault modes, as named in reports and docs.
FAULT_MODES = (
    "traceroute",  # dropped/truncated probes, anonymous hops
    "sensor",      # sensor dropout
    "lg",          # flaky / rate-limited Looking Glasses
    "bgp-feed",    # lost/delayed BGP withdrawal messages
    "igp-feed",    # lost/delayed IGP link-down messages
)

#: The injectable *corruption* modes: faults that lie rather than omit.
#: Every mode produces a record that violates exactly one typed invariant
#: of :mod:`repro.validate`, so the ``strict`` policy detects each seeded
#: corruption by construction (no false negatives).
CORRUPTION_MODES = (
    "hop-forge",      # a forged hop address appears mid-trace
    "hop-dup",        # an identified hop is reported twice in a row
    "loop-inject",    # an earlier hop re-appears later (routing loop)
    "reach-flip",     # a completed probe is reported as unreachable
    "stale-replay",   # a pre-failure round is replayed as the T+ round
    "feed-dup",       # a control-feed message is delivered twice
    "feed-misorder",  # two feed messages arrive out of sequence order
    "lg-stale",       # an LG answers from a stale, wrong-epoch cache
)

#: The injectable *chaos* modes: faults of the diagnosis service itself
#: rather than the measurement plane.  These drive the supervision layer
#: (:mod:`repro.stream.supervise`): a supervised engine detects each mode
#: on the logical clock and recovers without losing accounted work.
CHAOS_MODES = (
    "shard-crash",    # a shard goes dark for restart_after ticks
    "shard-stall",    # a shard stops responding for N ticks, then resumes
    "slow-shard",     # a shard's tick output arrives one tick late
)

#: The long-horizon *monitoring* scenario modes (:mod:`repro.monitor`).
#: Unlike the fault/corruption/chaos modes these have no dedicated
#: :class:`FaultConfig` rate fields — the monitor owns its knobs in
#: ``MonitorConfig`` and routes every decision through the generic
#: :meth:`FaultPlan.fires` / :meth:`FaultPlan.dwell_ticks` /
#: :meth:`FaultPlan.pick` seam, so scenario schedules stay pure
#: functions of ``(seed, mode, decision key)`` like every other fault.
MONITOR_MODES = (
    "link-flap",     # one link flaps with a seeded dwell-time distribution
    "srlg-failure",  # a shared-risk link group fails as a unit
    "maintenance",   # a rolling (announced or silent) maintenance window
    "diurnal-probe", # per-pair liveness checks thinned by time of day
    "sensor-churn",  # sensors going dark and returning mid-run
    "as-block",      # an AS drops probe packets but still answers its LG
    "probe-noise",   # a healthy liveness check reported as failed
)

#: Dotted prefix of forged hop addresses (TEST-NET-3): guaranteed outside
#: the simulator's ``10.0.0.0/8`` allocation, so a forged hop never
#: resolves through the IP-to-AS mapper.
FORGED_ADDRESS_PREFIX = "203.0.113."


@dataclass(frozen=True)
class FaultConfig:
    """Per-mode fault rates, all probabilities in ``[0, 1]``.

    The default instance injects nothing; :meth:`uniform` drives every
    mode at one shared rate (the degradation-curve sweep's x axis).

    Attributes
    ----------
    trace_drop_rate:
        Probability that one (src, dst, epoch) traceroute is lost
        entirely (probe host offline, ICMP filtered end-to-end).
    trace_truncate_rate:
        Probability that a traceroute stops mid-path: only a prefix of
        its hops is reported and reachability becomes unknown (reported
        as not reached — what a real truncated probe looks like).
    hop_anon_rate:
        Per-hop probability that an otherwise identified router answers
        anonymously — an extra ``'*'`` on top of AS-level blocking.
    sensor_dropout_rate:
        Per-sensor probability that a sensor is down for the whole
        event (contributes no probes in either epoch).
    lg_failure_rate:
        Per-attempt probability that a Looking Glass query fails
        transiently (the collector retries with backoff).
    lg_query_budget:
        Maximum queries one AS's Looking Glass accepts per event before
        rate-limiting every further query (``0`` = unlimited).
    feed_outage_rate:
        Probability that AS-X's whole control-plane feed is down for
        the event (:class:`~repro.errors.ControlPlaneFeedError`).
    withdrawal_loss_rate / withdrawal_delay_rate:
        Per-message probability that a BGP withdrawal never reaches the
        collector / arrives after the diagnosis deadline.
    igp_loss_rate / igp_delay_rate:
        The same for IGP link-down messages.
    hop_forge_rate:
        Per-trace probability that a forged hop address (from
        :data:`FORGED_ADDRESS_PREFIX`) is spliced into the reported path.
    hop_duplicate_rate:
        Per-trace probability that one identified hop is reported twice
        in a row (a duplicated ICMP answer).
    loop_inject_rate:
        Per-trace probability that an earlier hop re-appears later in
        the path — the spurious routing loop of real traceroute corpora.
    reach_flip_rate:
        Per-probe probability that a probe which reached its destination
        is reported as unreachable (a flipped reachability bit; the hop
        sequence still ends at the destination, which is the telltale).
    stale_replay_rate:
        Per-pair probability that the sensor replays its pre-failure
        (T-) measurement as the current T+ round — the §6 clock-skew
        hazard.  The replayed record keeps its ``pre`` epoch tag.
    feed_duplicate_rate / feed_misorder_rate:
        Per-message probabilities that a control-feed message (BGP
        withdrawal or IGP link-down) is delivered twice / swapped with
        its predecessor so arrival order disagrees with sequence order.
    lg_stale_rate:
        Per-query probability that a Looking Glass answers from a stale
        cache: the AS path of the *other* epoch, recorded at the wrong
        vantage (its head AS is not the queried AS).
    shard_crash_rate:
        Per-(shard, tick) probability that the shard crashes at the end
        of that tick.  It stays dark for the supervisor's
        ``restart_after`` ticks with its state kept and its events
        buffered; the restart folds the buffer back.
    shard_stall_rate:
        Per-(shard, tick) probability that the shard stops heartbeating
        for a few ticks and then resumes with its state intact (a long
        GC pause, a wedged host).  Its events buffer while it is dark.
    slow_shard_rate:
        Per-(shard, tick) probability that the shard's tick output is
        one tick late: its events for tick *t* are folded only after
        tick *t* has otherwise completed.
    """

    trace_drop_rate: float = 0.0
    trace_truncate_rate: float = 0.0
    hop_anon_rate: float = 0.0
    sensor_dropout_rate: float = 0.0
    lg_failure_rate: float = 0.0
    lg_query_budget: int = 0
    feed_outage_rate: float = 0.0
    withdrawal_loss_rate: float = 0.0
    withdrawal_delay_rate: float = 0.0
    igp_loss_rate: float = 0.0
    igp_delay_rate: float = 0.0
    hop_forge_rate: float = 0.0
    hop_duplicate_rate: float = 0.0
    loop_inject_rate: float = 0.0
    reach_flip_rate: float = 0.0
    stale_replay_rate: float = 0.0
    feed_duplicate_rate: float = 0.0
    feed_misorder_rate: float = 0.0
    lg_stale_rate: float = 0.0
    shard_crash_rate: float = 0.0
    shard_stall_rate: float = 0.0
    slow_shard_rate: float = 0.0

    def __post_init__(self) -> None:
        for field in fields(self):
            value = getattr(self, field.name)
            if field.name == "lg_query_budget":
                if value < 0:
                    raise FaultInjectionError(
                        f"lg_query_budget must be >= 0, got {value}"
                    )
            elif not 0.0 <= value <= 1.0:
                raise FaultInjectionError(
                    f"{field.name} must be a probability in [0, 1], got {value}"
                )

    @classmethod
    def uniform(cls, rate: float) -> "FaultConfig":
        """Every fault mode at the same rate (the degradation sweep)."""
        return cls(
            trace_drop_rate=rate,
            trace_truncate_rate=rate,
            hop_anon_rate=rate,
            sensor_dropout_rate=rate,
            lg_failure_rate=rate,
            feed_outage_rate=rate,
            withdrawal_loss_rate=rate,
            withdrawal_delay_rate=rate,
            igp_loss_rate=rate,
            igp_delay_rate=rate,
        )

    @classmethod
    def corruption(cls, rate: float) -> "FaultConfig":
        """Every *corruption* mode at the same rate, no omission faults.

        This is the x axis of ``python -m repro degradation --corrupt``:
        the measurement plane returns complete but *lying* inputs, which
        only a validation policy can screen out.
        """
        return cls(
            hop_forge_rate=rate,
            hop_duplicate_rate=rate,
            loop_inject_rate=rate,
            reach_flip_rate=rate,
            stale_replay_rate=rate,
            feed_duplicate_rate=rate,
            feed_misorder_rate=rate,
            lg_stale_rate=rate,
        )

    @classmethod
    def chaos(cls, rate: float) -> "FaultConfig":
        """Every *chaos* mode at the same rate, nothing else.

        This is what ``--chaos RATE`` builds: the measurement plane is
        clean, but the diagnosis service's shards crash, stall and lag
        at ``rate``.
        """
        return cls(
            shard_crash_rate=rate,
            shard_stall_rate=rate,
            slow_shard_rate=rate,
        )

    _CORRUPTION_FIELDS = (
        "hop_forge_rate",
        "hop_duplicate_rate",
        "loop_inject_rate",
        "reach_flip_rate",
        "stale_replay_rate",
        "feed_duplicate_rate",
        "feed_misorder_rate",
        "lg_stale_rate",
    )

    def any_faults(self) -> bool:
        """True when at least one mode (omission or corruption) can fire."""
        return any(
            getattr(self, field.name)
            for field in fields(self)
            if field.name != "lg_query_budget"
        ) or bool(self.lg_query_budget)

    def any_corruption(self) -> bool:
        """True when at least one corruption mode can fire."""
        return any(getattr(self, name) for name in self._CORRUPTION_FIELDS)


class FaultPlan:
    """One deterministic fault schedule, derived from a seed.

    A plan is cheap (seed string + config), picklable, and safe to share
    or re-derive across processes: the decisions it hands out are a pure
    function of its seed, never of its call history.  The runner builds
    one plan per placement (``f"{seed}/{placement_index}"``) and scopes
    it per sampled scenario (:meth:`scoped`), which is exactly what
    keeps a ``workers=N`` sweep bit-identical to a serial one.
    """

    def __init__(self, seed: object, config: FaultConfig) -> None:
        self.seed = str(seed)
        self.config = config

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return f"FaultPlan(seed={self.seed!r}, config={self.config!r})"

    def scoped(self, suffix: object) -> "FaultPlan":
        """A sub-plan with an extended seed (per scenario, per kind...)."""
        return FaultPlan(f"{self.seed}/{suffix}", self.config)

    # ------------------------------------------------------------ decisions

    def _rng(self, kind: str, *key: object) -> random.Random:
        parts = "/".join(str(part) for part in key)
        return random.Random(f"{self.seed}/{kind}/{parts}")

    def _fires(self, rate: float, kind: str, *key: object) -> bool:
        if rate <= 0.0:
            return False
        return self._rng(kind, *key).random() < rate

    # -- generic seam (monitor scenarios and other callers with own knobs)

    def fires(self, rate: float, kind: str, *key: object) -> bool:
        """Does the decision named ``(kind, *key)`` fire at ``rate``?

        The public face of the seeded-hash machinery for callers whose
        rates live outside :class:`FaultConfig` (the :mod:`repro.monitor`
        scenario engine).  Same contract as every built-in mode: a pure
        function of ``(plan seed, kind, key)``, independent of call
        order and of every other decision.
        """
        if not 0.0 <= rate <= 1.0:
            raise FaultInjectionError(
                f"rate for {kind!r} must be a probability in [0, 1], got {rate}"
            )
        return self._fires(rate, kind, *key)

    def dwell_ticks(
        self, mean: float, cap: int, kind: str, *key: object
    ) -> int:
        """A seeded dwell time in ``[1, cap]`` with geometric mean ``mean``.

        Drives how long a flapped link stays down, a stalled sensor stays
        dark, a blocking filter stays installed.  Geometric (memoryless)
        dwell is the classic link-flap model; the cap keeps one unlucky
        draw from freezing a whole scenario.
        """
        if mean < 1.0 or cap < 1:
            raise FaultInjectionError(
                f"dwell for {kind!r} needs mean >= 1 and cap >= 1 "
                f"(got mean={mean}, cap={cap})"
            )
        rng = self._rng(kind, *key)
        continue_p = 1.0 - 1.0 / mean
        dwell = 1
        while dwell < cap and rng.random() < continue_p:
            dwell += 1
        return dwell

    def pick(self, population: Sequence, k: int, kind: str, *key: object) -> list:
        """A seeded ``k``-sample of ``population`` (sorted first).

        Sorting before sampling makes the draw independent of the
        caller's iteration order — two processes enumerating the same
        candidate pool differently still pick the same members.
        """
        pool = sorted(population)
        if k > len(pool):
            raise FaultInjectionError(
                f"cannot pick {k} of {len(pool)} candidates for {kind!r}"
            )
        return self._rng(kind, *key).sample(pool, k)

    # -- traceroute plane

    def drop_trace(self, src: str, dst: str, epoch: str) -> bool:
        """Lose the (src, dst) traceroute of ``epoch`` entirely?"""
        return self._fires(
            self.config.trace_drop_rate, "trace-drop", src, dst, epoch
        )

    def truncate_trace(
        self, src: str, dst: str, epoch: str, n_hops: int
    ) -> Optional[int]:
        """Hops to keep when this trace is truncated, else ``None``.

        A truncated trace keeps a uniform non-empty strict prefix of its
        hops, so there is always at least the first hop and never the
        full path.
        """
        if n_hops < 2:
            return None
        rng = self._rng("trace-truncate", src, dst, epoch)
        if self.config.trace_truncate_rate <= 0.0:
            return None
        if rng.random() >= self.config.trace_truncate_rate:
            return None
        return rng.randint(1, n_hops - 1)

    def anonymize_hop(self, src: str, dst: str, epoch: str, index: int) -> bool:
        """Does hop ``index`` of this trace answer anonymously?"""
        return self._fires(
            self.config.hop_anon_rate, "hop-anon", src, dst, epoch, index
        )

    # -- sensor plane

    def sensor_down(self, address: str) -> bool:
        """Is the sensor at ``address`` down for this event?"""
        return self._fires(
            self.config.sensor_dropout_rate, "sensor-down", address
        )

    # -- Looking Glass plane

    def lg_attempt_fails(
        self, asn: int, dst_address: str, epoch: str, attempt: int
    ) -> bool:
        """Does attempt number ``attempt`` of this LG query fail?"""
        return self._fires(
            self.config.lg_failure_rate, "lg-fail", asn, dst_address, epoch, attempt
        )

    # -- control-plane feeds

    def feed_outage(self) -> bool:
        """Is AS-X's whole control-plane feed down for this event?"""
        return self._fires(self.config.feed_outage_rate, "feed-outage")

    def lose_withdrawal(self, prefix: str, at: str, frm: str) -> bool:
        return self._fires(
            self.config.withdrawal_loss_rate, "wd-loss", prefix, at, frm
        )

    def delay_withdrawal(self, prefix: str, at: str, frm: str) -> bool:
        return self._fires(
            self.config.withdrawal_delay_rate, "wd-delay", prefix, at, frm
        )

    def lose_igp(self, address_a: str, address_b: str) -> bool:
        return self._fires(
            self.config.igp_loss_rate, "igp-loss", address_a, address_b
        )

    def delay_igp(self, address_a: str, address_b: str) -> bool:
        return self._fires(
            self.config.igp_delay_rate, "igp-delay", address_a, address_b
        )

    # -- corruption: the measurement plane lies instead of omitting

    def forge_hop(
        self, src: str, dst: str, epoch: str, n_hops: int
    ) -> Optional[Tuple[int, str]]:
        """(insertion index, forged address) for this trace, or ``None``.

        The forged address comes from :data:`FORGED_ADDRESS_PREFIX` and
        is spliced between two existing hops, never displacing the
        endpoint positions.
        """
        if n_hops < 2 or self.config.hop_forge_rate <= 0.0:
            return None
        rng = self._rng("hop-forge", src, dst, epoch)
        if rng.random() >= self.config.hop_forge_rate:
            return None
        index = rng.randint(1, n_hops - 1)
        return index, f"{FORGED_ADDRESS_PREFIX}{rng.randint(1, 254)}"

    def duplicate_hop(
        self, src: str, dst: str, epoch: str, n_hops: int
    ) -> Optional[int]:
        """Interior hop index to report twice in a row, or ``None``."""
        if n_hops < 3 or self.config.hop_duplicate_rate <= 0.0:
            return None
        rng = self._rng("hop-dup", src, dst, epoch)
        if rng.random() >= self.config.hop_duplicate_rate:
            return None
        return rng.randint(1, n_hops - 2)

    def inject_loop(
        self, src: str, dst: str, epoch: str, n_hops: int
    ) -> Optional[Tuple[int, int]]:
        """(earlier index, re-insert-after index) of a spurious loop.

        The hop at the first index re-appears after the second, so its
        address occurs twice non-adjacently — the classic looping trace.
        """
        if n_hops < 3 or self.config.loop_inject_rate <= 0.0:
            return None
        rng = self._rng("loop-inject", src, dst, epoch)
        if rng.random() >= self.config.loop_inject_rate:
            return None
        earlier = rng.randint(0, n_hops - 3)
        later = rng.randint(earlier + 1, n_hops - 2)
        return earlier, later

    def flip_reach_bit(self, src: str, dst: str, epoch: str) -> bool:
        """Report this completed probe as unreachable?"""
        return self._fires(
            self.config.reach_flip_rate, "reach-flip", src, dst, epoch
        )

    def stale_replay(self, src: str, dst: str) -> bool:
        """Does this sensor replay its T- probe of (src, dst) as T+?"""
        return self._fires(self.config.stale_replay_rate, "stale-replay", src, dst)

    def duplicate_feed_message(self, kind: str, *key: object) -> bool:
        """Is this control-feed message delivered twice?"""
        return self._fires(
            self.config.feed_duplicate_rate, f"feed-dup/{kind}", *key
        )

    def misorder_feed_message(self, kind: str, *key: object) -> bool:
        """Does this message arrive before its predecessor?"""
        return self._fires(
            self.config.feed_misorder_rate, f"feed-misorder/{kind}", *key
        )

    def lg_stale_answer(self, asn: int, dst_address: str, epoch: str) -> bool:
        """Does this Looking Glass answer from its stale cache?"""
        return self._fires(
            self.config.lg_stale_rate, "lg-stale", asn, dst_address, epoch
        )

    def lg_backoff_jitter(
        self, asn: int, dst_address: str, epoch: str, attempt: int
    ) -> float:
        """Deterministic jitter factor in ``[0, 1)`` for one retry delay.

        The collector multiplies its exponential delay by
        ``0.5 + jitter`` so concurrent retries against one flaky Looking
        Glass decorrelate instead of thundering in lockstep, while the
        schedule stays a pure function of the run seed.
        """
        return self._rng("lg-jitter", asn, dst_address, epoch, attempt).random()

    # -- service chaos: faults of the diagnosis service itself

    def shard_crashes(self, shard: int, tick: int) -> bool:
        """Does shard ``shard`` crash at the end of tick ``tick``?"""
        return self._fires(
            self.config.shard_crash_rate, "shard-crash", shard, tick
        )

    def shard_stall_ticks(self, shard: int, tick: int) -> int:
        """Ticks shard ``shard`` goes dark from ``tick`` (0 = no stall).

        A stalled shard keeps its state but stops heartbeating; the
        supervisor buffers its events and folds them on resume.
        """
        if self.config.shard_stall_rate <= 0.0:
            return 0
        rng = self._rng("shard-stall", shard, tick)
        if rng.random() >= self.config.shard_stall_rate:
            return 0
        return rng.randint(1, 3)

    def shard_slow(self, shard: int, tick: int) -> bool:
        """Is shard ``shard``'s output for tick ``tick`` one tick late?"""
        return self._fires(
            self.config.slow_shard_rate, "slow-shard", shard, tick
        )

    # ------------------------------------------------------------ plumbing

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FaultPlan)
            and self.seed == other.seed
            and self.config == other.config
        )

    def __hash__(self) -> int:
        return hash((self.seed, self.config))

    def __getstate__(self) -> Tuple[str, FaultConfig]:
        return (self.seed, self.config)

    def __setstate__(self, state: Tuple[str, FaultConfig]) -> None:
        self.seed, self.config = state
