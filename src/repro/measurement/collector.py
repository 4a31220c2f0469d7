"""The troubleshooter-side collector: snapshots, control feeds, LG access.

This is the glue the paper places at AS-X's Network Operation Center: it
gathers the sensors' before/after meshes into a
:class:`~repro.core.pathset.MeasurementSnapshot`, converts AS-X's routing
messages into a :class:`~repro.core.control_plane.ControlPlaneView`, and
binds Looking Glass queries into the callback signature ND-LG expects.

The collector is also where graceful degradation is enforced.  Under an
active :class:`~repro.faults.FaultPlan` the raw inputs are partial:
probes vanish or truncate, sensors are down, feed messages are lost,
Looking Glasses flake out.  The collector reconciles what survives into
inputs that still satisfy the diagnosis layer's invariants — pairs
without a clean T- baseline are discarded (and counted), LG queries are
retried with exponential backoff under a max-attempts budget, and a
whole-feed outage surfaces as a typed
:class:`~repro.errors.ControlPlaneFeedError` instead of a crash deep in
an algorithm.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional, Sequence, Tuple

from repro.core.control_plane import (
    ControlPlaneView,
    IgpLinkDownObservation,
    WithdrawalObservation,
)
from repro.core.nd_lg import LgLookup
from repro.core.pathset import (
    EPOCH_POST,
    EPOCH_PRE,
    MeasurementSnapshot,
    PathStore,
)
from repro.errors import ControlPlaneFeedError, MeasurementError
from repro.faults import DegradationReport, FaultPlan
from repro.validate import Validator
from repro.measurement.probing import probe_mesh
from repro.measurement.sensors import Sensor, surviving_sensors
from repro.netsim.lookingglass import (
    FlakyLookingGlassService,
    LookingGlassRateLimited,
    LookingGlassService,
    LookingGlassUnavailable,
)
from repro.netsim.simulator import Simulator
from repro.netsim.topology import NetworkState

__all__ = [
    "take_snapshot",
    "collect_control_plane",
    "make_lg_lookup",
    "DEFAULT_LG_MAX_ATTEMPTS",
    "DEFAULT_LG_BACKOFF_BASE",
]

#: Retry budget per Looking Glass query: first attempt + 3 retries.
DEFAULT_LG_MAX_ATTEMPTS = 4

#: Base of the exponential backoff schedule between LG retries, in
#: seconds: attempt ``k`` waits ``base * 2**k``.  The simulation does not
#: actually sleep unless a ``sleep`` callable is supplied.
DEFAULT_LG_BACKOFF_BASE = 0.1


def _reconcile_rounds(
    before: PathStore, after: PathStore, report: Optional[DegradationReport]
) -> Tuple[PathStore, PathStore]:
    """Keep only pairs with a clean T- baseline measured in both rounds.

    The troubleshooter is only invoked on previously-working pairs, and
    the snapshot invariant requires both rounds to cover the same pairs.
    Faults break both: a probe may be dropped in one epoch only, and a
    truncated T- probe has no usable baseline.  Such pairs are discarded
    from both rounds and counted — the diagnosis runs best-effort on
    what remains.
    """
    kept = [
        pair
        for pair in before.pairs()
        if pair in after and before.get(pair).reached
    ]
    discarded = len(set(before.pairs()) | set(after.pairs())) - len(kept)
    if report is not None:
        report.pairs_discarded += discarded
    if not discarded:
        return before, after
    new_before, new_after = PathStore(), PathStore()
    for pair in kept:
        new_before.add(before.get(pair))
        new_after.add(after.get(pair))
    return new_before, new_after


def _replay_stale_rounds(
    before: PathStore,
    after: PathStore,
    faults: FaultPlan,
    report: Optional[DegradationReport],
) -> PathStore:
    """Corruption: a clock-skewed sensor re-reports T- probes as T+.

    The replayed record keeps its ``epoch="pre"`` tag — exactly the
    fingerprint a stale sensor leaves in practice (§6), and the one the
    ``trace-epoch`` invariant of :mod:`repro.validate` catches.  Without
    a validator the lie flows through, silently hiding the failure on
    that pair — which is the point of the corruption experiment.
    """
    replayed = {
        pair: before.get(pair)
        for pair in after.pairs()
        if pair in before and faults.stale_replay(*pair)
    }
    if not replayed:
        return after
    if report is not None:
        report.stale_replays += len(replayed)
    rebuilt = PathStore()
    for pair in after.pairs():
        rebuilt.add(replayed.get(pair, after.get(pair)))
    return rebuilt


def take_snapshot(
    sim: Simulator,
    sensors: Sequence[Sensor],
    before_state: NetworkState,
    after_state: NetworkState,
    blocked_ases: FrozenSet[int] = frozenset(),
    faults: Optional[FaultPlan] = None,
    report: Optional[DegradationReport] = None,
    validator: Optional[Validator] = None,
    baseline: Optional[PathStore] = None,
) -> MeasurementSnapshot:
    """Probe the mesh at T- and T+ and assemble the snapshot.

    Under an active fault plan the surviving-sensor mesh is probed, the
    scheduled traceroute faults applied, and the two rounds reconciled
    so the snapshot invariants hold on whatever measurements survive.
    When a :class:`~repro.validate.Validator` is supplied it screens
    every probe path (and the cross-round invariants) under its policy
    before the snapshot is assembled — corrupt records raise, get
    repaired, or are quarantined there instead of reaching a diagnoser.

    ``baseline`` is a T- round already probed with the same sensors,
    state and blocked ASes; faults and screening need a fresh one.
    """
    if baseline is not None and (faults is not None or validator is not None):
        raise MeasurementError("a reused T- round cannot be faulted or screened")
    mapper = sim.mapper
    up = surviving_sensors(sensors, faults, report)
    before = baseline
    if before is None:
        before = probe_mesh(
            sim, up, before_state, blocked_ases, EPOCH_PRE, faults, report
        )
    after = probe_mesh(
        sim, up, after_state, blocked_ases, EPOCH_POST, faults, report
    )
    if faults is not None:
        after = _replay_stale_rounds(before, after, faults, report)
    if validator is not None:
        before = validator.screen_store(before, mapper.asn_of, EPOCH_PRE)
        after = validator.screen_store(after, mapper.asn_of, EPOCH_POST)
        before, after = validator.screen_rounds(before, after)
    elif faults is not None:
        before, after = _reconcile_rounds(before, after, report)
    return MeasurementSnapshot(before=before, after=after, asn_of=mapper.asn_of)


def _corrupt_feed(
    messages: list,
    kind: str,
    faults: Optional[FaultPlan],
    report: Optional[DegradationReport],
) -> list:
    """Corruption: a flaky feed session re-delivers and reorders.

    Duplicates re-append the identical record (same ``seq`` — a true
    re-delivery); misordering swaps a message with its predecessor, the
    sequence numbers travelling with their records so the inversion is
    visible to the ``feed-order`` invariant.
    """
    if faults is None or not messages:
        return messages
    corrupted = []
    for message in messages:
        corrupted.append(message)
        if faults.duplicate_feed_message(kind, message.seq):
            corrupted.append(message)
            if report is not None:
                report.feed_messages_duplicated += 1
    for index in range(1, len(corrupted)):
        if faults.misorder_feed_message(kind, index):
            corrupted[index - 1], corrupted[index] = (
                corrupted[index],
                corrupted[index - 1],
            )
            if report is not None:
                report.feed_messages_misordered += 1
    return corrupted


def collect_control_plane(
    sim: Simulator,
    asx: int,
    before_state: NetworkState,
    after_state: NetworkState,
    faults: Optional[FaultPlan] = None,
    report: Optional[DegradationReport] = None,
    validator: Optional[Validator] = None,
) -> ControlPlaneView:
    """AS-X's IGP link-down messages and BGP withdrawal log for one event.

    A lossy feed drops or delays individual messages (counted on the
    view and the report); a whole-feed outage raises
    :class:`~repro.errors.ControlPlaneFeedError` — callers degrade to
    diagnosing without control-plane inputs.  Messages carry arrival
    sequence numbers; when a :class:`~repro.validate.Validator` is
    supplied, each stream is screened for duplicates and ordering
    before the view is assembled.
    """
    if faults is not None and faults.feed_outage():
        if report is not None:
            report.feed_outages += 1
            report.note("control-plane feed outage")
        raise ControlPlaneFeedError(
            f"AS{asx}'s control-plane feed was down for this event"
        )
    net = sim.net
    igp_down = []
    igp_lost = igp_delayed = 0
    for link in sim.igp_link_down(asx, after_state):
        address_a = net.router(link.a).address
        address_b = net.router(link.b).address
        if faults is not None and faults.lose_igp(address_a, address_b):
            igp_lost += 1
            continue
        if faults is not None and faults.delay_igp(address_a, address_b):
            igp_delayed += 1
            continue
        igp_down.append(
            IgpLinkDownObservation(
                address_a=address_a,
                address_b=address_b,
                seq=len(igp_down) + igp_lost + igp_delayed,
            )
        )
    withdrawals = []
    wd_lost = wd_delayed = 0
    for w in sim.withdrawals(asx, before_state, after_state):
        at_address = net.router(w.at_router).address
        from_address = net.router(w.from_router).address
        if faults is not None and faults.lose_withdrawal(
            w.prefix, at_address, from_address
        ):
            wd_lost += 1
            continue
        if faults is not None and faults.delay_withdrawal(
            w.prefix, at_address, from_address
        ):
            wd_delayed += 1
            continue
        withdrawals.append(
            WithdrawalObservation(
                prefix=w.prefix,
                at_address=at_address,
                from_address=from_address,
                from_asn=w.from_asn,
                seq=len(withdrawals) + wd_lost + wd_delayed,
            )
        )
    if report is not None:
        report.igp_lost += igp_lost
        report.igp_delayed += igp_delayed
        report.withdrawals_lost += wd_lost
        report.withdrawals_delayed += wd_delayed
    igp_down = _corrupt_feed(igp_down, "igp", faults, report)
    withdrawals = _corrupt_feed(withdrawals, "bgp-withdrawal", faults, report)
    if validator is not None:
        igp_down = list(validator.screen_feed(igp_down, "igp"))
        withdrawals = list(
            validator.screen_feed(withdrawals, "bgp-withdrawal")
        )
    return ControlPlaneView(
        asx_asn=asx,
        igp_link_down=tuple(igp_down),
        withdrawals=tuple(withdrawals),
        withdrawals_lost=wd_lost,
        withdrawals_delayed=wd_delayed,
        igp_lost=igp_lost,
        igp_delayed=igp_delayed,
    )


def make_lg_lookup(
    sim: Simulator,
    lg_service: LookingGlassService,
    before_state: NetworkState,
    after_state: NetworkState,
    asx: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
    report: Optional[DegradationReport] = None,
    validator: Optional[Validator] = None,
    max_attempts: int = DEFAULT_LG_MAX_ATTEMPTS,
    backoff_base: float = DEFAULT_LG_BACKOFF_BASE,
    sleep: Optional[Callable[[float], None]] = None,
) -> LgLookup:
    """Bind Looking Glass queries into ND-LG's callback signature.

    The callback receives (asn, destination sensor address, epoch) and
    returns the AS path that AS would report towards the destination's
    prefix under the matching routing state.  AS-X itself needs no public
    LG — it reads its own BGP table — so queries for ``asx`` bypass the
    availability check.

    Under an active fault plan the service is wrapped in a
    :class:`~repro.netsim.lookingglass.FlakyLookingGlassService` and
    each query is retried up to ``max_attempts`` times with exponential
    backoff plus seeded jitter (``backoff_base * 2**attempt`` scaled by
    a factor in ``[0.5, 1.5)`` drawn from the fault plan's per-decision
    RNG, so retrying sensors decorrelate without losing bit-determinism
    under the run seed; pass ``sleep=time.sleep`` to wait in real time —
    the default records the schedule without sleeping, since simulated
    Looking Glasses answer instantly).  A rate-limited AS or an
    exhausted retry budget degrades to ``None`` — to ND-LG,
    indistinguishable from an AS with no Looking Glass at all.

    The ``lg-stale`` corruption mode serves an answer from the *other*
    epoch's table with the local head AS missing — a web cache replaying
    the neighbour-learned path it stored before the event.  A supplied
    :class:`~repro.validate.Validator` screens every answer (strict:
    raise; repair/quarantine: degrade the bad answer to ``None``).
    AS-X's own table is read directly and is never stale.
    """
    if max_attempts < 1:
        raise MeasurementError(
            f"LG retry budget must allow at least one attempt, got {max_attempts}"
        )
    mapper = sim.mapper
    states = {EPOCH_PRE: before_state, EPOCH_POST: after_state}
    flaky = (
        FlakyLookingGlassService(lg_service, faults)
        if faults is not None
        else None
    )

    def query_with_retries(asn, prefix, routing, dst_address, epoch):
        for attempt in range(max_attempts):
            try:
                return flaky.query(
                    asn, prefix, routing, dst_address, epoch, attempt
                )
            except LookingGlassRateLimited:
                if report is not None:
                    report.lg_rate_limited += 1
                return None
            except LookingGlassUnavailable:
                if report is not None:
                    report.lg_failures += 1
                if attempt + 1 < max_attempts:
                    if report is not None:
                        report.lg_retries += 1
                    if sleep is not None:
                        delay = backoff_base * (2 ** attempt)
                        if faults is not None:
                            # Full-jitter-lite: scale by [0.5, 1.5) from
                            # the plan's keyed RNG, so a thundering herd
                            # of retries decorrelates yet the schedule
                            # is a pure function of the run seed.
                            delay *= 0.5 + faults.lg_backoff_jitter(
                                asn, dst_address, epoch, attempt
                            )
                        sleep(delay)
        if report is not None:
            report.lg_exhausted += 1
        return None

    def stale_answer(asn, prefix, epoch, answer):
        other = EPOCH_POST if epoch == EPOCH_PRE else EPOCH_PRE
        stale_routing = sim.routing(states[other])
        stale = None
        if prefix in stale_routing.prefixes:
            stale = stale_routing.as_path(asn, prefix)
        if stale is None:
            stale = answer
        if len(stale) > 1:
            return stale[1:]
        return (stale[0], stale[0])

    def lookup(asn: int, dst_address: str, epoch: str) -> Optional[Tuple[int, ...]]:
        if epoch not in states:
            raise MeasurementError(f"unknown measurement epoch {epoch!r}")
        prefix = mapper.prefix_containing(dst_address)
        if prefix is None:
            return None
        routing = sim.routing(states[epoch])
        if asx is not None and asn == asx:
            if prefix not in routing.prefixes:
                return None
            answer = routing.as_path(asn, prefix)
        elif prefix not in routing.prefixes:
            return None
        else:
            if flaky is None:
                answer = lg_service.query(asn, prefix, routing)
            else:
                answer = query_with_retries(
                    asn, prefix, routing, dst_address, epoch
                )
            if (
                answer is not None
                and faults is not None
                and faults.lg_stale_answer(asn, dst_address, epoch)
            ):
                answer = stale_answer(asn, prefix, epoch, answer)
                if report is not None:
                    report.lg_stale_answers += 1
        if validator is not None:
            answer = validator.screen_lg_path(asn, answer, dst_address, epoch)
        return answer

    return lookup
