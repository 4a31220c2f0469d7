"""Failure-scenario samplers (§4, "Failure scenarios").

The paper samples events uniformly over the measured infrastructure and
only keeps events that cause *unreachability* between some sensor pair
("the algorithm aims to diagnose only those failures that lead to
unreachability among some sensors"; reroutable-only events never invoke
the troubleshooter).  The samplers here mirror that admission loop:

* ``link-x`` — break x ∈ {1, 2, 3} random links currently on probed paths;
* ``router`` — break one random non-gateway router on a probed path
  (failing a sensor's own gateway kills the sensor, not a path — the
  overlay cannot probe from a dead vantage point);
* ``misconfig`` — pick a random probed interdomain link, one of its end
  routers, and some sensor route(s) it currently exports across that
  session; filter them (§3.1);
* ``misconfig+link`` — a misconfiguration and a link failure at once.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.errors import ScenarioError
from repro.measurement.sensors import Sensor
from repro.netsim.events import (
    CompositeEvent,
    Event,
    LinkFailureEvent,
    MisconfigurationEvent,
    RouterFailureEvent,
)
from repro.netsim.simulator import Simulator
from repro.netsim.topology import ExportFilter, NetworkState

__all__ = ["Scenario", "ScenarioSampler", "SCENARIO_KINDS"]

logger = logging.getLogger(__name__)

SCENARIO_KINDS = (
    "link-1",
    "link-2",
    "link-3",
    "router",
    "misconfig",
    "misconfig+link",
)


@dataclass(frozen=True)
class Scenario:
    """One admitted failure scenario."""

    kind: str
    event: Event
    after_state: NetworkState


class ScenarioSampler:
    """Samples admissible failure scenarios for one sensor deployment.

    Probed links/routers are discovered once from the ground-truth
    forwarding paths of the pre-failure mesh; every sampler then resamples
    until the event breaks at least one sensor pair (or the attempt budget
    runs out, raising :class:`~repro.errors.ScenarioError` — e.g. when the
    deployment is so redundant that single failures are always rerouted).
    """

    def __init__(
        self,
        sim: Simulator,
        sensors: Sequence[Sensor],
        rng: random.Random,
        base_state: Optional[NetworkState] = None,
        max_attempts: int = 300,
        intra_failures_only: bool = False,
    ) -> None:
        self.sim = sim
        self.sensors = list(sensors)
        self.rng = rng
        self.base_state = base_state or NetworkState.nominal()
        self.max_attempts = max_attempts
        #: Restrict link-failure sampling to intradomain links.  Used by
        #: the blocked-traceroute experiments (Figures 11-12), where each
        #: failure must be attributable to a single — blockable — AS so
        #: that "a failure lands in a blocking AS with probability f_b".
        self.intra_failures_only = intra_failures_only
        self._discover_probed()

    def _discover_probed(self) -> None:
        net = self.sim.net
        links: Set[int] = set()
        routers: Set[int] = set()
        #: Each ordered sensor pair's walk key and whether its probe
        #: reaches under the simulator's pinned baseline (the base state,
        #: unless another state was converged first).
        self._pairs: List[Tuple[tuple, bool]] = []
        for src in self.sensors:
            for dst in self.sensors:
                if src.sensor_id == dst.sensor_id:
                    continue
                trace = self.sim.trace(self.base_state, src.router_id, dst.router_id)
                self._pairs.append(
                    ((src.router_id, dst.router_id, ()), trace.reached)
                )
                path = trace.router_path()
                routers.update(path)
                for a, b in zip(path, path[1:]):
                    link = net.link_between(a, b)
                    assert link is not None
                    links.add(link.lid)
        gateways = {s.router_id for s in self.sensors}
        self.probed_links: List[int] = sorted(links)
        self.probed_inter_links: List[int] = sorted(
            lid for lid in links if net.is_interdomain(lid)
        )
        self.probed_intra_links: List[int] = sorted(
            lid for lid in links if not net.is_interdomain(lid)
        )
        self.probed_routers: List[int] = sorted(routers - gateways)
        if not self.probed_links:
            raise ScenarioError("the sensor mesh probed no links at all")
        self.failure_pool: List[int] = (
            self.probed_intra_links
            if self.intra_failures_only
            else self.probed_links
        )
        if not self.failure_pool:
            raise ScenarioError("no probed links eligible for failure sampling")
        pinned = self.sim.engine.baseline[0]
        if pinned != self.base_state:
            # An untouched pair reaches as under the simulator's pinned
            # baseline, which another state converged first.
            self._pairs = [
                (key, self.sim.trace(pinned, key[0], key[1]).reached)
                for key, _reached in self._pairs
            ]

    # ------------------------------------------------------------- sampling

    def sample(self, kind: str) -> Scenario:
        """Sample one admissible scenario of the given kind."""
        if kind.startswith("link-"):
            return self.sample_link_failures(int(kind.split("-", 1)[1]))
        if kind == "router":
            return self.sample_router_failure()
        if kind == "misconfig":
            return self.sample_misconfiguration()
        if kind == "misconfig+link":
            return self.sample_misconfig_plus_link()
        raise ScenarioError(f"unknown scenario kind {kind!r}")

    def sample_link_failures(self, count: int) -> Scenario:
        """x simultaneous link failures among the eligible probed links."""
        if count < 1 or count > len(self.failure_pool):
            raise ScenarioError(
                f"cannot fail {count} links out of {len(self.failure_pool)} eligible"
            )
        for _ in range(self.max_attempts):
            chosen = tuple(sorted(self.rng.sample(self.failure_pool, count)))
            event = LinkFailureEvent(chosen)
            scenario = self._admit(f"link-{count}", event)
            if scenario is not None:
                return scenario
        raise ScenarioError(
            f"no admissible {count}-link failure in {self.max_attempts} attempts"
        )

    def sample_router_failure(self) -> Scenario:
        """One router failure (all attached links break — an SRLG)."""
        if not self.probed_routers:
            raise ScenarioError("no probed non-gateway router to fail")
        for _ in range(self.max_attempts):
            event = RouterFailureEvent(self.rng.choice(self.probed_routers))
            scenario = self._admit("router", event)
            if scenario is not None:
                return scenario
        raise ScenarioError(
            f"no admissible router failure in {self.max_attempts} attempts"
        )

    def sample_misconfiguration(
        self, granularity: str = "neighbor", require_partial: bool = True
    ) -> Scenario:
        """One BGP export-filter misconfiguration (§4).

        ``granularity="neighbor"`` (default) filters the whole group of
        routes the exporter learned from one of its neighbours — the
        realistic shape, since "BGP policies are usually set on a
        per-neighbor basis" (§3.1), and the shape the per-neighbour logical
        links of NetDiagnoser are designed to capture.
        ``granularity="prefix"`` filters a single prefix instead; it is the
        finer failure the paper explicitly declares out of logical-link
        reach, kept here for the granularity ablation.

        ``require_partial`` additionally demands that the misconfigured
        link still carries at least one working probe path *in the filtered
        direction* after the event — the defining property of a
        misconfiguration ("the link works for a subset of paths but not for
        others", §1); without it the filter degenerates into an ordinary
        link failure.
        """
        event = self._draw_misconfig(granularity)
        for _ in range(self.max_attempts):
            scenario = self._admit("misconfig", event)
            if scenario is not None and (
                not require_partial
                or self._misconfig_is_partial(event, scenario.after_state)
            ):
                return scenario
            event = self._draw_misconfig(granularity)
        raise ScenarioError(
            f"no admissible misconfiguration in {self.max_attempts} attempts"
        )

    def sample_misconfig_plus_link(self) -> Scenario:
        """A misconfiguration and an unrelated link failure together."""
        for _ in range(self.max_attempts):
            misconfig = self._draw_misconfig("neighbor")
            pool = [
                lid
                for lid in self.probed_links
                if lid != misconfig.export_filter.link_id
            ]
            if not pool:
                raise ScenarioError("no second link available to fail")
            link_event = LinkFailureEvent((self.rng.choice(pool),))
            event = CompositeEvent((misconfig, link_event))
            scenario = self._admit("misconfig+link", event)
            if scenario is not None and self._misconfig_is_partial(
                misconfig, scenario.after_state
            ):
                return scenario
        raise ScenarioError(
            f"no admissible misconfig+link in {self.max_attempts} attempts"
        )

    # -------------------------------------------------------------- helpers

    def _draw_misconfig(self, granularity: str) -> MisconfigurationEvent:
        """Draw a candidate misconfiguration (admission checked separately).

        Picks a probed interdomain link, one end router as the
        misconfigured exporter, and — per ``granularity`` — either the full
        group of exported sensor routes learned from one of the exporter's
        neighbours, or a single exported prefix.
        """
        if granularity not in ("neighbor", "prefix"):
            raise ScenarioError(f"unknown misconfig granularity {granularity!r}")
        if not self.probed_inter_links:
            raise ScenarioError("no probed interdomain link to misconfigure")
        routing = self.sim.routing(self.base_state)
        net = self.sim.net
        for _ in range(self.max_attempts):
            lid = self.rng.choice(self.probed_inter_links)
            link = net.link(lid)
            at_router = self.rng.choice(link.endpoints())
            exporter_asn = net.asn_of_router(at_router)
            exported = sorted(routing.advertised(lid, exporter_asn))
            if not exported:
                continue
            if granularity == "prefix":
                chosen = [self.rng.choice(exported)]
            else:
                # Group exported routes by the neighbour the exporter AS
                # learned them from (its own prefix forms the origin group).
                groups: dict = {}
                for prefix in exported:
                    route = routing.best(exporter_asn, prefix)
                    assert route is not None
                    groups.setdefault(route.neighbor_asn, []).append(prefix)
                key = self.rng.choice(sorted(groups, key=lambda k: (k is None, k)))
                chosen = groups[key]
            return MisconfigurationEvent(
                ExportFilter(
                    link_id=lid,
                    at_router=at_router,
                    prefixes=frozenset(chosen),
                )
            )
        raise ScenarioError(
            "could not find an interdomain session exporting any sensor route"
        )

    def _admit(self, kind: str, event: Event) -> Optional[Scenario]:
        """Return the scenario when the event breaks some pair, else None."""
        after = event.apply_to(self.base_state)
        if self._mesh_broken(after):
            logger.debug("admitted %s: %s", kind, event.describe(self.sim.net))
            return Scenario(kind=kind, event=event, after_state=after)
        logger.debug("rejected %s (no unreachability): %s",
                     kind, event.describe(self.sim.net))
        return None

    def _misconfig_is_partial(
        self, event: MisconfigurationEvent, state: NetworkState
    ) -> bool:
        """True when some working probe path still crosses the misconfigured
        session in the filtered direction.

        An export filter at router r towards peer q suppresses routes q
        uses to forward traffic q→r, so "the link still partially works"
        means a working post-event path crosses the hop pair (q, r) — the
        same directed token the filter breaks for other destinations.  The
        reverse direction is routed off q's own announcements and says
        nothing about the filter.
        """
        export_filter = event.export_filter
        net = self.sim.net
        link = net.link(export_filter.link_id)
        peer = link.other(export_filter.at_router)
        wanted = (peer, export_filter.at_router)
        for src in self.sensors:
            for dst in self.sensors:
                if src.sensor_id == dst.sensor_id:
                    continue
                trace = self.sim.trace(state, src.router_id, dst.router_id)
                if not trace.reached:
                    continue
                path = trace.router_path()
                if any((a, b) == wanted for a, b in zip(path, path[1:])):
                    return True
        return False

    def _mesh_broken(self, state: NetworkState) -> bool:
        """True when some sensor pair fails to reach under ``state``.

        Only the pairs whose walk ``state`` touches are traced; every
        other pair reaches exactly as under the pinned baseline.
        """
        touched = self.sim.touched_walks(state)
        for key, reached in self._pairs:
            if key in touched:
                reached = self.sim.trace(state, key[0], key[1]).reached
            if not reached:
                return True
        return False
