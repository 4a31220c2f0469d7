"""Caching and identity semantics of the Simulator facade."""

import gc
import random

import pytest

from repro.experiments.scenarios import ScenarioSampler
from repro.measurement.collector import take_snapshot
from repro.measurement.sensors import deploy_sensors, random_stub_placement
from repro.netsim.events import LinkFailureEvent
from repro.netsim.gen.internet import research_internet
from repro.netsim import simulator as simulator_module
from repro.netsim.simulator import Simulator
from repro.netsim.topology import NetworkState
from repro.netsim.traceroute import trace_route


class TestCaches:
    def test_routing_cache_keyed_on_state_value(self, fig2, fig2_sim, nominal):
        lid = fig2.link_between("b1", "b2").lid
        state_a = nominal.with_failed_links([lid])
        state_b = nominal.with_failed_links([lid])
        assert state_a is not state_b
        assert fig2_sim.routing(state_a) is fig2_sim.routing(state_b)

    def test_trace_cache_keyed_on_state_value(self, fig2, fig2_sim, nominal):
        # Two distinct NetworkState objects with equal content must hit
        # the same cache entry — the parallel runner relies on per-state
        # value keying, not object identity.
        lid = fig2.link_between("b1", "b2").lid
        state_a = nominal.with_failed_links([lid])
        state_b = nominal.with_failed_links([lid])
        assert state_a is not state_b
        src = fig2.sensor_routers["s1"]
        dst = fig2.sensor_routers["s2"]
        first = fig2_sim.trace(state_a, src, dst)
        assert fig2_sim.trace(state_b, src, dst) is first

    def test_mutated_state_does_not_return_stale_trace(
        self, fig2, fig2_sim, nominal
    ):
        src = fig2.sensor_routers["s1"]
        dst = fig2.sensor_routers["s2"]
        healthy = fig2_sim.trace(nominal, src, dst)
        # Fail a link on the healthy path: the changed state must miss
        # the cache and the new trace must not walk the dead link.
        on_path = {
            frozenset(hop) for hop in zip(healthy.router_path(), healthy.router_path()[1:])
        }
        lid = next(
            link.lid
            for link in fig2.net.links()
            if frozenset((link.a, link.b)) in on_path
        )
        failed = nominal.with_failed_links([lid])
        rerouted = fig2_sim.trace(failed, src, dst)
        assert rerouted is not healthy
        dead = fig2.net.link(lid)
        hops = list(zip(rerouted.router_path(), rerouted.router_path()[1:]))
        assert frozenset((dead.a, dead.b)) not in {
            frozenset(hop) for hop in hops
        }
        # The healthy entry stays cached and unclobbered.
        assert fig2_sim.trace(nominal, src, dst) is healthy

    def test_trace_cache_distinguishes_blocked_sets(self, fig2, fig2_sim, nominal):
        src = fig2.sensor_routers["s1"]
        dst = fig2.sensor_routers["s2"]
        plain = fig2_sim.trace(nominal, src, dst)
        blocked = fig2_sim.trace(
            nominal, src, dst, blocked_ases=frozenset({fig2.asn("Y")})
        )
        assert plain is not blocked
        assert None not in plain.addresses()
        assert None in blocked.addresses()
        # Both variants stay cached independently.
        assert fig2_sim.trace(nominal, src, dst) is plain
        assert (
            fig2_sim.trace(
                nominal, src, dst, blocked_ases=frozenset({fig2.asn("Y")})
            )
            is blocked
        )

    def test_destination_asns_is_sorted_and_deduped(self, fig2):
        sim = Simulator(fig2.net, [fig2.asn("C"), fig2.asn("A"), fig2.asn("A")])
        assert sim.destination_asns == (fig2.asn("A"), fig2.asn("C"))

    def test_mapper_is_stable_across_calls(self, fig2_sim):
        assert fig2_sim.mapper is fig2_sim.mapper

    def test_igp_cache_shared_between_traces(self, fig2, fig2_sim, nominal):
        fig2_sim.trace(nominal, fig2.sensor_routers["s1"], fig2.sensor_routers["s2"])
        view_before = fig2_sim.igp_cache.view(fig2.asn("Y"), nominal)
        fig2_sim.trace(nominal, fig2.sensor_routers["s1"], fig2.sensor_routers["s3"])
        assert fig2_sim.igp_cache.view(fig2.asn("Y"), nominal) is view_before

    def test_apply_composes_with_existing_state(self, fig2, fig2_sim, nominal):
        lid_a = fig2.link_between("b1", "b2").lid
        lid_b = fig2.link_between("c1", "c2").lid
        first = fig2_sim.apply(LinkFailureEvent((lid_a,)))
        second = fig2_sim.apply(LinkFailureEvent((lid_b,)), base=first)
        assert second.failed_links == frozenset({lid_a, lid_b})


class TestAccounting:
    def test_sampler_and_snapshot_sequence_pins_every_counter(self, monkeypatch):
        # A fixed admission + T-/T+ sequence with both caches bounded, so
        # hits, misses and evictions all move.  Only the walks a failure
        # state touches reach the trace LRU, so every miss is a real walk
        # under a failure state; the convergence counters stay exactly
        # what the plain per-state walk produced.
        topo = research_internet(n_tier2=4, n_stub=16, seed=3)
        rng = random.Random("accounting")
        routers = random_stub_placement(topo, 8, rng)
        sensors = deploy_sensors(topo.net, routers)
        sim = Simulator(
            topo.net,
            {topo.net.asn_of_router(rid) for rid in routers},
            trace_cache_capacity=150,
            routing_cache_capacity=4,
        )
        walks = []

        def counting_walk(net, routing, state, *args, **kwargs):
            if state is not sim.engine.baseline[0]:
                walks.append(state.key)
            return trace_route(net, routing, state, *args, **kwargs)

        monkeypatch.setattr(simulator_module, "trace_route", counting_walk)
        sampler = ScenarioSampler(sim, sensors, rng)
        nominal = NetworkState.nominal()
        blocked = frozenset({topo.tier2_asns[0]})
        kinds = (
            "link-1", "link-2", "link-3", "router",
            "misconfig", "misconfig+link", "link-1", "router",
        )
        for index, kind in enumerate(kinds):
            scenario = sampler.sample(kind)
            take_snapshot(
                sim,
                sensors,
                nominal,
                scenario.after_state,
                blocked_ases=blocked if index % 2 else frozenset(),
            )
        # routing() runs once per touched-set computation (73), once per
        # walk under a failure state (282) and once per misconfiguration
        # draw (5): 360 calls, 16 of them converges.  Evictions are the
        # misses beyond the 150 entries kept.
        assert sim.cache_stats()["trace_cache_misses"] == len(walks)
        assert sim.cache_stats() == {
            "trace_cache_hits": 59,
            "trace_cache_misses": 282,
            "trace_cache_evictions": 132,
            "trace_cache_entries": 150,
            "routing_cache_hits": 344,
            "routing_cache_misses": 16,
            "routing_cache_evictions": 11,
            "routing_cache_entries": 4,
            "full_converges": 1,
            "incremental_converges": 15,
            "prefixes_converged": 82,
            "prefixes_reused": 46,
            "rib_prefixes_owned": 8,
            "rib_prefixes_shared": 46,
            "rib_cow_copies": 74,
        }


class TestGcFootprint:
    def test_caches_hold_nothing_the_collector_tracks(self):
        """A sweep keeps one trace-cache key and one trace per touched
        pair and state, and one baseline walk per pair, whose key the
        indexes share: none of the keys or the traces' hop tuples may
        stay on the collector's books, or every full collection walks
        them all."""
        topo = research_internet(n_tier2=4, n_stub=16, seed=3)
        rng = random.Random("footprint")
        routers = random_stub_placement(topo, 6, rng)
        sensors = deploy_sensors(topo.net, routers)
        sim = Simulator(topo.net, {topo.net.asn_of_router(rid) for rid in routers})
        sampler = ScenarioSampler(sim, sensors, rng)
        nominal = NetworkState.nominal()
        for index, kind in enumerate(("link-1", "misconfig", "router", "link-2")):
            take_snapshot(
                sim,
                sensors,
                nominal,
                sampler.sample(kind).after_state,
                blocked_ases=frozenset(topo.tier2_asns[:index % 2]),
            )
        # A collection untracks a tuple once its items are untracked, and
        # may meet a tuple before the tuples nested in it: a trace key
        # nests five deep (key, state key, filters, filter, prefixes).
        for _ in range(5):
            gc.collect()
        entries = list(sim._trace_cache._data.items())
        walks = list(sim._walks.items())
        assert any(key[0] != nominal.key for key, _trace in entries)
        assert sim._igp_index  # the walks were indexed
        assert [key for key, _trace in entries + walks if gc.is_tracked(key)] == []
        assert [
            trace
            for _key, trace in entries + walks
            if gc.is_tracked(trace.addresses()) or gc.is_tracked(trace.router_path())
        ] == []
