"""Shared fixtures: the paper's Figure 2 network, small chains, and a
seeded research-Internet session.

Fixture scopes are chosen for speed: the 165-AS topology and its sensor
session are expensive enough to share per test session; they are treated
as read-only by every test that uses them (tests that need to mutate build
their own).
"""

from __future__ import annotations

import dataclasses
import pickle
import random

import pytest

from repro.experiments.runner import make_session
from repro.measurement.sensors import random_stub_placement
from repro.netsim.builders import chain_network, figure2_network
from repro.netsim.gen.internet import research_internet
from repro.netsim.simulator import Simulator
from repro.netsim.topology import NetworkState


@pytest.fixture
def fig2():
    """The paper's Figure 2 internetwork (fresh per test)."""
    return figure2_network()


@pytest.fixture
def fig2_sim(fig2):
    """Simulator over the Figure 2 network, converging all sensor ASes."""
    return Simulator(fig2.net, [fig2.asn("A"), fig2.asn("B"), fig2.asn("C")])


@pytest.fixture
def nominal():
    return NetworkState.nominal()


@pytest.fixture
def chain5():
    """A 5-AS chain with 2 routers per AS (Figure 4 shape)."""
    builder, names = chain_network(n_ases=5, routers_per_as=2)
    return builder, names


@pytest.fixture(scope="session")
def research_topo():
    """One seeded 165-AS research-Internet topology (read-only)."""
    return research_internet(seed=1234)


@pytest.fixture(scope="session")
def research_session(research_topo):
    """A 10-sensor random-stub session over the shared topology
    (read-only: do not inject state into its sampler)."""
    rng = random.Random("conftest-session")
    routers = random_stub_placement(research_topo, 10, rng)
    return make_session(research_topo, routers, rng)


@pytest.fixture
def dataclass_era_record(monkeypatch):
    """A journal record pickled while link tokens were frozen dataclasses:
    a token frozenset, as in a journalled report's hypothesis.  It no
    longer unpickles (``TypeError``) now that tokens are NamedTuples."""
    from repro.core import linkspace

    @dataclasses.dataclass(frozen=True)
    class IpLink:
        src: object
        dst: object

    IpLink.__module__, IpLink.__qualname__ = linkspace.__name__, "IpLink"
    with monkeypatch.context() as patched:
        patched.setattr(linkspace, "IpLink", IpLink)
        return pickle.dumps(frozenset({IpLink("10.0.0.1", "10.0.0.2")}))
