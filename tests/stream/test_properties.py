"""Property-based tests for admission control and shard routing.

Two contracts the self-healing layer leans on:

* :class:`~repro.stream.AdmissionController` token buckets conserve
  events — every ``admit`` call lands in exactly one counter, and a
  bucket never goes negative or above its depth, across *arbitrary*
  tick/admit interleavings;
* :class:`~repro.stream.ShardRouter` consistent hashing is minimally
  disruptive — removing a shard moves only the removed shard's keys,
  re-adding it restores the exact original mapping (so a restarted
  shard owns exactly the keys it owned before).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import AdmissionController, ShardRouter, TenantConfig

TENANT_NAMES = ("alpha", "beta", "gamma")


@st.composite
def admission_worlds(draw):
    """A tenant roster plus an arbitrary tick/admit op sequence."""
    n_tenants = draw(st.integers(min_value=1, max_value=3))
    tenants = []
    for name in TENANT_NAMES[:n_tenants]:
        rate = draw(st.one_of(st.none(), st.integers(1, 5)))
        burst = None
        if rate is not None:
            burst = draw(st.one_of(st.none(), st.integers(1, 8)))
        tenants.append(TenantConfig(name=name, rate=rate, burst=burst))
    senders = list(TENANT_NAMES[:n_tenants]) + ["ghost", None]
    ops = draw(
        st.lists(
            st.one_of(
                st.tuples(st.just("tick"), st.integers(1, 3)),
                st.tuples(st.just("admit"), st.sampled_from(senders)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return tenants, ops


@given(world=admission_worlds())
@settings(max_examples=120)
def test_admission_conserves_and_bounds_tokens(world):
    tenants, ops = world
    controller = AdmissionController(tenants)
    depths = {
        t.name: t.bucket_size for t in tenants if t.bucket_size is not None
    }
    offered = 0
    tick = 0
    for op, arg in ops:
        if op == "tick":
            tick += arg
            controller.on_tick(tick)
        else:
            offered += 1
            controller.admit(arg)
        # Buckets stay within [0, depth] after every single operation.
        for name, depth in depths.items():
            assert 0 <= controller._tokens[name] <= depth
        # Conservation: every offer landed in exactly one counter.
        assert (
            controller.admitted
            + controller.shed
            + controller.rejected_unknown
            == offered
        )
    # Shed-by-tenant breakdown sums to the total shed.
    assert sum(controller.shed_by_tenant.values()) == controller.shed


@given(world=admission_worlds())
@settings(max_examples=60)
def test_admission_replay_is_deterministic(world):
    tenants, ops = world

    def run():
        controller = AdmissionController(tenants)
        tick = 0
        outcomes = []
        for op, arg in ops:
            if op == "tick":
                tick += arg
                controller.on_tick(tick)
            else:
                outcomes.append(controller.admit(arg))
        return outcomes, controller.counters()

    assert run() == run()


def _keys(draw_asns):
    return [f"as{asn}" for asn in draw_asns]


@given(
    n_shards=st.integers(min_value=2, max_value=8),
    asns=st.lists(st.integers(1, 10_000), min_size=1, max_size=200),
)
@settings(max_examples=80)
def test_removing_a_shard_moves_only_its_keys(n_shards, asns):
    """Dropping the last shard strands only that shard's keys.

    A key owned by a surviving shard still maps to the same virtual
    node after the removed shard's nodes leave the ring, so its owner
    is *identical* — exact, not approximate, minimality.
    """
    big = ShardRouter(n_shards)
    small = ShardRouter(n_shards - 1)
    removed = n_shards - 1
    for key in _keys(asns):
        owner = big.shard_for_key(key)
        if owner != removed:
            assert small.shard_for_key(key) == owner


@given(
    n_shards=st.integers(min_value=1, max_value=8),
    asns=st.lists(st.integers(1, 10_000), min_size=1, max_size=200),
)
@settings(max_examples=60)
def test_re_adding_a_shard_restores_the_exact_mapping(n_shards, asns):
    before = ShardRouter(n_shards)
    after = ShardRouter(n_shards)  # shard removed, then re-added
    for key in _keys(asns):
        assert before.shard_for_key(key) == after.shard_for_key(key)


@given(
    n_shards=st.integers(min_value=1, max_value=8),
    asns=st.lists(st.integers(1, 10_000), min_size=1, max_size=200),
)
@settings(max_examples=80)
def test_growth_moves_keys_only_to_the_new_shard(n_shards, asns):
    small = ShardRouter(n_shards)
    big = ShardRouter(n_shards + 1)
    for key in _keys(asns):
        if big.shard_for_key(key) != small.shard_for_key(key):
            assert big.shard_for_key(key) == n_shards
