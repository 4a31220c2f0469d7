"""Unit tests for probe paths, stores and measurement snapshots."""

import pickle

import pytest

from repro.core.linkspace import UhNode, ip_link
from repro.core.logical import logicalize
from repro.core.pathset import (
    EPOCH_POST,
    EPOCH_PRE,
    MeasurementSnapshot,
    PathStore,
    ProbePath,
)
from repro.errors import DiagnosisError


def path(src, dst, mids, reached=True, epoch=EPOCH_PRE):
    hops = (src,) + tuple(mids) + ((dst,) if reached else ())
    return ProbePath(src=src, dst=dst, hops=hops, reached=reached, epoch=epoch)


class TestProbePath:
    def test_links_follow_hop_order(self):
        p = path("1.1.1.1", "2.2.2.2", ["9.9.9.9"])
        assert p.links() == (
            ip_link("1.1.1.1", "9.9.9.9"),
            ip_link("9.9.9.9", "2.2.2.2"),
        )

    def test_validation(self):
        with pytest.raises(DiagnosisError):
            ProbePath("a", "b", (), True)
        with pytest.raises(DiagnosisError):
            ProbePath("1.1.1.1", "2.2.2.2", ("9.9.9.9",), True)
        with pytest.raises(DiagnosisError):
            ProbePath("1.1.1.1", "2.2.2.2", ("1.1.1.1", "9.9.9.9"), True)

    def test_failed_path_may_stop_anywhere(self):
        p = path("1.1.1.1", "2.2.2.2", ["9.9.9.9"], reached=False)
        assert p.links() == (ip_link("1.1.1.1", "9.9.9.9"),)

    def test_unidentified_hop_detection(self):
        uh = UhNode("1.1.1.1", "2.2.2.2", EPOCH_PRE, 1)
        p = ProbePath("1.1.1.1", "2.2.2.2", ("1.1.1.1", uh, "2.2.2.2"), True)
        assert p.has_unidentified_hops()
        assert not path("1.1.1.1", "2.2.2.2", ["9.9.9.9"]).has_unidentified_hops()


class TestPathStore:
    def test_add_get_and_iteration_order(self):
        store = PathStore()
        store.add(path("2.2.2.2", "1.1.1.1", ["9.9.9.9"]))
        store.add(path("1.1.1.1", "2.2.2.2", ["9.9.9.9"]))
        assert store.pairs() == (("1.1.1.1", "2.2.2.2"), ("2.2.2.2", "1.1.1.1"))
        assert len(store) == 2
        assert ("1.1.1.1", "2.2.2.2") in store

    def test_duplicate_pair_rejected(self):
        store = PathStore()
        store.add(path("1.1.1.1", "2.2.2.2", ["9.9.9.9"]))
        with pytest.raises(DiagnosisError):
            store.add(path("1.1.1.1", "2.2.2.2", ["8.8.8.8"]))

    def test_missing_pair_raises(self):
        with pytest.raises(DiagnosisError):
            PathStore().get(("a", "b"))

    def test_working_and_failed_partitions(self):
        store = PathStore()
        store.add(path("1.1.1.1", "2.2.2.2", ["9.9.9.9"]))
        store.add(path("2.2.2.2", "1.1.1.1", ["9.9.9.9"], reached=False))
        assert store.working_pairs() == (("1.1.1.1", "2.2.2.2"),)
        assert store.failed_pairs() == (("2.2.2.2", "1.1.1.1"),)


class TestMeasurementSnapshot:
    def _snapshot(self, after_mid="9.9.9.9", after_reached=True):
        before = PathStore()
        before.add(path("1.1.1.1", "2.2.2.2", ["9.9.9.9"]))
        after = PathStore()
        after.add(
            path(
                "1.1.1.1",
                "2.2.2.2",
                [after_mid],
                reached=after_reached,
                epoch=EPOCH_POST,
            )
        )
        return MeasurementSnapshot(before=before, after=after)

    def test_pair_mismatch_rejected(self):
        before = PathStore()
        before.add(path("1.1.1.1", "2.2.2.2", ["9.9.9.9"]))
        with pytest.raises(DiagnosisError):
            MeasurementSnapshot(before=before, after=PathStore())

    def test_failed_before_path_rejected(self):
        before = PathStore()
        before.add(path("1.1.1.1", "2.2.2.2", ["9.9.9.9"], reached=False))
        after = PathStore()
        after.add(path("1.1.1.1", "2.2.2.2", ["9.9.9.9"], epoch=EPOCH_POST))
        with pytest.raises(DiagnosisError):
            MeasurementSnapshot(before=before, after=after)

    def test_reroute_detection(self):
        snap = self._snapshot(after_mid="8.8.8.8")
        assert snap.rerouted_pairs() == (("1.1.1.1", "2.2.2.2"),)
        unchanged = self._snapshot()
        assert unchanged.rerouted_pairs() == ()

    def test_failed_pair_detection(self):
        snap = self._snapshot(after_reached=False)
        assert snap.failed_pairs() == (("1.1.1.1", "2.2.2.2"),)
        assert snap.any_failure()
        assert not self._snapshot().any_failure()

    def test_uh_hops_compared_by_position(self):
        """A star at the same position pre/post is not a reroute."""
        before = PathStore()
        uh_pre = UhNode("1.1.1.1", "2.2.2.2", EPOCH_PRE, 1)
        before.add(
            ProbePath("1.1.1.1", "2.2.2.2", ("1.1.1.1", uh_pre, "2.2.2.2"), True)
        )
        after = PathStore()
        uh_post = UhNode("1.1.1.1", "2.2.2.2", EPOCH_POST, 1)
        after.add(
            ProbePath(
                "1.1.1.1",
                "2.2.2.2",
                ("1.1.1.1", uh_post, "2.2.2.2"),
                True,
                epoch=EPOCH_POST,
            )
        )
        snap = MeasurementSnapshot(before=before, after=after)
        assert snap.rerouted_pairs() == ()


def _asn_of(address):
    """A picklable mapping: the first octet is the AS."""
    return int(address.split(".")[0])


class _UnhashableMap:
    """A mapping that compares by content and cannot be hashed (like a
    worker's ``StaticAsnMap``)."""

    __hash__ = None

    def __init__(self, table):
        self.table = table

    def __eq__(self, other):
        return isinstance(other, _UnhashableMap) and other.table == self.table

    def __call__(self, address):
        return self.table.get(address)


class _Mapper:
    def asn_of(self, address):
        return _asn_of(address)


class TestDerivedOnce:
    """Memos live on the path, the store and the snapshot, and never in a
    pickle."""

    def test_warm_path_pickles_to_the_cold_bytes(self):
        p = path("1.1.1.1", "2.2.2.2", ["3.3.3.3", "4.4.4.4"])
        cold = pickle.dumps(p)
        p.links()
        logicalize(p, _asn_of)
        assert p.token_memo()
        assert pickle.dumps(p) == cold
        restored = pickle.loads(cold)
        assert restored == p
        assert restored.token_memo() == {}
        assert logicalize(restored, _asn_of) == logicalize(p, _asn_of)

    def test_store_and_snapshot_pickle_without_memos(self):
        before, after = PathStore(), PathStore()
        before.add(path("1.1.1.1", "2.2.2.2", ["3.3.3.3"]))
        after.add(path("1.1.1.1", "2.2.2.2", ["3.3.3.3"], epoch=EPOCH_POST))
        snapshot = MeasurementSnapshot(before=before, after=after, asn_of=_asn_of)
        cold = pickle.dumps(snapshot)
        before.physical_graph()
        before.logical_graph(_asn_of)
        snapshot.rerouted_pairs()
        snapshot.derived("key", lambda: "value")
        assert pickle.dumps(snapshot) == cold
        restored = pickle.loads(cold)
        assert restored.changed_pairs() == snapshot.changed_pairs()
        assert restored.derived("key", lambda: "rebuilt") == "rebuilt"

    def test_hop_identical_post_path_shares_pre_tokens(self):
        before, after = PathStore(), PathStore()
        before.add(path("1.1.1.1", "2.2.2.2", ["3.3.3.3"]))
        before.add(path("2.2.2.2", "1.1.1.1", ["3.3.3.3"]))
        after.add(path("1.1.1.1", "2.2.2.2", ["3.3.3.3"], epoch=EPOCH_POST))
        after.add(
            path("2.2.2.2", "1.1.1.1", ["4.4.4.4"], epoch=EPOCH_POST)
        )
        snapshot = MeasurementSnapshot(before=before, after=after, asn_of=_asn_of)
        assert snapshot.changed_pairs() == (("2.2.2.2", "1.1.1.1"),)
        same = ("1.1.1.1", "2.2.2.2")
        assert logicalize(after.get(same), _asn_of) is logicalize(
            before.get(same), _asn_of
        )

    def test_a_post_path_that_did_not_reach_keeps_its_own_tokens(self):
        """Same hops but a flipped reach bit: the terminal tag differs."""
        before, after = PathStore(), PathStore()
        before.add(path("1.1.1.1", "2.2.2.2", ["3.3.3.3"]))
        flipped = ProbePath(
            "1.1.1.1", "2.2.2.2", ("1.1.1.1", "3.3.3.3", "2.2.2.2"), False,
            epoch=EPOCH_POST,
        )
        after.add(flipped)
        snapshot = MeasurementSnapshot(before=before, after=after, asn_of=_asn_of)
        assert snapshot.changed_pairs() == (flipped.pair,)
        assert logicalize(flipped, _asn_of) != logicalize(
            before.get(flipped.pair), _asn_of
        )

    def test_equal_mappings_hit_and_a_different_one_replaces(self):
        p = path("1.1.1.1", "2.2.2.2", ["3.3.3.3"])
        mapper = _Mapper()
        first = logicalize(p, mapper.asn_of)
        # A fresh bound method per call compares equal: the memo hits.
        assert logicalize(p, mapper.asn_of) is first
        other = logicalize(p, lambda _address: 7)
        assert other != first
        assert len(p.token_memo()) == 1

    def test_unhashable_mappings_work(self):
        p = path("1.1.1.1", "2.2.2.2", ["3.3.3.3"])
        table = {"1.1.1.1": 1, "2.2.2.2": 2, "3.3.3.3": 3}
        first = logicalize(p, _UnhashableMap(table))
        assert logicalize(p, _UnhashableMap(dict(table))) is first
        store = PathStore()
        store.add(p)
        graph = store.logical_graph(_UnhashableMap(table))
        assert store.logical_graph(_UnhashableMap(dict(table))) is graph

    def test_store_graphs_are_built_once_and_reset_by_add(self):
        store = PathStore()
        store.add(path("1.1.1.1", "2.2.2.2", ["3.3.3.3"]))
        physical = store.physical_graph()
        logical = store.logical_graph(_asn_of)
        assert store.physical_graph() is physical
        assert store.logical_graph(_asn_of) is logical
        store.add(path("2.2.2.2", "1.1.1.1", ["3.3.3.3"]))
        assert len(store.physical_graph()) == 4
        assert store.logical_graph(_asn_of) is not logical

    def test_static_asn_map_snapshot_diagnoses_the_same_after_a_round_trip(
        self, fig2, fig2_sim, nominal
    ):
        from repro.core.diagnoser import NetDiagnoser
        from repro.measurement.collector import take_snapshot
        from repro.measurement.sensors import deploy_sensors
        from repro.stream.engine import StaticAsnMap

        sensors = deploy_sensors(
            fig2.net, [fig2.sensor_routers[s] for s in ("s1", "s2", "s3")]
        )
        after_state = nominal.with_failed_links(
            [fig2.link_between("y4", "b1").lid]
        )
        measured = take_snapshot(fig2_sim, sensors, nominal, after_state)
        addresses = {
            hop
            for store in (measured.before, measured.after)
            for p in store.paths()
            for hop in p.hops
            if isinstance(hop, str)
        }
        snapshot = MeasurementSnapshot(
            before=measured.before,
            after=measured.after,
            asn_of=StaticAsnMap({a: measured.asn_of(a) for a in addresses}),
        )
        assert snapshot.any_failure()
        for variant in ("tomo", "nd-edge"):
            warm = NetDiagnoser(variant).diagnose(snapshot)
            shipped = NetDiagnoser(variant).diagnose(
                pickle.loads(pickle.dumps(snapshot))
            )
            assert shipped.hypothesis == warm.hypothesis
            assert shipped.excluded == warm.excluded
            assert shipped.details == warm.details
            assert shipped.graph.tokens() == warm.graph.tokens()
