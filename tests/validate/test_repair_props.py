"""Property tests for the canonical repairs.

The contracts the engine leans on: ``repair`` is **idempotent**
(``repair(repair(x)) == repair(x)``), **deterministic** (a pure function
of the record), and its output **re-validates clean** — a repaired
record never needs screening again.
"""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pathset import EPOCH_POST, ProbePath
from repro.validate import check_feed, check_probe_path, repair_feed, repair_probe_path
from repro.validate.invariants import TRACE_EPOCH

SRC, DST = "10.0.0.1", "10.0.9.9"
#: Resolvable mid-path routers plus two off-topology (lying) addresses.
HOP_POOL = [
    "10.0.1.1",
    "10.0.2.2",
    "10.0.3.3",
    "10.0.4.4",
    "203.0.113.7",
    "203.0.113.8",
]


def asn_of(address):
    return 64500 if address.startswith("10.") else None


@st.composite
def probe_paths(draw):
    """Arbitrary (mostly corrupt) probe paths honouring ProbePath's own
    constructor invariants: hops start at the source, and ``reached``
    implies the trace ends at the destination."""
    mids = draw(st.lists(st.sampled_from(HOP_POOL), max_size=6))
    ends_at_dst = draw(st.booleans())
    hops = [SRC, *mids] + ([DST] if ends_at_dst else [])
    reached = hops[-1] == DST and draw(st.booleans())
    return ProbePath(
        src=SRC,
        dst=DST,
        hops=tuple(hops),
        reached=reached,
        epoch=EPOCH_POST,
    )


@dataclass(frozen=True)
class Msg:
    payload: str
    seq: int = -1


@st.composite
def feed_streams(draw):
    """Streams with genuine duplicates, inversions and unsequenced tails."""
    base = draw(
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.integers(-1, 8)),
            max_size=8,
        )
    )
    return [Msg(payload, seq) for payload, seq in base]


class TestProbePathRepair:
    @given(path=probe_paths())
    @settings(max_examples=200, deadline=None)
    def test_repair_is_idempotent(self, path):
        repaired = repair_probe_path(path, asn_of)
        assert repair_probe_path(repaired, asn_of) is repaired

    @given(path=probe_paths())
    @settings(max_examples=200, deadline=None)
    def test_repair_is_deterministic(self, path):
        assert repair_probe_path(path, asn_of) == repair_probe_path(path, asn_of)

    @given(path=probe_paths())
    @settings(max_examples=200, deadline=None)
    def test_repaired_path_revalidates_clean(self, path):
        repaired = repair_probe_path(path, asn_of)
        leftovers = [
            v
            for v in check_probe_path(repaired, asn_of, repaired.epoch)
            if v.invariant != TRACE_EPOCH  # epoch is not repair's job
        ]
        assert leftovers == []

    @given(path=probe_paths())
    @settings(max_examples=200, deadline=None)
    def test_repair_never_invents_hops(self, path):
        repaired = repair_probe_path(path, asn_of)
        assert set(repaired.hops) <= set(path.hops)

    @given(path=probe_paths())
    @settings(max_examples=100, deadline=None)
    def test_clean_paths_pass_through_unchanged(self, path):
        if not check_probe_path(path, asn_of, path.epoch):
            assert repair_probe_path(path, asn_of) is path


class TestFeedRepair:
    @given(stream=feed_streams())
    @settings(max_examples=200, deadline=None)
    def test_repair_is_idempotent(self, stream):
        repaired = repair_feed(stream)
        assert repair_feed(repaired) == repaired

    @given(stream=feed_streams())
    @settings(max_examples=200, deadline=None)
    def test_repaired_stream_revalidates_clean(self, stream):
        repaired = repair_feed(stream)
        assert check_feed(repaired, "feed") == ()

    @given(stream=feed_streams())
    @settings(max_examples=200, deadline=None)
    def test_repair_only_removes_duplicates(self, stream):
        repaired = repair_feed(stream)
        assert set(repaired) == set(stream)
        assert len(repaired) == len(set(stream))
