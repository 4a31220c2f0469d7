"""Per-invariant unit tests: each checker fires on exactly its violation
class, and the policy engine applies the documented strict / repair /
quarantine behaviour to each."""

from dataclasses import dataclass

import pytest

from repro.core.linkspace import UhNode
from repro.core.pathset import EPOCH_POST, EPOCH_PRE, PathStore, ProbePath
from repro.errors import ValidationError
from repro.validate import (
    FEED_DUP,
    FEED_ORDER,
    LG_PATH,
    QUARANTINE,
    REPAIR,
    ROUND_BASELINE,
    ROUND_PAIRS,
    STRICT,
    TRACE_DUP,
    TRACE_EPOCH,
    TRACE_LOOP,
    TRACE_REACH_BIT,
    TRACE_UNRESOLVED,
    Validator,
    check_feed,
    check_lg_path,
    check_probe_path,
    check_rounds,
)

SRC, DST = "10.0.0.1", "10.0.9.9"
MID1, MID2, MID3 = "10.0.1.1", "10.0.2.2", "10.0.3.3"
FORGED = "203.0.113.7"


def asn_of(address):
    """Toy IP-to-AS map: the 10/8 lab space resolves, anything else lies."""
    return 64500 if address.startswith("10.") else None


def path(hops, reached=None, epoch=EPOCH_POST):
    if reached is None:
        reached = hops[-1] == DST
    return ProbePath(src=SRC, dst=DST, hops=tuple(hops), reached=reached, epoch=epoch)


def invariants_of(violations):
    return {v.invariant for v in violations}


class TestProbePathInvariants:
    def test_clean_path_has_no_violations(self):
        assert check_probe_path(path([SRC, MID1, DST]), asn_of, EPOCH_POST) == ()

    def test_forged_hop_is_unresolved(self):
        found = check_probe_path(path([SRC, FORGED, DST]), asn_of, EPOCH_POST)
        assert invariants_of(found) == {TRACE_UNRESOLVED}

    def test_consecutive_duplicate(self):
        found = check_probe_path(path([SRC, MID1, MID1, DST]), asn_of, EPOCH_POST)
        assert invariants_of(found) == {TRACE_DUP}

    def test_nonadjacent_revisit_is_a_loop(self):
        found = check_probe_path(
            path([SRC, MID1, MID2, MID1, DST]), asn_of, EPOCH_POST
        )
        assert invariants_of(found) == {TRACE_LOOP}

    def test_flipped_reach_bit(self):
        found = check_probe_path(
            path([SRC, MID1, DST], reached=False), asn_of, EPOCH_POST
        )
        assert invariants_of(found) == {TRACE_REACH_BIT}

    def test_stale_epoch_tag(self):
        found = check_probe_path(
            path([SRC, MID1, DST], epoch=EPOCH_PRE), asn_of, EPOCH_POST
        )
        assert invariants_of(found) == {TRACE_EPOCH}

    def test_stars_are_absence_not_lies(self):
        star = UhNode(src=SRC, dst=DST, epoch=EPOCH_POST, index=1)
        assert check_probe_path(path([SRC, star, DST]), asn_of, EPOCH_POST) == ()

    def test_violation_names_record_and_detail(self):
        found = check_probe_path(path([SRC, FORGED, DST]), asn_of, EPOCH_POST)
        assert f"probe {SRC}->{DST}" in found[0].record
        assert FORGED in found[0].detail


class TestRoundInvariants:
    def test_matching_reached_rounds_are_clean(self):
        before, after = PathStore(), PathStore()
        before.add(path([SRC, MID1, DST], epoch=EPOCH_PRE))
        after.add(path([SRC, MID2, DST]))
        assert check_rounds(before, after) == ()

    def test_pair_sets_must_match(self):
        before, after = PathStore(), PathStore()
        before.add(path([SRC, MID1, DST], epoch=EPOCH_PRE))
        assert invariants_of(check_rounds(before, after)) == {ROUND_PAIRS}

    def test_baseline_must_have_reached(self):
        before, after = PathStore(), PathStore()
        before.add(path([SRC, MID1], reached=False, epoch=EPOCH_PRE))
        after.add(path([SRC, MID2, DST]))
        assert invariants_of(check_rounds(before, after)) == {ROUND_BASELINE}


@dataclass(frozen=True)
class Msg:
    payload: str
    seq: int = -1


class TestFeedInvariants:
    def test_clean_stream(self):
        assert check_feed([Msg("a", 0), Msg("b", 1)], "igp") == ()

    def test_duplicate_message(self):
        found = check_feed([Msg("a", 0), Msg("a", 0)], "igp")
        assert invariants_of(found) == {FEED_DUP}

    def test_misordered_sequence(self):
        found = check_feed([Msg("a", 1), Msg("b", 0)], "igp")
        assert invariants_of(found) == {FEED_ORDER}

    def test_unsequenced_messages_are_not_order_checked(self):
        assert check_feed([Msg("a"), Msg("b"), Msg("c")], "igp") == ()


class TestLgPathInvariants:
    def test_honest_path(self):
        assert check_lg_path(65001, (65001, 65002, 65003), DST, EPOCH_POST) == ()

    def test_path_must_start_at_queried_as(self):
        found = check_lg_path(65001, (65002, 65003), DST, EPOCH_POST)
        assert invariants_of(found) == {LG_PATH}

    def test_path_must_not_revisit(self):
        found = check_lg_path(65001, (65001, 65001), DST, EPOCH_POST)
        assert invariants_of(found) == {LG_PATH}

    def test_empty_path(self):
        found = check_lg_path(65001, (), DST, EPOCH_POST)
        assert invariants_of(found) == {LG_PATH}


class TestValidatorPolicies:
    def store_with(self, *paths):
        store = PathStore()
        for p in paths:
            store.add(p)
        return store

    def test_unknown_policy_rejected(self):
        from repro.errors import MeasurementError

        with pytest.raises(MeasurementError):
            Validator("lenient")

    def test_strict_raises_naming_record_and_invariant(self):
        validator = Validator(STRICT)
        store = self.store_with(path([SRC, FORGED, DST]))
        with pytest.raises(ValidationError) as err:
            validator.screen_store(store, asn_of, EPOCH_POST)
        assert err.value.invariant == TRACE_UNRESOLVED
        assert SRC in err.value.record

    def test_quarantine_drops_and_counts(self):
        validator = Validator(QUARANTINE)
        store = self.store_with(
            path([SRC, MID1, DST]),
            ProbePath(
                src=MID2, dst=DST, hops=(MID2, FORGED, DST), reached=True,
                epoch=EPOCH_POST,
            ),
        )
        screened = validator.screen_store(store, asn_of, EPOCH_POST)
        assert len(list(screened.paths())) == 1
        assert validator.degradation.traces_quarantined == 1
        assert validator.degradation.stale_rounds_dropped == 0

    def test_repair_fixes_in_place_and_counts(self):
        validator = Validator(REPAIR)
        store = self.store_with(path([SRC, FORGED, MID1, DST]))
        screened = validator.screen_store(store, asn_of, EPOCH_POST)
        (survivor,) = screened.paths()
        assert survivor.hops == (SRC, MID1, DST)
        assert validator.degradation.traces_repaired == 1
        assert validator.degradation.traces_quarantined == 0

    @pytest.mark.parametrize("policy", [REPAIR, QUARANTINE])
    def test_stale_epoch_has_no_sound_repair(self, policy):
        validator = Validator(policy)
        store = self.store_with(path([SRC, MID1, DST], epoch=EPOCH_PRE))
        screened = validator.screen_store(store, asn_of, EPOCH_POST)
        assert list(screened.paths()) == []
        assert validator.degradation.stale_rounds_dropped == 1
        assert validator.degradation.traces_quarantined == 0  # disjoint counters

    def test_clean_store_is_returned_unchanged(self):
        validator = Validator(QUARANTINE)
        store = self.store_with(path([SRC, MID1, DST]))
        assert validator.screen_store(store, asn_of, EPOCH_POST) is store

    def test_feed_repair_restores_order_and_dedups(self):
        validator = Validator(REPAIR)
        screened = validator.screen_feed(
            [Msg("b", 1), Msg("a", 0), Msg("a", 0)], "igp"
        )
        assert screened == (Msg("a", 0), Msg("b", 1))
        assert validator.degradation.feed_messages_repaired > 0

    def test_feed_quarantine_drops_offenders(self):
        validator = Validator(QUARANTINE)
        screened = validator.screen_feed(
            [Msg("b", 1), Msg("a", 0), Msg("b", 1)], "igp"
        )
        assert screened == (Msg("b", 1),)
        assert validator.degradation.feed_messages_quarantined == 2

    @pytest.mark.parametrize("policy", [REPAIR, QUARANTINE])
    def test_bad_lg_answer_degrades_to_none(self, policy):
        validator = Validator(policy)
        assert (
            validator.screen_lg_path(65001, (65002, 65003), DST, EPOCH_POST)
            is None
        )
        assert validator.degradation.lg_paths_quarantined == 1

    def test_good_lg_answer_passes_through(self):
        validator = Validator(QUARANTINE)
        answer = (65001, 65002)
        assert validator.screen_lg_path(65001, answer, DST, EPOCH_POST) is answer

    def test_screen_rounds_discards_pairs_from_both(self):
        validator = Validator(QUARANTINE)
        before, after = PathStore(), PathStore()
        before.add(path([SRC, MID1, DST], epoch=EPOCH_PRE))
        before.add(
            ProbePath(
                src=MID1, dst=DST, hops=(MID1,), reached=False, epoch=EPOCH_PRE
            )
        )
        after.add(path([SRC, MID2, DST]))
        after.add(ProbePath(src=MID1, dst=DST, hops=(MID1, DST), reached=True))
        new_before, new_after = validator.screen_rounds(before, after)
        assert set(new_before.pairs()) == {(SRC, DST)}
        assert set(new_after.pairs()) == {(SRC, DST)}
