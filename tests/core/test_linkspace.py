"""Unit tests for link tokens and projections."""

import pytest

from repro.core.linkspace import (
    ORIGIN_TAG,
    UNKNOWN_TAG,
    IpLink,
    LogicalLink,
    PhysicalLink,
    UhNode,
    ip_link,
    is_unidentified,
    physical_link,
    physical_projection,
    sort_key,
    undirected_projection,
)


class TestIpLink:
    def test_direction_is_preserved(self):
        forward = ip_link("10.0.0.1", "10.0.0.2")
        reverse = ip_link("10.0.0.2", "10.0.0.1")
        assert forward != reverse
        assert forward.physical() == reverse.physical()

    def test_identified_flag(self):
        uh = UhNode("s", "d", "pre", 3)
        assert ip_link("10.0.0.1", "10.0.0.2").identified
        assert not ip_link("10.0.0.1", uh).identified
        assert is_unidentified(ip_link(uh, "10.0.0.2"))
        assert not is_unidentified(ip_link("10.0.0.1", "10.0.0.2"))

    def test_tokens_are_hashable_and_value_equal(self):
        assert ip_link("10.0.0.1", "10.0.0.2") == ip_link("10.0.0.1", "10.0.0.2")
        assert len({ip_link("10.0.0.1", "10.0.0.2")} | {
            ip_link("10.0.0.1", "10.0.0.2")
        }) == 1


class TestLogicalLink:
    def test_physical_collapse(self):
        logical = LogicalLink("10.0.0.2", "10.0.0.1", tag=7)
        assert logical.physical() == physical_link("10.0.0.1", "10.0.0.2")

    def test_distinct_tags_are_distinct_tokens(self):
        a = LogicalLink("10.0.0.1", "10.0.0.2", tag=7)
        b = LogicalLink("10.0.0.1", "10.0.0.2", tag=8)
        assert a != b
        assert a.physical() == b.physical()

    def test_reserved_tags_are_outside_asn_space(self):
        assert ORIGIN_TAG == 0
        assert UNKNOWN_TAG < 0

    def test_str_rendering(self):
        assert "origin" in str(LogicalLink("1.1.1.1", "2.2.2.2", ORIGIN_TAG))
        assert "?" in str(LogicalLink("1.1.1.1", "2.2.2.2", UNKNOWN_TAG))


class TestPhysicalLink:
    def test_canonical_ordering_is_numeric(self):
        # String ordering would put 10.0.0.9 after 10.0.0.10.
        link = physical_link("10.0.0.10", "10.0.0.9")
        assert link == physical_link("10.0.0.9", "10.0.0.10")
        assert link.lo == "10.0.0.9"

    def test_identified_addresses_sort_before_uh_nodes(self):
        uh = UhNode("s", "d", "pre", 1)
        link = physical_link(uh, "10.0.0.1")
        assert link.lo == "10.0.0.1"
        assert isinstance(link.hi, UhNode)

    def test_parsed_once_keys_keep_the_numeric_order_and_the_error(self):
        """Address keys are memoised; the order is still the numeric one
        and a non-address still raises ipaddress's ValueError, every time."""
        import ipaddress

        addresses = ["10.0.0.10", "10.0.0.9", "9.255.255.255", "10.0.1.0"]
        for _ in range(2):
            ordered = sorted(addresses, key=lambda a: sort_key(ip_link(a, a)))
            assert ordered == sorted(addresses, key=ipaddress.ip_address)
        for _ in range(2):
            with pytest.raises(ValueError, match="does not appear to be"):
                physical_link("not-an-address", "10.0.0.1")


class TestProjections:
    def test_physical_projection_keeps_direction(self):
        tokens = [
            LogicalLink("10.0.0.1", "10.0.0.2", tag=7),
            LogicalLink("10.0.0.1", "10.0.0.2", tag=8),
            ip_link("10.0.0.2", "10.0.0.1"),
        ]
        projected = physical_projection(tokens)
        assert projected == frozenset(
            {IpLink("10.0.0.1", "10.0.0.2"), IpLink("10.0.0.2", "10.0.0.1")}
        )

    def test_undirected_projection_merges_directions_and_tags(self):
        tokens = [
            LogicalLink("10.0.0.1", "10.0.0.2", tag=7),
            ip_link("10.0.0.2", "10.0.0.1"),
        ]
        assert undirected_projection(tokens) == frozenset(
            {physical_link("10.0.0.1", "10.0.0.2")}
        )

    def test_uh_links_pass_through(self):
        uh = UhNode("s", "d", "pre", 2)
        token = ip_link("10.0.0.1", uh)
        assert token in physical_projection([token])
        assert undirected_projection([token]) == frozenset(
            {PhysicalLink("10.0.0.1", uh)}
        )


class TestSortKey:
    def test_total_order_over_mixed_tokens(self):
        uh = UhNode("s", "d", "pre", 0)
        tokens = [
            LogicalLink("10.0.0.1", "10.0.0.2", tag=9),
            ip_link("10.0.0.1", "10.0.0.2"),
            ip_link(uh, "10.0.0.3"),
            LogicalLink("10.0.0.1", "10.0.0.2", tag=2),
        ]
        ordered = sorted(tokens, key=sort_key)
        assert ordered == sorted(tokens, key=sort_key)  # stable/deterministic
        # Physical tokens (rank 0) come before logical tokens (rank 1).
        assert isinstance(ordered[0], IpLink)
        assert isinstance(ordered[-1], LogicalLink)
        # Equal endpoints: tags break the tie.
        logical = [t for t in ordered if isinstance(t, LogicalLink)]
        assert [t.tag for t in logical] == [2, 9]


UH = UhNode("10.0.0.1", "10.0.0.9", "pre", 3)

#: One token of each kind and endpoint mix, with the ``str()`` the
#: frozen-dataclass tokens rendered (CLI ``diagnose``, replay truth
#: strings, empathy segments and the benchmark compare these strings).
RENDERED = (
    (IpLink("10.0.0.1", "10.0.0.2"), "10.0.0.1->10.0.0.2"),
    (IpLink("10.0.0.1", UH), "10.0.0.1->*3"),
    (IpLink(UH, "10.0.0.2"), "*3->10.0.0.2"),
    (LogicalLink("10.0.0.1", "10.0.0.2", ORIGIN_TAG), "10.0.0.1->10.0.0.2(origin)"),
    (LogicalLink("10.0.0.1", "10.0.0.2", UNKNOWN_TAG), "10.0.0.1->10.0.0.2(?)"),
    (LogicalLink("10.0.0.1", "10.0.0.2", 64500), "10.0.0.1->10.0.0.2(64500)"),
    (physical_link("10.0.0.2", "10.0.0.1"), "10.0.0.1--10.0.0.2"),
    (physical_link(UH, "10.0.0.1"), "10.0.0.1--*3"),
    (UH, "UhNode(src='10.0.0.1', dst='10.0.0.9', epoch='pre', index=3)"),
)


class TestTupleTokens:
    """Tokens are NamedTuples: they hash, compare, pickle, serialise and
    render exactly as the frozen dataclasses they replaced."""

    @pytest.mark.parametrize("token", [token for token, _ in RENDERED])
    def test_hash_and_equality_agree_with_the_field_tuple(self, token):
        fields = tuple(getattr(token, name) for name in token._fields)
        assert hash(token) == hash(fields)
        assert token == fields
        assert token == type(token)(*fields)
        assert {token: 1}[type(token)(*fields)] == 1

    @pytest.mark.parametrize("token, text", RENDERED)
    def test_str_is_unchanged(self, token, text):
        assert str(token) == text

    def test_repr_is_unchanged(self):
        assert repr(IpLink("10.0.0.1", UH)) == (
            "IpLink(src='10.0.0.1', dst=UhNode(src='10.0.0.1', "
            "dst='10.0.0.9', epoch='pre', index=3))"
        )
        assert repr(LogicalLink("10.0.0.1", "10.0.0.2", 7)) == (
            "LogicalLink(src='10.0.0.1', dst='10.0.0.2', tag=7)"
        )
        assert repr(physical_link("10.0.0.2", "10.0.0.1")) == (
            "PhysicalLink(lo='10.0.0.1', hi='10.0.0.2')"
        )

    @pytest.mark.parametrize("token", [token for token, _ in RENDERED])
    def test_pickle_round_trips(self, token):
        import pickle

        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(token, protocol))
            assert restored == token
            assert type(restored) is type(token)
            assert str(restored) == str(token)

    @pytest.mark.parametrize(
        "token", [token for token, _ in RENDERED if not isinstance(token, UhNode)]
    )
    def test_serialize_round_trips(self, token):
        from repro.serialize import token_from_dict, token_to_dict

        restored = token_from_dict(token_to_dict(token))
        assert restored == token
        assert type(restored) is type(token)

    def test_serialize_keeps_the_kind_of_equal_tuples(self):
        """An IpLink and a PhysicalLink over the same canonical endpoints
        are equal tuples; serialisation still tells them apart."""
        from repro.serialize import token_from_dict, token_to_dict

        directed = IpLink("10.0.0.1", "10.0.0.2")
        undirected = physical_link("10.0.0.1", "10.0.0.2")
        assert directed == undirected  # the hazard: tuples of equal fields
        assert token_to_dict(directed) != token_to_dict(undirected)
        assert type(token_from_dict(token_to_dict(undirected))) is PhysicalLink

    def test_uh_node_ordering_is_field_order(self):
        nodes = [
            UhNode("b", "a", "pre", 1),
            UhNode("a", "b", "pre", 10),
            UhNode("a", "b", "pre", 2),
            UhNode("a", "b", "post", 9),
        ]
        assert sorted(nodes) == [
            UhNode("a", "b", "post", 9),
            UhNode("a", "b", "pre", 2),
            UhNode("a", "b", "pre", 10),
            UhNode("b", "a", "pre", 1),
        ]
        assert UhNode("a", "b", "pre", 2) < UhNode("a", "b", "pre", 10)
