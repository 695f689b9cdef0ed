import pytest
from hypothesis import given, settings, strategies as st

from dbrb.messages import FIELD_CODECS, CodecError, Reader
from dbrb.views import (
    MAX_CHANGES,
    Tally,
    View,
    ViewError,
    change_key,
    comparable,
    is_sequence,
    least_recent,
    minus,
    most_recent,
    plus,
)


def members_view(n):
    return View.initial([f"p{i}" for i in range(1, n + 1)])


def test_quorum_formula():
    assert members_view(4).quorum_size == 3
    assert members_view(1).quorum_size == 1
    assert members_view(10).quorum_size == 7


def test_tally_counts_each_members_first_vote():
    v4 = members_view(4)
    tally = Tally()
    assert not tally.add(v4, "x", "p9", "sig")  # not a member
    assert tally.add(v4, "x", "p1", "first")
    assert not tally.add(v4, "x", "p1", "second")
    assert tally.add(v4, "y", "p1", "other value")  # one vote per key, not per view
    assert tally.votes == {(v4, "x"): {"p1": "first"}, (v4, "y"): {"p1": "other value"}}
    assert tally.voted("p1", v4) and not tally.voted("p2", v4)
    assert not tally.voted("p1", members_view(5))


def test_tally_quorums_in_first_vote_order():
    v4, v1 = members_view(4), members_view(1)
    tally = Tally()
    for author in ("p1", "p2"):
        tally.add(v4, "x", author)
    tally.add(v1, "y", "p1")
    assert tally.quorum(v4, "x") is None and tally.quorum(v4, "z") is None
    assert list(tally.quorums()) == [((v1, "y"), {"p1": None})]
    tally.add(v4, "x", "p3")
    assert tally.quorum(v4, "x") == {"p1": None, "p2": None, "p3": None}
    assert [key for key, _ in tally.quorums()] == [(v4, "x"), (v1, "y")]


def test_quorum_empty_membership_is_error():
    empty = View([plus("a"), minus("a")])
    assert empty.members == ()
    with pytest.raises(ViewError):
        empty.quorum_size


def test_quorum_intersection_exceeds_faults():
    # any two quorums overlap in more than f processes, for every n
    for n in range(1, 101):
        q = members_view(n).quorum_size
        f = (n - 1) // 3
        assert 2 * q - n > f


def test_members_derived_from_changes():
    v = View([plus("a"), plus("b"), minus("b")])
    assert v.members == ("a",)
    assert "a" in v.member_set and "b" not in v.member_set


def test_compare_examples():
    v0 = members_view(4)
    v1 = View(v0 | {plus("p5")})
    assert v0 < v1
    assert comparable(v0, v1) and comparable(v1, v0)
    assert comparable(v0, v0)
    assert not comparable(View([plus("a")]), View([plus("b")]))


def test_least_most_recent():
    v0 = members_view(4)
    v1 = View(v0 | {plus("p5")})
    v2 = View(v1 | {plus("p6")})
    assert least_recent({v0, v1}) == v0
    assert most_recent({v0, v1}) == v1
    assert least_recent({v1}) == most_recent({v1}) == v1
    assert least_recent({v0, v1, v2}) == v0
    assert most_recent({v0, v1, v2}) == v2


def test_least_most_empty_is_error():
    with pytest.raises(ViewError):
        least_recent(set())
    with pytest.raises(ViewError):
        most_recent(set())


def test_least_most_reject_non_sequences():
    a, b = View([plus("a")]), View([plus("b")])
    with pytest.raises(ViewError):
        least_recent({a, b})


def test_is_sequence():
    v0 = members_view(4)
    v1 = View(v0 | {plus("p5")})
    assert is_sequence({v0, v1})
    assert not is_sequence({View([plus("a")]), View([plus("b")])})
    assert is_sequence(set())


def test_change_set_cap():
    changes = [plus(f"p{i}") for i in range(MAX_CHANGES + 1)]
    with pytest.raises(ViewError):
        View(changes)


def test_change_rejects_bad_sign():
    # a change arrives from outside only as a field or inside a view, and
    # both read it through the field codec
    read_change = FIELD_CODECS["Change"][1]
    assert read_change(Reader(b"\x02p1-")) == minus("p1")
    with pytest.raises(CodecError, match="bad change sign byte"):
        read_change(Reader(b"\x02p1*"))


def test_view_is_the_frozenset_of_its_tokens():
    v = View([plus("a"), plus("b"), minus("b")])
    plain = frozenset({"+a", "+b", "-b"})
    assert v == plain and hash(v) == hash(plain)
    assert {plain: 1}[v] == 1 and v in {plain}
    assert v.sorted_changes == ("+a", "+b", "-b")
    assert View(v | {plus("c")}) > v


# pids a scenario accepts (alphanumeric or "_"), non-ASCII ones included
pid_chars = st.characters(categories=("L", "N"), include_characters="_").filter(
    lambda ch: ch.isalnum() or ch == "_")
alnum_pids = st.text(pid_chars, min_size=1, max_size=4)


def tokens(pids):
    return st.builds(lambda sign, pid: sign + pid, st.sampled_from("+-"), pids)


@given(st.lists(tokens(alnum_pids), max_size=8))
@settings(max_examples=200, deadline=None)
def test_change_key_is_the_byte_order(changes):
    by_bytes = sorted(changes, key=lambda c: (c[1:].encode(), c[0].encode()))
    assert sorted(changes, key=change_key) == by_bytes


small_views = st.sets(tokens(st.sampled_from("abcde")), max_size=8).map(View)


@given(small_views, small_views, small_views)
@settings(max_examples=200, deadline=None)
def test_compare_is_a_partial_order(a, b, c):
    # views are ordered by their change sets; `comparable` is that order's
    # comparability, and a pair is comparable iff it is a sequence
    assert comparable(a, b) == comparable(b, a) == is_sequence({a, b})
    # antisymmetry
    if a <= b and b <= a:
        assert a == b
    # transitivity
    if a < b < c:
        assert comparable(a, c) and a < c
    # reflexivity
    assert comparable(a, a)


@given(small_views)
@settings(max_examples=200, deadline=None)
def test_canonical_serialization_round_trips(v):
    write_view, read_view = FIELD_CODECS["View"]
    assert read_view(Reader(write_view(v))) == v


def test_least_most_fixed_points_under_interior_insertion():
    v0 = members_view(4)
    v2 = View(v0 | {plus("p5"), plus("p6")})
    mid = View(v0 | {plus("p5")})
    seq = {v0, v2}
    assert least_recent(seq | {mid}) == least_recent(seq)
    assert most_recent(seq | {mid}) == most_recent(seq)
