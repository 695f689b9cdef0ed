import pytest
from hypothesis import given, settings, strategies as st

from dbrb.views import (
    Change,
    MAX_CHANGES,
    Tally,
    View,
    ViewError,
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
    empty = View.of([plus("a"), minus("a")])
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
    v = View.of([plus("a"), plus("b"), minus("b")])
    assert v.members == ("a",)
    assert "a" in v.member_set and "b" not in v.member_set


def test_compare_examples():
    v0 = members_view(4)
    v1 = View(v0.changes | {plus("p5")})
    assert v0.changes < v1.changes
    assert comparable(v0, v1) and comparable(v1, v0)
    assert comparable(v0, v0)
    assert not comparable(View.of([plus("a")]), View.of([plus("b")]))


def test_least_most_recent():
    v0 = members_view(4)
    v1 = View(v0.changes | {plus("p5")})
    v2 = View(v1.changes | {plus("p6")})
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
    a, b = View.of([plus("a")]), View.of([plus("b")])
    with pytest.raises(ViewError):
        least_recent({a, b})


def test_is_sequence():
    v0 = members_view(4)
    v1 = View(v0.changes | {plus("p5")})
    assert is_sequence({v0, v1})
    assert not is_sequence({View.of([plus("a")]), View.of([plus("b")])})
    assert is_sequence(set())


def test_change_set_cap():
    changes = [plus(f"p{i}") for i in range(MAX_CHANGES + 1)]
    with pytest.raises(ViewError):
        View.of(changes)


def test_change_rejects_bad_sign():
    with pytest.raises(ViewError):
        Change("*", "p1")


small_views = st.sets(
    st.tuples(st.sampled_from("+-"), st.sampled_from(["a", "b", "c", "d", "e"])),
    max_size=8,
).map(lambda s: View.of(Change(sign, p) for sign, p in s))


@given(small_views, small_views, small_views)
@settings(max_examples=200, deadline=None)
def test_compare_is_a_partial_order(a, b, c):
    # views are ordered by their change sets; `comparable` is that order's
    # comparability, and a pair is comparable iff it is a sequence
    assert comparable(a, b) == comparable(b, a) == is_sequence({a, b})
    # antisymmetry
    if a.changes <= b.changes and b.changes <= a.changes:
        assert a == b
    # transitivity
    if a.changes < b.changes < c.changes:
        assert comparable(a, c) and a.changes < c.changes
    # reflexivity
    assert comparable(a, a)


@given(small_views)
@settings(max_examples=200, deadline=None)
def test_canonical_serialization_round_trips(v):
    from dbrb.messages import FIELD_CODECS, Reader

    write_view, read_view = FIELD_CODECS["View"]
    assert read_view(Reader(write_view(v))) == v


def test_least_most_fixed_points_under_interior_insertion():
    v0 = members_view(4)
    v2 = View(v0.changes | {plus("p5"), plus("p6")})
    mid = View(v0.changes | {plus("p5")})
    seq = {v0, v2}
    assert least_recent(seq | {mid}) == least_recent(seq)
    assert most_recent(seq | {mid}) == most_recent(seq)
