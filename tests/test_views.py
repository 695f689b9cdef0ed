import pytest
from hypothesis import given, settings, strategies as st

from dbrb.views import (
    Change,
    Comparison,
    MAX_CHANGES,
    View,
    ViewError,
    compare,
    is_sequence,
    least_recent,
    minus,
    most_recent,
    plus,
    seq_key,
)


def members_view(n):
    return View.initial([f"p{i}" for i in range(1, n + 1)])


def test_quorum_formula():
    assert members_view(4).quorum_size == 3
    assert members_view(1).quorum_size == 1
    assert members_view(10).quorum_size == 7


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
    assert compare(v0, v1) is Comparison.LESS
    assert compare(v1, v0) is Comparison.GREATER
    assert compare(v0, v0) is Comparison.EQUAL
    assert compare(View.of([plus("a")]), View.of([plus("b")])) is Comparison.INCOMPARABLE


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
    # antisymmetry
    if compare(a, b) is Comparison.LESS:
        assert compare(b, a) is Comparison.GREATER
    # transitivity
    if compare(a, b) is Comparison.LESS and compare(b, c) is Comparison.LESS:
        assert compare(a, c) is Comparison.LESS
    # reflexivity
    assert compare(a, a) is Comparison.EQUAL


@given(small_views)
@settings(max_examples=200, deadline=None)
def test_canonical_serialization_round_trips(v):
    from dbrb.messages import Reader, Writer, read_view, write_view

    w = Writer()
    write_view(w, v)
    assert read_view(Reader(w.getvalue())) == v


def test_least_most_fixed_points_under_interior_insertion():
    v0 = members_view(4)
    v2 = View(v0.changes | {plus("p5"), plus("p6")})
    mid = View(v0.changes | {plus("p5")})
    seq = {v0, v2}
    assert least_recent(seq | {mid}) == least_recent(seq)
    assert most_recent(seq | {mid}) == most_recent(seq)


def test_seq_key_ignores_iteration_order():
    v0 = members_view(4)
    v1 = View(v0.changes | {plus("p5")})
    assert seq_key([v0, v1]) == seq_key([v1, v0])
    assert seq_key([v0]) != seq_key([v1])
