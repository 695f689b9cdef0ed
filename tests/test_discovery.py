"""View histories: verification, trust growth, and the gossip surface."""

import pytest

from conftest import notes_of, reconfig_proofs, sends_of
from dbrb.discovery import verify_history
from dbrb.engine import Flood, Receive
from dbrb.messages import (
    Converged,
    HistoryGossip,
    HistoryRequest,
    Install,
    ViewHistory,
    decode,
    signed_content,
)
from dbrb.views import View, plus


def make_link(bench, view, omega, signers=("p1", "p2", "p3")):
    seq = frozenset({omega})
    sigs = tuple((pid, bench.keyring.sign(pid, signed_content(Converged(seq, view), pid)))
                 for pid in signers)
    return Install(seq, view, sigs, reconfig_proofs(bench.keyring, seq, view))


def test_base_history_verifies(bench4):
    h = ViewHistory(bench4.initial_view)
    assert verify_history(h, bench4.initial_view, bench4.verifier)


def test_wrong_root_rejected(bench4):
    other = View.of([plus("x")])
    assert not verify_history(ViewHistory(other), bench4.initial_view, bench4.verifier)


def test_linked_history_verifies(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    link = make_link(bench4, v0, v1)
    h = ViewHistory(v0, (link,))
    assert verify_history(h, v0, bench4.verifier)


def test_corrupted_converged_signature_rejected(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    link = make_link(bench4, v0, v1)
    sigs = list(link.converged_sigs)
    sigs[0] = (sigs[0][0], b"garbage")
    broken = Install(link.seq, link.view, tuple(sigs), link.proofs)
    h = ViewHistory(v0, (broken,))
    assert not verify_history(h, v0, bench4.verifier)


def test_extend_trust_adopts_longer_history(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    node = bench4.nodes["p2"]
    h = ViewHistory(v0, (make_link(bench4, v0, v1),))
    node._extend_trust(h)
    assert node.trusted_hist == {v0: ViewHistory(v0), v1: h}
    assert node._is_trusted(v1)
    assert node._best_view() == v1
    # a shorter history changes nothing
    node._extend_trust(ViewHistory(v0))
    assert node.trusted_hist == {v0: ViewHistory(v0), v1: h}
    assert node._best_view() == v1


def test_unverifiable_history_ignored(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    link = make_link(bench4, v0, v1, signers=("p1",))  # sub-quorum
    node = bench4.nodes["p2"]
    node._extend_trust(ViewHistory(v0, (link,)))
    assert list(node.trusted_hist) == [v0] and not node.trusted_aux
    assert not node._is_trusted(v1)


def test_auxiliary_views_in_links_become_valid(bench4):
    v0 = bench4.initial_view
    v_a = View(v0.changes | {plus("p5")})
    v_ab = View(v_a.changes | {plus("p6")})
    seq = frozenset({v_a, v_ab})
    sigs = tuple((pid, bench4.keyring.sign(pid, signed_content(Converged(seq, v0), pid)))
                 for pid in ("p1", "p2", "p3"))
    link = Install(seq, v0, sigs, reconfig_proofs(bench4.keyring, seq, v0))
    node = bench4.nodes["p2"]
    node._extend_trust(ViewHistory(v0, (link,)))
    assert node._is_valid_view(v_ab)  # auxiliary: acceptable as v_cer
    assert not node._is_trusted(v_ab)  # but not an install chain entry


def test_participants_answer_history_requests(bench4):
    actions = bench4.deliver("p2", "p5", HistoryRequest())
    replies = sends_of(actions, "HISTORY")
    assert [r.to for r in replies] == ["p5"]
    msg = decode(replies[0].raw, bench4.verifier).msg
    assert msg.history == ViewHistory(bench4.initial_view)


def test_dormant_nodes_stay_silent(bench4):
    joiner = bench4.nodes["p5"]
    actions = joiner.step(Receive("p1", bench4.raw("p1", HistoryRequest())))
    assert not actions


def test_trust_growth_triggers_gossip(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    node = bench4.nodes["p2"]
    gossip = HistoryGossip(ViewHistory(v0, (make_link(bench4, v0, v1),)))
    actions = bench4.deliver("p2", "p1", gossip)
    floods = [a for a in actions if isinstance(a, Flood)]
    assert any(f.meta["msg"] == "HISTORY" for f in floods)
    # same history again: no further flood
    actions = bench4.deliver("p2", "p1", gossip)
    assert not [a for a in actions if isinstance(a, Flood)]


@pytest.mark.parametrize("route", ["history", "install"])
def test_diverging_views_are_flagged_once(bench4, route):
    # two quorums installing incomparable successors of v0: each proof
    # verifies, together they diverge; the second view is flagged when it is
    # trusted, by history or by install, and repeats add no flag
    v0 = bench4.initial_view
    v_a = View(v0.changes | {plus("p5")})
    v_b = View(v0.changes | {plus("p6")})
    h_a = HistoryGossip(ViewHistory(v0, (make_link(bench4, v0, v_a),)))
    link_b = make_link(bench4, v0, v_b, ("p2", "p3", "p4"))
    b = HistoryGossip(ViewHistory(v0, (link_b,))) if route == "history" else link_b
    flags = [[f.detail for f in notes_of(bench4.deliver("p2", "p1", msg), "Flag")]
             for msg in (h_a, b, h_a, b)]
    assert flags == [[], [f"diverging verified histories: {v_a.short} vs {v_b.short}"], [], []]
    assert bench4.nodes["p2"]._is_trusted(v_a) and bench4.nodes["p2"]._is_trusted(v_b)


@pytest.mark.parametrize("seq", ["empty", "incomparable"])
def test_malformed_sequence_is_dropped_before_omega_is_read(bench4, seq):
    # omega is derived from seq, so the install proof must reject a seq with
    # no least view before anything reads omega: as an INSTALL and as the
    # link of a HISTORY, the message is dropped, and nothing raises (the
    # INSTALL route is also `test_rmulticast.py`'s least-view test)
    v0 = bench4.initial_view
    views = {"empty": set(),
             "incomparable": {View(v0.changes | {plus("p5")}), View(v0.changes | {plus("p6")})}}
    seq = frozenset(views[seq])
    sigs = tuple((pid, bench4.keyring.sign(pid, signed_content(Converged(seq, v0), pid)))
                 for pid in ("p1", "p2", "p3"))
    bad = Install(seq, v0, sigs, reconfig_proofs(bench4.keyring, seq, v0))
    actions = bench4.deliver("p2", "p1", bad)
    assert [n.detail for n in notes_of(actions, "Drop")] == ["invalid install proof"]
    assert not sends_of(actions)
    actions = bench4.deliver("p3", "p1", HistoryGossip(ViewHistory(v0, (bad,))))
    assert [n.detail for n in notes_of(actions, "Drop")] == ["unverifiable view history"]
    assert not sends_of(actions)
    for pid in ("p2", "p3"):
        node = bench4.nodes[pid]
        assert list(node.trusted_hist) == [v0] and not node.trusted_aux
