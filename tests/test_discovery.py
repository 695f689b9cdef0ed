"""View histories: verification, trust growth, and the gossip surface."""

from conftest import sends_of
from dbrb.discovery import verify_history
from dbrb.engine import Flood, Receive
from dbrb.messages import (
    HistoryGossip,
    HistoryRequest,
    Install,
    ViewHistory,
    converged_signed_bytes,
    decode,
)
from dbrb.views import View, plus


def make_link(bench, view, omega, signers=("p1", "p2", "p3")):
    seq = frozenset({omega})
    sigs = tuple((pid, bench.keyring.sign(pid, converged_signed_bytes(seq, view, pid)))
                 for pid in signers)
    psi = tuple(sorted(view.member_set | omega.member_set))
    return Install(psi, omega, seq, view, sigs, ())


def test_base_history_verifies(bench4):
    h = ViewHistory((bench4.initial_view,))
    assert verify_history(h, bench4.initial_view, bench4.verifier)


def test_wrong_root_rejected(bench4):
    other = View.of([plus("x")])
    assert not verify_history(ViewHistory((other,)), bench4.initial_view, bench4.verifier)


def test_linked_history_verifies(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    link = make_link(bench4, v0, v1)
    h = ViewHistory((v0, v1), (link,))
    assert verify_history(h, v0, bench4.verifier)


def test_corrupted_converged_signature_rejected(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    link = make_link(bench4, v0, v1)
    sigs = list(link.converged_sigs)
    sigs[0] = (sigs[0][0], b"garbage")
    broken = Install(link.psi, link.omega, link.seq, link.view, tuple(sigs), ())
    h = ViewHistory((v0, v1), (broken,))
    assert not verify_history(h, v0, bench4.verifier)


def test_extend_trust_adopts_longer_history(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    node = bench4.nodes["p2"]
    h = ViewHistory((v0, v1), (make_link(bench4, v0, v1),))
    assert node._extend_trust(h)
    assert node._is_trusted(v1)
    assert node._best_view() == v1
    # a shorter history changes nothing
    assert not node._extend_trust(ViewHistory((v0,)))
    assert node._best_view() == v1


def test_unverifiable_history_ignored(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    link = make_link(bench4, v0, v1, signers=("p1",))  # sub-quorum
    node = bench4.nodes["p2"]
    assert not node._extend_trust(ViewHistory((v0, v1), (link,)))
    assert not node._is_trusted(v1)


def test_auxiliary_views_in_links_become_valid(bench4):
    v0 = bench4.initial_view
    v_a = View(v0.changes | {plus("p5")})
    v_ab = View(v_a.changes | {plus("p6")})
    seq = frozenset({v_a, v_ab})
    sigs = tuple((pid, bench4.keyring.sign(pid, converged_signed_bytes(seq, v0, pid)))
                 for pid in ("p1", "p2", "p3"))
    psi = tuple(sorted(v0.member_set | v_a.member_set))
    link = Install(psi, v_a, seq, v0, sigs, ())
    node = bench4.nodes["p2"]
    node._extend_trust(ViewHistory((v0, v_a), (link,)))
    assert node._is_valid_view(v_ab)  # auxiliary: acceptable as v_cer
    assert not node._is_trusted(v_ab)  # but not an install chain entry


def test_participants_answer_history_requests(bench4):
    actions = bench4.deliver("p2", "p5", HistoryRequest())
    replies = sends_of(actions, "HISTORY")
    assert [r.to for r in replies] == ["p5"]
    msg = decode(replies[0].raw, bench4.verifier).msg
    assert msg.history.views == (bench4.initial_view,)


def test_dormant_nodes_stay_silent(bench4):
    joiner = bench4.nodes["p5"]
    actions = joiner.step(Receive("p1", bench4.raw("p1", HistoryRequest()),
                                  {"msg": "HISTORY-REQUEST"}))
    assert not actions


def test_trust_growth_triggers_gossip(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    node = bench4.nodes["p2"]
    gossip = HistoryGossip(ViewHistory((v0, v1), (make_link(bench4, v0, v1),)))
    actions = bench4.deliver("p2", "p1", gossip)
    floods = [a for a in actions if isinstance(a, Flood)]
    assert any(f.meta["msg"] == "HISTORY" for f in floods)
    # same history again: no further flood
    actions = bench4.deliver("p2", "p1", gossip)
    assert not [a for a in actions if isinstance(a, Flood)]
