"""Reconfiguration handlers, driven one message at a time."""

import pytest

from conftest import Bench, callbacks_of, notes_of, sends_of
from dbrb.engine import InvokeJoin, InvokeLeave, Receive
from dbrb.membership import ContractError
from dbrb.messages import (
    Converged,
    HistoryGossip,
    Propose,
    RecConfirm,
    Reconfig,
    ReconfigProof,
    decode,
    reconfig_signed_bytes,
)
from dbrb.views import View, minus, plus, seq_key


def reconfig_from(bench, pid, change=None, view=None):
    view = view or bench.initial_view
    change = change or plus(pid)
    return Reconfig(change, view)


def proofed_propose(bench, seq, view):
    needed = set()
    for w in seq:
        needed |= w.changes - view.changes
    proofs = tuple(
        ReconfigProof(c, view,
                      bench.keyring.sign(c.process, reconfig_signed_bytes(c, view, c.process)))
        for c in sorted(needed, key=lambda c: (c.process, c.sign))
    )
    return Propose(frozenset(seq), view, proofs)


def test_reconfig_accepted_and_confirmed(bench4):
    actions = bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    confirms = sends_of(actions, "REC-CONFIRM")
    assert [c.to for c in confirms] == ["p5"]
    assert plus("p5") in bench4.nodes["p2"].recv
    # the reconfig also unlocks a proposal, since v0 is installed
    proposes = sends_of(actions, "PROPOSE")
    assert sorted(p.to for p in proposes) == ["p1", "p2", "p3", "p4"]


def test_reconfig_leave_without_join_ignored(bench4):
    actions = bench4.deliver("p2", "p5", reconfig_from(bench4, "p5", change=minus("p5")))
    assert not sends_of(actions)
    assert not bench4.nodes["p2"].recv


def test_reconfig_stale_view_ignored(bench4):
    stale = View(bench4.initial_view.changes | {plus("px")})
    actions = bench4.deliver("p2", "p5", reconfig_from(bench4, "p5", view=stale))
    assert not sends_of(actions)


def test_reconfig_not_signed_by_subject_flagged(bench4):
    # p3 tries to enroll p5 on its behalf
    actions = bench4.deliver("p2", "p3", reconfig_from(bench4, "p5"))
    assert not sends_of(actions)
    assert notes_of(actions, "Flag")


def test_propose_carries_both_pending_changes(bench4):
    node = bench4.nodes["p2"]
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    # second change arrives after the first proposal; no immediate re-propose
    bench4.deliver("p2", "p4", reconfig_from(bench4, "p4", change=minus("p4")))
    seq = node.seqs[bench4.initial_view]
    assert len(seq) == 1  # guard: only proposes while SEQ is empty


def test_propose_union_of_recv_changes():
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])
    node = bench.nodes["p2"]
    # deliver both reconfigs before any proposal can... p2 proposes on first repoll,
    # so craft the recv set directly to exercise the union rule
    v0 = bench.initial_view
    for change, author in [(plus("p5"), "p5"), (minus("p4"), "p4")]:
        proof = ReconfigProof(change, v0,
                              bench.keyring.sign(author, reconfig_signed_bytes(change, v0, author)))
        node.recv[change] = proof
        node.pool[change] = proof
    node.seqs.pop(v0, None)
    actions = node.step(Receive("p5", bench.raw("p5", RecConfirm(v0)),
                                {"msg": "REC-CONFIRM"}))
    proposes = sends_of(actions, "PROPOSE")
    assert proposes
    proposed = decode(proposes[0].raw, bench.verifier).msg
    (view,) = proposed.seq
    assert view.changes == v0.changes | {plus("p5"), minus("p4")}


def test_propose_plain_union_when_compatible(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    v12 = View(v1.changes | {plus("p6")})
    bench4.add_node("p6")
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    assert node.seqs[v0] == frozenset({v1})
    actions = bench4.deliver("p2", "p3", proofed_propose(bench4, {v1, v12}, v0))
    assert node.seqs[v0] == frozenset({v1, v12})
    assert sends_of(actions, "PROPOSE")


def test_propose_conflict_merges_most_recent_views(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    bench4.add_node("p6")
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    v_a = View(v0.changes | {plus("p5")})
    v_b = View(v0.changes | {plus("p6")})
    actions = bench4.deliver("p2", "p3", proofed_propose(bench4, {v_b}, v0))
    # incomparable proposals; LCSEQ is empty so the merge is the union view
    assert node.seqs[v0] == frozenset({v_a.union(v_b)})
    assert sends_of(actions, "PROPOSE")


def test_propose_with_no_novel_view_dropped(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    v1 = View(v0.changes | {plus("p5")})
    actions = bench4.deliver("p2", "p3", proofed_propose(bench4, {v1}, v0))
    # vote is recorded but no re-dissemination happens
    assert not sends_of(actions, "PROPOSE")
    assert node.propose_votes[v0]["p3"] == {seq_key({v1})}


def test_propose_not_more_recent_than_cv_ignored(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    actions = bench4.deliver("p2", "p3", proofed_propose(bench4, {v0}, v0))
    assert not sends_of(actions)
    assert not node.seqs.get(v0)


def test_propose_containing_its_own_view_flagged(bench4):
    # a Byzantine member proposes a sequence that holds the view it replaces
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    actions = bench4.deliver("p2", "p4", proofed_propose(bench4, {v0, v1}, v0))
    assert [n.detail for n in notes_of(actions, "Flag")] == ["proposal not above its view"]
    assert not sends_of(actions)
    assert v0 not in node.propose_votes
    assert not node.propose_buffer
    assert not node.seqs.get(v0)


def test_propose_without_change_proof_rejected(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bare = Propose(frozenset({v1}), v0, ())
    actions = bench4.deliver("p2", "p3", bare)
    assert notes_of(actions, "Drop")
    assert not node.seqs.get(v0)


def test_propose_quorum_triggers_converged(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    node = bench4.nodes["p2"]
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    msg = proofed_propose(bench4, {v1}, v0)
    # nodes send to themselves through the network; replay that loopback
    actions = bench4.deliver("p2", "p2", msg)
    actions += bench4.deliver("p2", "p1", msg)
    assert not sends_of(actions, "CONVERGED")  # 2 of 3 matching votes so far
    actions = bench4.deliver("p2", "p3", msg)
    converged = sends_of(actions, "CONVERGED")
    assert sorted(c.to for c in converged) == ["p1", "p2", "p3", "p4"]
    assert node.lcseqs[v0] == frozenset({v1})


def test_propose_quorum_needs_matching_sequences(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bench4.add_node("p6")
    v_other = View(v0.changes | {plus("p6")})
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    bench4.deliver("p2", "p1", proofed_propose(bench4, {v1}, v0))
    # a vote for a different sequence must not count toward the quorum
    actions = bench4.deliver("p2", "p3", proofed_propose(bench4, {v_other}, v0))
    assert not sends_of(actions, "CONVERGED")


def test_converged_quorum_emits_install(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    node = bench4.nodes["p2"]
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    actions = []
    for author in ["p1", "p3", "p4"]:
        actions = bench4.deliver("p2", author, Converged(frozenset({v1}), v0))
    installs = sends_of(actions, "INSTALL")
    assert sorted(i.to for i in installs) == ["p1", "p2", "p3", "p4", "p5"]
    decoded = decode(installs[0].raw, bench4.verifier).msg
    assert decoded.omega == v1
    assert decoded.view == v0
    assert decoded.seq == frozenset({v1})
    assert len(decoded.converged_sigs) == 3


def test_converged_subquorum_is_silent(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    actions = bench4.deliver("p2", "p1", Converged(frozenset({v1}), v0))
    actions += bench4.deliver("p2", "p3", Converged(frozenset({v1}), v0))
    assert not sends_of(actions, "INSTALL")


def test_converged_chain_install_targets_least_view(bench4):
    v0 = bench4.initial_view
    bench4.add_node("p6")
    v_a = View(v0.changes | {plus("p5")})
    v_ab = View(v_a.changes | {plus("p6")})
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    bench4.deliver("p2", "p6", reconfig_from(bench4, "p6", change=plus("p6")))
    bench4.deliver("p2", "p3", proofed_propose(bench4, {v_a, v_ab}, v0))
    actions = []
    for author in ["p1", "p3", "p4"]:
        actions = bench4.deliver("p2", author, Converged(frozenset({v_a, v_ab}), v0))
    installs = sends_of(actions, "INSTALL")
    assert installs
    decoded = decode(installs[0].raw, bench4.verifier).msg
    assert decoded.omega == v_a
    assert decoded.seq == frozenset({v_a, v_ab})


def test_join_contract(bench4):
    joiner = bench4.nodes["p5"]
    actions = joiner.step(InvokeJoin())
    # discovery request only; the reconfig waits for a history reply
    from dbrb.engine import Flood

    floods = [a for a in actions if isinstance(a, Flood)]
    assert [f.meta["msg"] for f in floods] == ["HISTORY-REQUEST"]
    assert not sends_of(actions)
    with pytest.raises(ContractError):
        joiner.step(InvokeJoin())


def test_join_reconfig_after_history(bench4):
    joiner = bench4.nodes["p5"]
    joiner.step(InvokeJoin())
    history = bench4.nodes["p1"]._best_history()
    actions = bench4.deliver("p5", "p1", HistoryGossip(history))
    reconfigs = sends_of(actions, "RECONFIG")
    assert sorted(r.to for r in reconfigs) == ["p1", "p2", "p3", "p4"]


def test_join_on_initial_member_rejected(bench4):
    with pytest.raises(ContractError):
        bench4.nodes["p1"].step(InvokeJoin())


def test_leave_requires_participant(bench4):
    with pytest.raises(ContractError):
        bench4.nodes["p5"].step(InvokeLeave())


def test_leave_emits_reconfig_immediately_for_non_sender(bench4):
    actions = bench4.nodes["p3"].step(InvokeLeave())
    reconfigs = sends_of(actions, "RECONFIG")
    assert sorted(r.to for r in reconfigs) == ["p1", "p2", "p3", "p4"]
    msg = decode(reconfigs[0].raw, bench4.verifier).msg
    assert msg.change == minus("p3")


def test_leave_by_sender_waits_for_can_leave(bench4):
    sender = bench4.nodes["p1"]
    from dbrb.engine import InvokeBroadcast

    sender.step(InvokeBroadcast(b"m"))
    actions = sender.step(InvokeLeave())
    assert not sends_of(actions, "RECONFIG")  # gated until the deliver quorum
    sender.can_leave = True
    actions = sender.step(Receive("p2", bench4.raw("p2", RecConfirm(bench4.initial_view)),
                                  {"msg": "REC-CONFIRM"}))
    assert sends_of(actions, "RECONFIG")


# -- the install procedure, branch by branch ----------------------------------

from dbrb.messages import Install, StateRecord, StateUpdate, converged_signed_bytes


def signed_install(bench, omega, seq, view, signers=("p1", "p2", "p3")):
    sigs = tuple((pid, bench.keyring.sign(pid, converged_signed_bytes(seq, view, pid)))
                 for pid in signers)
    psi = tuple(sorted(view.member_set | omega.member_set))
    return Install(psi, omega, seq, view, sigs, ())


def state_update_for(bench, author, view, omega):
    psi = tuple(sorted(view.member_set | omega.member_set))
    return bench.nodes[author].step if False else StateUpdate(
        psi, view, omega, StateRecord(), ())


def feed_state_updates(bench, to, view, omega, authors):
    actions = []
    for author in authors:
        actions = bench.deliver(to, author, state_update_for(bench, author, view, omega))
    return actions


def test_install_must_replace_with_newer_views(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    install = signed_install(bench4, v0, frozenset({v0}), v0)
    actions = bench4.deliver("p2", "p1", install)
    assert notes_of(actions, "Drop")  # seq not newer than the replaced view
    assert not node.suspended


def test_install_variant_after_completion_is_degenerate(bench4):
    # a second install for an already-current view: format bookkeeping and a
    # state update, but no suspension, no view change, no second install mark
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bench4.deliver("p2", "p1", signed_install(bench4, v1, frozenset({v1}), v0))
    feed_state_updates(bench4, "p2", v0, v1, ["p1", "p3", "p4"])
    assert node.cv == v1 and node.installed[v1]
    variant = signed_install(bench4, v1, frozenset({v1}), v0,
                             signers=("p2", "p3", "p4"))
    actions = bench4.deliver("p2", "p1", variant)
    assert sends_of(actions, "STATE-UPDATE")
    assert not node.suspended
    assert node.cv == v1
    assert not notes_of(actions, "Install")


def test_install_suspends_then_completes(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    actions = bench4.deliver("p2", "p1", signed_install(bench4, v1, frozenset({v1}), v0))
    assert node.suspended
    assert sends_of(actions, "STATE-UPDATE")
    assert not node.installed.get(v1, False)
    actions = feed_state_updates(bench4, "p2", v0, v1, ["p1", "p3", "p4"])
    assert node.cv == v1
    assert node.installed[v1] is True
    assert not node.suspended
    installs = notes_of(actions, "Install")
    assert [n.views for n in installs] == [{"cv": v1}]


def test_install_while_suspended_drops_old_view_traffic(bench4):
    from dbrb.messages import Prepare

    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bench4.deliver("p2", "p1", signed_install(bench4, v1, frozenset({v1}), v0))
    actions = bench4.deliver("p2", "p1", Prepare(b"m", v0))
    assert not sends_of(actions, "ACK")
    assert any("suspended" in (n.detail or "") for n in notes_of(actions, "Drop"))


def test_install_chain_proposes_remainder_without_installing(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    bench4.add_node("p6")
    v_a = View(v0.changes | {plus("p5")})
    v_ab = View(v_a.changes | {plus("p6")})
    seq = frozenset({v_a, v_ab})
    # the chain propose needs originator proofs for the new changes
    for change, author in [(plus("p5"), "p5"), (plus("p6"), "p6")]:
        proof = ReconfigProof(change, v0,
                              bench4.keyring.sign(author,
                                                  reconfig_signed_bytes(change, v0, author)))
        node.pool[change] = proof
    bench4.deliver("p2", "p1", signed_install(bench4, v_a, seq, v0))
    actions = feed_state_updates(bench4, "p2", v0, v_a, ["p1", "p3", "p4"])
    assert node.cv == v_a
    assert not node.installed.get(v_a, False)
    assert node.suspended  # still not installed; processing stays stopped
    proposes = sends_of(actions, "PROPOSE")
    assert sorted(p.to for p in proposes) == sorted(v_a.members)
    proposed = decode(proposes[0].raw, bench4.verifier).msg
    assert proposed.seq == frozenset({v_ab})
    assert proposed.view == v_a
    assert not notes_of(actions, "Install")


def test_joiner_completes_join_via_install(bench4):
    joiner = bench4.nodes["p5"]
    joiner.step(InvokeJoin())
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bench4.deliver("p5", "p1", signed_install(bench4, v1, frozenset({v1}), v0))
    actions = feed_state_updates(bench4, "p5", v0, v1, ["p1", "p3", "p4"])
    cbs = callbacks_of(actions)
    assert any(c.kind == "JoinComplete" for c in cbs)
    assert joiner.joined and joiner.cv == v1
    assert joiner.installed[v1] is True


def test_state_updates_buffered_before_install_arrives(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    feed_state_updates(bench4, "p2", v0, v1, ["p1", "p3", "p4"])
    assert node.cv == v0  # nothing to complete yet
    actions = bench4.deliver("p2", "p1", signed_install(bench4, v1, frozenset({v1}), v0))
    assert node.cv == v1  # the buffered quorum completes the install at once
    assert node.installed[v1] is True
