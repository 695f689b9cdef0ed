"""Reconfiguration handlers, driven one message at a time."""

import dataclasses
import hashlib

import pytest

from conftest import Bench, callbacks_of, notes_of, reconfig_proofs, sends_of
from dbrb.crypto import ack_payload
from dbrb.engine import InvokeBroadcast, InvokeJoin, InvokeLeave, Receive
from dbrb.membership import ContractError, Phase
from dbrb.messages import (
    Ack,
    Converged,
    Deliver,
    HistoryGossip,
    Propose,
    RecConfirm,
    Reconfig,
    ReconfigProof,
    body_bytes,
    decode,
    signed_content,
)
from dbrb.views import View, minus, plus


def reconfig_from(bench, pid, change=None, view=None):
    view = view or bench.initial_view
    change = change or plus(pid)
    return Reconfig(change, view)


def proofed_propose(bench, seq, view):
    return Propose(frozenset(seq), view, reconfig_proofs(bench.keyring, seq, view))


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
                              bench.keyring.sign(author, signed_content(Reconfig(change, v0), author)))
        node.recv[change] = proof
        node.pool[change] = proof
    node.seqs.pop(v0, None)
    actions = node.step(Receive("p5", bench.raw("p5", RecConfirm(v0))))
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
    assert node.propose_votes[v0]["p3"] == {frozenset({v1})}


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


def test_propose_of_a_non_sequence_flagged(bench4):
    # two incomparable views: no sequence, so neither a vote nor a buffer entry
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    split = {View(v0.changes | {plus("p5")}), View(v0.changes | {plus("p6")})}
    actions = bench4.deliver("p2", "p4", proofed_propose(bench4, split, v0))
    assert [(n.kind, n.detail) for n in notes_of(actions)] == [
        ("Flag", "proposal is not a sequence")]
    assert not sends_of(actions)
    assert node.propose_votes == {} and node.propose_buffer == []


@pytest.mark.parametrize("kind", ["PROPOSE", "CONVERGED"])
def test_propose_and_converged_from_a_non_member_dropped(bench4, kind):
    # the tallies hold members' votes only, so their quorum scans count
    # every voter without checking membership again
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    seq = {View(v0.changes | {plus("p5")})}
    msg = proofed_propose(bench4, seq, v0) if kind == "PROPOSE" else Converged(frozenset(seq), v0)
    actions = bench4.deliver("p2", "p5", msg)
    assert [(n.kind, n.msg_kind, n.detail) for n in notes_of(actions)] == [
        ("Drop", kind, "sender not a member")]
    assert not sends_of(actions)
    assert node.propose_votes == {} and node.propose_buffer == []
    assert node.converged_votes == {}


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


def test_propose_votes_count_by_sequence_not_body(bench4):
    # one sequence in three PROPOSE bodies that differ in their proof sets
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    proofs = reconfig_proofs(bench4.keyring, {v1}, v0)
    extra = reconfig_proofs(bench4.keyring, {View(v0.changes | {minus("p4")})}, v0)
    bodies = [Propose(frozenset({v1}), v0, proofs),
              Propose(frozenset({v1}), v0, ()),  # p2 already holds the proof of +p5
              Propose(frozenset({View(frozenset(v1.changes))}), v0, extra + proofs)]
    assert len({body_bytes(m) for m in bodies}) == 3
    actions = bench4.deliver("p2", "p2", bodies[0])
    actions += bench4.deliver("p2", "p1", bodies[1])
    assert not sends_of(actions, "CONVERGED")
    actions = bench4.deliver("p2", "p3", bodies[2])
    assert sorted(c.to for c in sends_of(actions, "CONVERGED")) == ["p1", "p2", "p3", "p4"]


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


def test_converged_votes_count_by_sequence_value(bench4):
    # each copy is parsed afresh, so the votes name equal but distinct sequences
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    node = bench4.nodes["p2"]
    bench4.deliver("p2", "p5", reconfig_from(bench4, "p5"))
    actions = []
    for author in ["p1", "p3", "p4"]:
        node._bodies.clear()
        same = frozenset({View(frozenset(v1.changes))})
        actions = bench4.deliver("p2", author, Converged(same, v0))
    assert len(node.converged_votes) == 1
    assert len(sends_of(actions, "INSTALL")) == 5


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
    for author in ("p2", "p3"):
        actions = bench4.deliver("p1", author, Deliver(b"m", bench4.initial_view))
        assert not sends_of(actions, "RECONFIG") and not sender.delivered
    actions = bench4.deliver("p1", "p4", Deliver(b"m", bench4.initial_view))
    assert sender.delivered
    assert sends_of(actions, "RECONFIG")


# -- the install procedure, branch by branch ----------------------------------

from dbrb.messages import Install, StateRecord, StateUpdate


def signed_install(bench, seq, view, signers=("p1", "p2", "p3")):
    sigs = tuple((pid, bench.keyring.sign(pid, signed_content(Converged(seq, view), pid)))
                 for pid in signers)
    return Install(seq, view, sigs, reconfig_proofs(bench.keyring, seq, view))


def state_update_for(bench, author, view, omega):
    return StateUpdate(view, omega, StateRecord(), ())


def feed_state_updates(bench, to, view, omega, authors):
    actions = []
    for author in authors:
        actions = bench.deliver(to, author, state_update_for(bench, author, view, omega))
    return actions


def test_install_must_replace_with_newer_views(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    install = signed_install(bench4, frozenset({v0}), v0)
    actions = bench4.deliver("p2", "p1", install)
    assert notes_of(actions, "Drop")  # seq not newer than the replaced view
    assert not node.suspended


def test_install_variant_after_completion_is_degenerate(bench4):
    # a second install for an already-current view: format bookkeeping and a
    # state update, but no suspension, no view change, no second install mark
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bench4.deliver("p2", "p1", signed_install(bench4, frozenset({v1}), v0))
    feed_state_updates(bench4, "p2", v0, v1, ["p1", "p3", "p4"])
    assert node.cv == v1 and v1 in node.installed
    variant = signed_install(bench4, frozenset({v1}), v0,
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
    actions = bench4.deliver("p2", "p1", signed_install(bench4, frozenset({v1}), v0))
    assert node.suspended
    assert sends_of(actions, "STATE-UPDATE")
    assert v1 not in node.installed
    actions = feed_state_updates(bench4, "p2", v0, v1, ["p1", "p3", "p4"])
    assert node.cv == v1
    assert v1 in node.installed
    assert not node.suspended
    installs = notes_of(actions, "Install")
    assert [n.views for n in installs] == [{"cv": v1}]


def test_install_while_suspended_drops_old_view_traffic(bench4):
    from dbrb.messages import Prepare

    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bench4.deliver("p2", "p1", signed_install(bench4, frozenset({v1}), v0))
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
                                                  signed_content(Reconfig(change, v0), author)))
        node.pool[change] = proof
    bench4.deliver("p2", "p1", signed_install(bench4, seq, v0))
    actions = feed_state_updates(bench4, "p2", v0, v_a, ["p1", "p3", "p4"])
    assert node.cv == v_a
    assert v_a not in node.installed
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
    bench4.deliver("p5", "p1", signed_install(bench4, frozenset({v1}), v0))
    actions = feed_state_updates(bench4, "p5", v0, v1, ["p1", "p3", "p4"])
    cbs = callbacks_of(actions)
    assert any(c.kind == "JoinComplete" for c in cbs)
    assert joiner.phase is Phase.MEMBER and joiner.cv == v1
    assert v1 in joiner.installed


def test_state_updates_buffered_before_install_arrives(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    feed_state_updates(bench4, "p2", v0, v1, ["p1", "p3", "p4"])
    assert node.cv == v0  # nothing to complete yet
    actions = bench4.deliver("p2", "p1", signed_install(bench4, frozenset({v1}), v0))
    assert node.cv == v1  # the buffered quorum completes the install at once
    assert v1 in node.installed


def test_install_without_reconfig_proofs_is_dropped():
    # A Byzantine member relays a genuine converged quorum with its proofs
    # stripped.  Accepted, it would move p2 to v_a, and p2 would then have to
    # propose v_ab with no proof of +p6: the engine must drop it instead.
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5", "p6"])
    node = bench.nodes["p2"]
    v0 = bench.initial_view
    v_a = View(v0.changes | {plus("p5")})
    v_ab = View(v_a.changes | {plus("p6")})
    seq = frozenset({v_a, v_ab})
    stripped = dataclasses.replace(signed_install(bench, seq, v0), proofs=())
    drops = notes_of(bench.deliver("p2", "p4", stripped), "Drop")
    actions = feed_state_updates(bench, "p2", v0, v_a, ["p1", "p3", "p4"])
    assert [n.detail for n in drops] == ["invalid install proof"]
    assert node.cv == v0 and not node.suspended and not node.pending_installs
    assert not sends_of(actions, "PROPOSE")


# -- tallies an author fills with messages for made-up views --------------------


def made_up_message(bench, kind, view):
    """One message from p4 for `view`, which no install ever made; p4 signs
    what it must itself."""
    if kind == "PROPOSE":
        proof = ReconfigProof(minus("p4"), view, bench.keyring.sign(
            "p4", signed_content(Reconfig(minus("p4"), view), "p4")))
        return Propose(frozenset({View(view.changes | {minus("p4")})}), view, (proof,))
    if kind == "CONVERGED":
        return Converged(frozenset({View(view.changes | {minus("p4")})}), view)
    if kind == "REC-CONFIRM":
        return RecConfirm(view)
    if kind == "ACK":
        digest = hashlib.sha256(b"m").digest()
        return Ack(b"m", bench.keyring.sign("p4", ack_payload(digest, view)), view)
    return Deliver(b"m", view)


# Each tally, and the entries in it that p4 made for one of the views given.
TALLIES = {
    "PROPOSE": {
        "propose_buffer": lambda held, views: [e for e in held if e.view in views],
        "propose_votes": lambda held, views: [v for v in views if "p4" in held.get(v, {})],
    },
    "CONVERGED": {
        "converged_votes": lambda held, views: [k for k, votes in held.items()
                                                if k[0] in views and "p4" in votes],
    },
    "REC-CONFIRM": {
        "rec_confirms": lambda held, views: [v for v in views if "p4" in held.get(v, ())],
    },
    "ACK": {
        "ack_sigs": lambda held, views: [k for k in held if k[0] == "p4" and k[1] in views],
        "ack_counts": lambda held, views: [k for k, who in held.items()
                                           if k[0] in views and "p4" in who],
    },
    "DELIVER": {
        "delivers": lambda held, views: [k for k in held if k[0] == "p4" and k[1] in views],
        "deliver_counts": lambda held, views: [k for k, who in held.items()
                                               if k[0] in views and "p4" in who],
    },
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1, per-author bounds: each tally keeps every "
                          "made-up view an author names")
@pytest.mark.parametrize("kind", TALLIES)
def test_one_author_holds_a_bounded_share_of_each_tally(bench4, kind):
    # 300 messages from p4 to the sender p1, each for a view V0 + x<i>
    node = bench4.nodes["p1"]
    node.step(InvokeBroadcast(b"m"))
    made_up = {View(bench4.initial_view.changes | {plus(f"x{i}")}) for i in range(300)}
    for view in made_up:
        bench4.deliver("p1", "p4", made_up_message(bench4, kind, view))
    held = {name: len(from_p4(getattr(node, name), made_up))
            for name, from_p4 in TALLIES[kind].items()}
    assert all(n <= 16 for n in held.values()), held
