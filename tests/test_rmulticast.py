"""Reliable multicast of installs: target-set checks, relay-before-deliver,
dedup; and state updates, which are sent once and never relayed."""

import pytest

from conftest import Bench, notes_of, reconfig_proofs, sends_of
from dbrb.engine import InvokeJoin, Receive, Send
from dbrb.messages import (
    Converged,
    HistoryGossip,
    Install,
    Reconfig,
    StateRecord,
    StateUpdate,
    ViewHistory,
    rm_targets,
    signed_content,
)
from dbrb.views import View, minus, plus


def make_install(bench, seq=None, view=None, signers=("p1", "p2", "p3")):
    view = view or bench.initial_view
    if seq is None:
        seq = frozenset({View(view.changes | {plus("p5")})})
    sigs = tuple((pid, bench.keyring.sign(pid, signed_content(Converged(seq, view), pid)))
                 for pid in signers)
    return Install(seq, view, sigs, reconfig_proofs(bench.keyring, seq, view))


def test_own_install_is_sent_to_every_target(bench4):
    # p2 holds p5's request, then a converged quorum forms: p2 sends its own
    # install to the members of V0 and of V0 + p5, itself included
    v0 = bench4.initial_view
    seq = frozenset({View(v0.changes | {plus("p5")})})
    bench4.deliver("p2", "p5", Reconfig(plus("p5"), v0))
    for author in ("p1", "p3"):
        assert not sends_of(bench4.deliver("p2", author, Converged(seq, v0)), "INSTALL")
    actions = bench4.deliver("p2", "p4", Converged(seq, v0))
    assert [a.to for a in sends_of(actions, "INSTALL")] == ["p1", "p2", "p3", "p4", "p5"]


def test_relay_precedes_delivery_effects(bench4):
    install = make_install(bench4)
    actions = bench4.deliver("p2", "p1", install)
    kinds = [(a.meta["msg"], a.to) if isinstance(a, Send) else type(a).__name__
             for a in actions]
    relays = [i for i, k in enumerate(kinds) if k[0] == "INSTALL"]
    state_updates = [i for i, k in enumerate(kinds) if k[0] == "STATE-UPDATE"]
    assert relays and state_updates
    assert max(relays) < min(state_updates)


def test_second_receipt_is_silent(bench4):
    install = make_install(bench4)
    bench4.deliver("p2", "p1", install)
    actions = bench4.deliver("p2", "p3", install)
    assert not sends_of(actions, "INSTALL")
    assert not sends_of(actions, "STATE-UPDATE")


def test_install_with_wrong_least_view_dropped(bench4):
    # omega is derived as the least view of seq; a seq with none is dropped
    v0 = bench4.initial_view
    v_a = View(v0.changes | {plus("p5")})
    v_b = View(v0.changes | {plus("p6")})
    for seq in (frozenset(), frozenset({v_a, v_b})):
        bad = make_install(bench4, seq=seq)
        actions = bench4.deliver("p2", "p1", bad)
        assert any("invalid install proof" in (n.detail or "")
                   for n in notes_of(actions, "Drop"))
        assert not sends_of(actions)


def test_install_with_subquorum_proof_dropped(bench4):
    bad = make_install(bench4, signers=("p1", "p2"))
    actions = bench4.deliver("p2", "p1", bad)
    assert any("invalid install proof" in (n.detail or "")
               for n in notes_of(actions, "Drop"))


@pytest.mark.parametrize("replaced, seq", [
    (View(frozenset()), frozenset({View.of([plus("p5")])})),
    (View.of([plus("p5"), minus("p5")]), frozenset({View.of([plus("p5"), minus("p5"), plus("p6")])})),
], ids=["empty", "left"])
def test_install_replacing_a_view_with_no_members_is_dropped(replaced, seq):
    # no quorum of such a view exists, so no install from it can be proved;
    # the shared quorum check says so instead of asking for a quorum size
    bench = Bench(["p1", "p2", "p3", "p4"])
    node = bench.nodes["p2"]
    proved = set(node.verifier.proved)
    bad = Install(seq, replaced, (), reconfig_proofs(bench.keyring, seq, replaced))
    actions = bench.deliver("p2", "p4", bad)
    assert [(n.kind, n.detail) for n in notes_of(actions)] == [("Drop", "invalid install proof")]
    assert not sends_of(actions)
    assert node.verifier.proved == proved


def test_install_of_an_untrusted_view_is_parked_until_a_history_trusts_it():
    # V1 -> V2 reaches p2 before p2 trusts V1: it is parked, once however
    # often it comes.  The history that proves V0 -> V1 wakes the parked
    # install in the same step: p2 echoes it to its five other targets and
    # sends its own state update.
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5", "p6"])
    node = bench.nodes["p2"]
    v0 = bench.initial_view
    v1 = View(v0.changes | {plus("p5")})
    v2 = View(v1.changes | {plus("p6")})
    parked = make_install(bench, seq=frozenset({v2}), view=v1,
                          signers=("p1", "p2", "p3", "p4"))
    for author in ("p1", "p3"):
        actions = bench.deliver("p2", author, parked)
        assert not actions
        assert node.rm_pending == [(parked, bench.raw(author, parked))]
    actions = bench.deliver("p2", "p1", HistoryGossip(ViewHistory(v0, (make_install(bench),))))
    echoes = sends_of(actions, "INSTALL")
    assert [s.to for s in echoes] == ["p1", "p3", "p4", "p5", "p6"]
    assert {s.raw for s in echoes} == {bench.raw("p1", parked)}
    assert [s.to for s in sends_of(actions, "STATE-UPDATE")] == rm_targets(parked)
    assert node.rm_pending == [] and node.suspended


def test_receiver_outside_target_set_drops(bench4):
    # the targets are the members of V0 and of V0 + p5; p6 is neither
    bench4.add_node("p6").step(InvokeJoin())
    actions = bench4.deliver("p6", "p1", make_install(bench4))
    assert any("not in target set" in (n.detail or "")
               for n in notes_of(actions, "Drop"))
    assert not sends_of(actions, "INSTALL")


def test_state_update_recorded_on_first_receipt_and_not_relayed(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    node = bench4.nodes["p2"]
    upd = StateUpdate(v0, v1, StateRecord(), ())
    actions = node.step(Receive("p3", bench4.raw("p3", upd)))
    assert not sends_of(actions)
    assert node.state_updates[v0] == {"p3": upd}
    # a second update from p3 for the same view is not recorded
    other = StateUpdate(v0, v1, StateRecord(), reconfig_proofs(bench4.keyring, frozenset({v1}), v0))
    actions = node.step(Receive("p3", bench4.raw("p3", other)))
    assert not sends_of(actions)
    assert node.state_updates[v0] == {"p3": upd}


def test_state_update_from_non_member_dropped(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    upd = StateUpdate(v0, v1, StateRecord(), ())
    actions = bench4.nodes["p2"].step(
        Receive("p5", bench4.raw("p5", upd)))
    assert any("sender not in replaced view" in (n.detail or "")
               for n in notes_of(actions, "Drop"))
    assert v0 not in bench4.nodes["p2"].state_updates
