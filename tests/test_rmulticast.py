"""Reliable multicast: target-set checks, relay-before-deliver, dedup."""

from conftest import notes_of, reconfig_proofs, sends_of
from dbrb.engine import InvokeJoin, Receive, Send
from dbrb.messages import (
    Converged,
    Install,
    StateRecord,
    StateUpdate,
    message_meta,
    signed_content,
)
from dbrb.views import View, plus


def make_install(bench, seq=None, view=None, signers=("p1", "p2", "p3")):
    view = view or bench.initial_view
    if seq is None:
        seq = frozenset({View(view.changes | {plus("p5")})})
    sigs = tuple((pid, bench.keyring.sign(pid, signed_content(Converged(seq, view), pid)))
                 for pid in signers)
    return Install(seq, view, sigs, reconfig_proofs(bench.keyring, seq, view))


def test_r_multicast_sends_to_every_target(bench4):
    node = bench4.nodes["p2"]
    install = make_install(bench4)
    node._outputs = []
    node._r_multicast(install)
    actions, node._outputs = node._outputs, []
    assert sorted(a.to for a in actions if isinstance(a, Send)) == \
        ["p1", "p2", "p3", "p4", "p5"]


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


def test_receiver_outside_target_set_drops(bench4):
    # the targets are the members of V0 and of V0 + p5; p6 is neither
    bench4.add_node("p6").step(InvokeJoin())
    actions = bench4.deliver("p6", "p1", make_install(bench4))
    assert any("not in target set" in (n.detail or "")
               for n in notes_of(actions, "Drop"))
    assert not sends_of(actions, "INSTALL")


def test_state_update_relayed_and_recorded_once(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    upd = StateUpdate(v0, v1, StateRecord(), ())
    raw = bench4.raw("p3", upd)
    actions = bench4.nodes["p2"].step(Receive("p3", raw, message_meta(upd)))
    relays = sends_of(actions, "STATE-UPDATE")
    assert sorted(r.to for r in relays) == ["p1", "p3", "p4", "p5"]
    assert "p3" in bench4.nodes["p2"].state_updates[v0]
    # the same originator's update relayed through p4 must not relay again
    actions = bench4.nodes["p2"].step(Receive("p4", raw, message_meta(upd)))
    assert not sends_of(actions, "STATE-UPDATE")


def test_state_update_from_non_member_dropped(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    upd = StateUpdate(v0, v1, StateRecord(), ())
    actions = bench4.nodes["p2"].step(
        Receive("p5", bench4.raw("p5", upd), message_meta(upd)))
    assert any("sender not in replaced view" in (n.detail or "")
               for n in notes_of(actions, "Drop"))
    assert v0 not in bench4.nodes["p2"].state_updates
