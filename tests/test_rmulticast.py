"""Reliable multicast: target-set checks, relay-before-deliver, dedup."""

from conftest import notes_of, sends_of
from dbrb.engine import Receive, Send
from dbrb.messages import (
    Install,
    StateRecord,
    StateUpdate,
    converged_signed_bytes,
    message_meta,
)
from dbrb.views import View, plus


def make_install(bench, omega=None, seq=None, view=None, signers=("p1", "p2", "p3")):
    view = view or bench.initial_view
    if seq is None:
        omega = omega or View(view.changes | {plus("p5")})
        seq = frozenset({omega})
    elif omega is None:
        from dbrb.views import least_recent

        omega = least_recent(seq)
    sigs = tuple((pid, bench.keyring.sign(pid, converged_signed_bytes(seq, view, pid)))
                 for pid in signers)
    psi = tuple(sorted(view.member_set | omega.member_set))
    return Install(psi, omega, seq, view, sigs, ())


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
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    v2 = View(v1.changes | {plus("p6")})
    bad = make_install(bench4, omega=v2, seq=frozenset({v1, v2}))
    actions = bench4.deliver("p2", "p1", bad)
    assert any("invalid install proof" in (n.detail or "")
               for n in notes_of(actions, "Drop"))


def test_install_with_subquorum_proof_dropped(bench4):
    bad = make_install(bench4, signers=("p1", "p2"))
    actions = bench4.deliver("p2", "p1", bad)
    assert any("invalid install proof" in (n.detail or "")
               for n in notes_of(actions, "Drop"))


def test_install_with_wrong_target_set_dropped(bench4):
    good = make_install(bench4)
    bad = Install(("p1", "p2"), good.omega, good.seq, good.view,
                  good.converged_sigs, ())
    actions = bench4.deliver("p2", "p1", bad)
    drops = notes_of(actions, "Drop")
    assert drops  # either not-in-psi or psi mismatch, both rejected


def test_receiver_outside_target_set_drops(bench4):
    good = make_install(bench4)
    bad = Install(("p1", "p3", "p4", "p5"), good.omega, good.seq, good.view,
                  good.converged_sigs, ())
    actions = bench4.deliver("p2", "p1", bad)
    assert any("not in target set" in (n.detail or "")
               for n in notes_of(actions, "Drop"))


def test_state_update_relayed_and_recorded_once(bench4):
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    psi = tuple(sorted(v0.member_set | v1.member_set))
    upd = StateUpdate(psi, v0, v1, StateRecord(), ())
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
    psi = tuple(sorted(v0.member_set | v1.member_set))
    upd = StateUpdate(psi, v0, v1, StateRecord(), ())
    actions = bench4.nodes["p2"].step(
        Receive("p5", bench4.raw("p5", upd), message_meta(upd)))
    assert any("sender not in replaced view" in (n.detail or "")
               for n in notes_of(actions, "Drop"))
    assert v0 not in bench4.nodes["p2"].state_updates
