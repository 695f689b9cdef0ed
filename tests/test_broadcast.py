"""Prepare/ack/commit/deliver handlers and the allowed_ack fence."""

import hashlib

import pytest

from conftest import callbacks_of, notes_of, sends_of
from dbrb.broadcast import ALLOW_ANY, ALLOW_NONE
from dbrb.crypto import ack_payload, build_certificate
from dbrb.engine import InvokeBroadcast
from dbrb.membership import ContractError
from dbrb.messages import (
    Ack,
    Commit,
    Deliver,
    Prepare,
    PrepareEvidence,
    StateRecord,
    StoredEvidence,
    decode,
    prepare_signed_bytes,
)
from dbrb.views import View, plus


def make_cert(bench, payload, view, signers):
    digest = hashlib.sha256(payload).digest()
    sigs = {p: bench.keyring.sign(p, ack_payload(digest, view)) for p in signers}
    return build_certificate(digest, view, sigs)


def prime_acks(bench, payload, view, ackers):
    """Feed the sender valid acks from the given members."""
    digest = hashlib.sha256(payload).digest()
    actions = []
    for pid in ackers:
        sig = bench.keyring.sign(pid, ack_payload(digest, view))
        actions = bench.deliver("p1", pid, Ack(payload, sig, view))
    return actions


def test_broadcast_disseminates_prepare(bench4):
    actions = bench4.nodes["p1"].step(InvokeBroadcast(b"m"))
    prepares = sends_of(actions, "PREPARE")
    assert sorted(p.to for p in prepares) == ["p1", "p2", "p3", "p4"]


def test_broadcast_deferred_when_view_not_installed(bench4):
    sender = bench4.nodes["p1"]
    sender.installed[sender.cv] = False
    actions = sender.step(InvokeBroadcast(b"m"))
    assert not sends_of(actions)
    assert sender.broadcast_invoked


def test_non_sender_broadcast_rejected(bench4):
    with pytest.raises(ContractError):
        bench4.nodes["p2"].step(InvokeBroadcast(b"m"))


def test_prepare_acked_in_current_view(bench4):
    actions = bench4.deliver("p2", "p1", Prepare(b"m", bench4.initial_view))
    acks = sends_of(actions, "ACK")
    assert [a.to for a in acks] == ["p1"]
    assert bench4.nodes["p2"].allowed_ack == b"m"


def test_prepare_fenced_when_no_message_allowed(bench4):
    node = bench4.nodes["p2"]
    node.allowed_ack = ALLOW_NONE
    actions = bench4.deliver("p2", "p1", Prepare(b"m", bench4.initial_view))
    assert not sends_of(actions, "ACK")


def test_prepare_wrong_view_ignored(bench4):
    stale = View.of([plus("p1"), plus("p2")])
    actions = bench4.deliver("p2", "p1", Prepare(b"m", stale))
    assert not sends_of(actions, "ACK")


def test_prepare_from_non_sender_ignored(bench4):
    actions = bench4.deliver("p2", "p3", Prepare(b"m", bench4.initial_view))
    assert not sends_of(actions, "ACK")


def test_never_acks_two_payloads(bench4):
    bench4.deliver("p2", "p1", Prepare(b"m1", bench4.initial_view))
    actions = bench4.deliver("p2", "p1", Prepare(b"m2", bench4.initial_view))
    assert not sends_of(actions, "ACK")
    assert bench4.nodes["p2"].allowed_ack == b"m1"


def test_ack_quorum_builds_certificate_and_commits(bench4):
    sender = bench4.nodes["p1"]
    sender.step(InvokeBroadcast(b"m"))
    actions = prime_acks(bench4, b"m", bench4.initial_view, ["p1", "p2", "p3"])
    commits = sends_of(actions, "COMMIT")
    assert sorted(c.to for c in commits) == ["p1", "p2", "p3", "p4"]
    assert sender.v_cer == bench4.initial_view
    assert len(sender.cer.signatures) == 3


def test_duplicate_acks_do_not_count(bench4):
    sender = bench4.nodes["p1"]
    sender.step(InvokeBroadcast(b"m"))
    prime_acks(bench4, b"m", bench4.initial_view, ["p2", "p2", "p2"])
    assert sender.cer is None


def test_bad_ack_signature_ignored(bench4):
    sender = bench4.nodes["p1"]
    sender.step(InvokeBroadcast(b"m"))
    actions = bench4.deliver("p1", "p2", Ack(b"m", b"garbage", bench4.initial_view))
    assert notes_of(actions, "Flag")
    assert not sender.acks


def test_commit_stores_relays_and_delivers(bench4):
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2", "p3"])
    actions = bench4.deliver("p2", "p1", Commit(b"m", cert, v0, v0))
    node = bench4.nodes["p2"]
    assert node.stored
    relays = sends_of(actions, "COMMIT")
    assert sorted(r.to for r in relays) == ["p1", "p2", "p3", "p4"]
    delivers = sends_of(actions, "DELIVER")
    assert [d.to for d in delivers] == ["p1"]


def test_second_commit_only_replies_deliver(bench4):
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2", "p3"])
    bench4.deliver("p2", "p1", Commit(b"m", cert, v0, v0))
    actions = bench4.deliver("p2", "p3", Commit(b"m", cert, v0, v0))
    assert not sends_of(actions, "COMMIT")
    assert [d.to for d in sends_of(actions, "DELIVER")] == ["p3"]


def test_commit_wrong_view_ignored(bench4):
    v0 = bench4.initial_view
    stale = View.of([plus("p1"), plus("p2"), plus("p3")])
    cert = make_cert(bench4, b"m", stale, ["p1", "p2"])
    actions = bench4.deliver("p2", "p1", Commit(b"m", cert, stale, stale))
    assert not sends_of(actions)
    assert not bench4.nodes["p2"].stored


def test_commit_invalid_certificate_dropped(bench4):
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2"])  # below quorum
    actions = bench4.deliver("p2", "p1", Commit(b"m", cert, v0, v0))
    drops = notes_of(actions, "Drop")
    assert any("invalid certificate" in (d.detail or "") for d in drops)
    assert not bench4.nodes["p2"].stored


def test_deliver_quorum_fires_once_per_payload_and_view(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    actions = []
    for pid in ["p1", "p3", "p4"]:
        actions = bench4.deliver("p2", pid, Deliver(b"m", v0))
    cbs = callbacks_of(actions)
    assert [c.kind for c in cbs] == ["Delivered"]
    assert node.delivered and node.can_leave
    # a second quorum in a later view must not deliver again
    v1 = View(v0.changes | {plus("p5")})
    node.trusted_aux.add(v1)
    actions = []
    for pid in ["p1", "p3", "p4"]:
        actions = bench4.deliver("p2", pid, Deliver(b"m", v1))
    assert not callbacks_of(actions)


def test_deliver_split_across_views_never_fires(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    node.trusted_aux.add(v1)
    bench4.deliver("p2", "p1", Deliver(b"m", v0))
    bench4.deliver("p2", "p3", Deliver(b"m", v0))
    bench4.deliver("p2", "p4", Deliver(b"m", v1))
    actions = bench4.deliver("p2", "p1", Deliver(b"m", v1))
    assert not callbacks_of(actions)
    assert not node.delivered


def test_deliver_write_once_per_sender_and_view(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    bench4.deliver("p2", "p1", Deliver(b"m1", v0))
    bench4.deliver("p2", "p1", Deliver(b"m2", v0))
    assert node.delivers[("p1", v0)] == b"m1"


def prep_evidence(bench, payload, view):
    sig = bench.keyring.sign("p1", prepare_signed_bytes(payload, view, "p1"))
    return PrepareEvidence(payload, view, sig)


def test_state_transfer_adopts_unique_acked_message(bench4):
    node = bench4.nodes["p2"]
    records = [StateRecord(ack=prep_evidence(bench4, b"m", bench4.initial_view)),
               StateRecord(), StateRecord()]
    node._state_transfer(records)
    assert node.allowed_ack == b"m"
    assert node.state_record.ack is not None


def test_state_transfer_closes_fence_on_two_acked(bench4):
    node = bench4.nodes["p2"]
    records = [StateRecord(ack=prep_evidence(bench4, b"m1", bench4.initial_view)),
               StateRecord(ack=prep_evidence(bench4, b"m2", bench4.initial_view))]
    node._state_transfer(records)
    assert node.allowed_ack == ALLOW_NONE
    assert node.state_record.conflicting is not None
    assert node.state_record.ack is None


def test_state_transfer_closes_fence_on_conflicting_record(bench4):
    node = bench4.nodes["p2"]
    pair = (prep_evidence(bench4, b"m1", bench4.initial_view),
            prep_evidence(bench4, b"m2", bench4.initial_view))
    node._state_transfer([StateRecord(conflicting=pair)])
    assert node.allowed_ack == ALLOW_NONE


def test_state_transfer_adopts_stored_message(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2", "p3"])
    stored = StoredEvidence(b"m", cert, v0, v0)
    node._state_transfer([StateRecord(stored=stored)])
    assert node.stored
    assert node.stored_value.payload == b"m"


def test_state_transfer_unique_ack_does_not_widen(bench4):
    node = bench4.nodes["p2"]
    node.allowed_ack = b"other"
    node._state_transfer([StateRecord(ack=prep_evidence(bench4, b"m", bench4.initial_view))])
    assert node.allowed_ack == b"other"


def test_allowed_ack_transitions_guarded(bench4):
    node = bench4.nodes["p2"]
    node._set_allowed(b"m")
    node._set_allowed(ALLOW_NONE)
    with pytest.raises(AssertionError):
        node._set_allowed(b"m")
    fresh = bench4.nodes["p3"]
    fresh._set_allowed(b"m")
    with pytest.raises(AssertionError):
        fresh._set_allowed(b"m2")
    with pytest.raises(AssertionError):
        fresh._set_allowed(ALLOW_ANY)


def test_new_view_sender_reprepares_without_certificate(bench4):
    sender = bench4.nodes["p1"]
    sender.step(InvokeBroadcast(b"m"))
    sender._outputs = []
    sender._new_view()
    actions, sender._outputs = sender._outputs, []
    assert sends_of(actions, "PREPARE")


def test_new_view_sender_reuses_certificate(bench4):
    sender = bench4.nodes["p1"]
    sender.step(InvokeBroadcast(b"m"))
    prime_acks(bench4, b"m", bench4.initial_view, ["p1", "p2", "p3"])
    v1 = View(bench4.initial_view.changes | {plus("p5")})
    sender.cv = v1
    sender.installed[v1] = True
    sender._outputs = []
    sender._new_view()
    actions, sender._outputs = sender._outputs, []
    commits = sends_of(actions, "COMMIT")
    assert sorted(c.to for c in commits) == ["p1", "p2", "p3", "p4", "p5"]
    msg = decode(commits[0].raw, bench4.verifier).msg
    assert msg.v_cer == bench4.initial_view  # certificate carried across views
    assert msg.view == v1


def test_new_view_relayer_recommits_until_can_leave(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2", "p3"])
    bench4.deliver("p2", "p1", Commit(b"m", cert, v0, v0))
    node._outputs = []
    node._new_view()
    actions, node._outputs = node._outputs, []
    assert sends_of(actions, "COMMIT")
    node.can_leave = True
    node._outputs = []
    node._new_view()
    actions, node._outputs = node._outputs, []
    assert not sends_of(actions, "COMMIT")
