"""Prepare/ack/commit/deliver handlers and the ack fence."""


import pytest

from conftest import callbacks_of, notes_of, reconfig_proofs, sends_of
from dbrb.crypto import ack_payload, build_certificate
from dbrb.engine import InvokeBroadcast
from dbrb.membership import ContractError
from dbrb.messages import (
    Ack,
    Commit,
    Converged,
    Deliver,
    Install,
    Prepare,
    Signed,
    StateRecord,
    StateUpdate,
    decode,
    signed_content,
)
from dbrb.views import View, plus


def make_cert(bench, payload, view, signers):
    sigs = {p: bench.keyring.sign(p, ack_payload(payload, view)) for p in signers}
    return build_certificate(view, sigs)


def prime_acks(bench, payload, view, ackers):
    """Feed the sender valid acks from the given members."""
    actions = []
    for pid in ackers:
        sig = bench.keyring.sign(pid, ack_payload(payload, view))
        actions = bench.deliver("p1", pid, Ack(payload, sig, view))
    return actions


def test_broadcast_disseminates_prepare(bench4):
    actions = bench4.nodes["p1"].step(InvokeBroadcast(b"m"))
    prepares = sends_of(actions, "PREPARE")
    assert sorted(p.to for p in prepares) == ["p1", "p2", "p3", "p4"]


def test_broadcast_deferred_when_view_not_installed(bench4):
    sender = bench4.nodes["p1"]
    sender.installed = None
    actions = sender.step(InvokeBroadcast(b"m"))
    assert not sends_of(actions)
    assert sender.bpayload == b"m"


def test_non_sender_broadcast_rejected(bench4):
    with pytest.raises(ContractError):
        bench4.nodes["p2"].step(InvokeBroadcast(b"m"))


def test_prepare_acked_in_current_view(bench4):
    actions = bench4.deliver("p2", "p1", Prepare(b"m", bench4.initial_view))
    acks = sends_of(actions, "ACK")
    assert [a.to for a in acks] == ["p1"]
    assert bench4.nodes["p2"].state_record.ack.msg.payload == b"m"


def test_prepare_fenced_when_no_message_allowed(bench4):
    node = bench4.nodes["p2"]
    node.state_record = StateRecord(conflicting=(
        prep_evidence(bench4, b"m1", bench4.initial_view),
        prep_evidence(bench4, b"m2", bench4.initial_view)))
    actions = bench4.deliver("p2", "p1", Prepare(b"m", bench4.initial_view))
    assert not sends_of(actions, "ACK")


def test_prepare_wrong_view_ignored(bench4):
    stale = View([plus("p1"), plus("p2")])
    actions = bench4.deliver("p2", "p1", Prepare(b"m", stale))
    assert not sends_of(actions, "ACK")


def test_prepare_from_non_sender_ignored(bench4):
    actions = bench4.deliver("p2", "p3", Prepare(b"m", bench4.initial_view))
    assert not sends_of(actions, "ACK")


def test_never_acks_two_payloads(bench4):
    bench4.deliver("p2", "p1", Prepare(b"m1", bench4.initial_view))
    actions = bench4.deliver("p2", "p1", Prepare(b"m2", bench4.initial_view))
    assert not sends_of(actions, "ACK")
    assert bench4.nodes["p2"].state_record.ack.msg.payload == b"m1"


def test_ack_quorum_builds_certificate_and_commits(bench4):
    sender = bench4.nodes["p1"]
    sender.step(InvokeBroadcast(b"m"))
    actions = prime_acks(bench4, b"m", bench4.initial_view, ["p1", "p2", "p3"])
    commits = sends_of(actions, "COMMIT")
    assert sorted(c.to for c in commits) == ["p1", "p2", "p3", "p4"]
    stored = sender.state_record.stored
    assert stored == Commit(b"m", stored.cert, bench4.initial_view)
    assert stored.cert.view == bench4.initial_view
    assert len(stored.cert.signatures) == 3


def test_duplicate_acks_do_not_count(bench4):
    sender = bench4.nodes["p1"]
    sender.step(InvokeBroadcast(b"m"))
    prime_acks(bench4, b"m", bench4.initial_view, ["p2", "p2", "p2"])
    assert sender.state_record.stored is None


def test_bad_ack_signature_ignored(bench4):
    sender = bench4.nodes["p1"]
    sender.step(InvokeBroadcast(b"m"))
    actions = bench4.deliver("p1", "p2", Ack(b"m", b"garbage", bench4.initial_view))
    assert notes_of(actions, "Flag")
    assert not sender.acks.votes


def test_commit_stores_relays_and_delivers(bench4):
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2", "p3"])
    actions = bench4.deliver("p2", "p1", Commit(b"m", cert, v0))
    node = bench4.nodes["p2"]
    assert node.state_record.stored is not None
    relays = sends_of(actions, "COMMIT")
    assert sorted(r.to for r in relays) == ["p1", "p2", "p3", "p4"]
    delivers = sends_of(actions, "DELIVER")
    assert [d.to for d in delivers] == ["p1"]


def test_second_commit_only_replies_deliver(bench4):
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2", "p3"])
    bench4.deliver("p2", "p1", Commit(b"m", cert, v0))
    actions = bench4.deliver("p2", "p3", Commit(b"m", cert, v0))
    assert not sends_of(actions, "COMMIT")
    assert [d.to for d in sends_of(actions, "DELIVER")] == ["p3"]


def test_commit_wrong_view_ignored(bench4):
    v0 = bench4.initial_view
    stale = View([plus("p1"), plus("p2"), plus("p3")])
    cert = make_cert(bench4, b"m", stale, ["p1", "p2"])
    actions = bench4.deliver("p2", "p1", Commit(b"m", cert, stale))
    assert not sends_of(actions)
    assert bench4.nodes["p2"].state_record.stored is None


def test_commit_invalid_certificate_dropped(bench4):
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2"])  # below quorum
    actions = bench4.deliver("p2", "p1", Commit(b"m", cert, v0))
    drops = notes_of(actions, "Drop")
    assert any("invalid certificate" in (d.detail or "") for d in drops)
    assert bench4.nodes["p2"].state_record.stored is None


def test_deliver_quorum_fires_once_per_payload_and_view(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    actions = []
    for pid in ["p1", "p3", "p4"]:
        actions = bench4.deliver("p2", pid, Deliver(b"m", v0))
    cbs = callbacks_of(actions)
    assert [c.kind for c in cbs] == ["Delivered"]
    assert node.delivered
    # a second quorum in a later view must not deliver again
    v1 = View(v0 | {plus("p5")})
    node.trusted_aux.add(v1)
    actions = []
    for pid in ["p1", "p3", "p4"]:
        actions = bench4.deliver("p2", pid, Deliver(b"m", v1))
    assert not callbacks_of(actions)


def test_deliver_split_across_views_never_fires(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0 | {plus("p5")})
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
    assert node.delivers.votes == {(v0, b"m1"): {"p1": None}}
    # ACK too: p2 acks m1, then m2, in V0 at the sender.  The second ACK is
    # not even verified, so its garbage signature raises no Flag.
    sender = bench4.nodes["p1"]
    verified = []
    real_verify = sender.verifier.verify
    sender.verifier.verify = lambda *args: verified.append(args) or real_verify(*args)
    sig = bench4.keyring.sign("p2", ack_payload(b"m1", v0))
    bench4.deliver("p1", "p2", Ack(b"m1", sig, v0))
    assert len(verified) == 1
    actions = bench4.deliver("p1", "p2", Ack(b"m2", b"garbage", v0))
    assert len(verified) == 1 and not notes_of(actions)
    assert sender.acks.votes == {(v0, b"m1"): {"p2": sig}}


def prep_evidence(bench, payload, view):
    sig = bench.keyring.sign("p1", signed_content(Prepare(payload, view), "p1"))
    return Signed(Prepare(payload, view), sig)


def test_state_transfer_adopts_unique_acked_message(bench4):
    node = bench4.nodes["p2"]
    records = [StateRecord(ack=prep_evidence(bench4, b"m", bench4.initial_view)),
               StateRecord(), StateRecord()]
    node._state_transfer(records)
    assert node.state_record.ack.msg.payload == b"m"


def test_state_transfer_closes_fence_on_two_acked(bench4):
    node = bench4.nodes["p2"]
    records = [StateRecord(ack=prep_evidence(bench4, b"m1", bench4.initial_view)),
               StateRecord(ack=prep_evidence(bench4, b"m2", bench4.initial_view))]
    node._state_transfer(records)
    assert not node._may_ack(b"m1") and not node._may_ack(b"m2")
    assert node.state_record.conflicting is not None
    assert node.state_record.ack is None


def test_state_transfer_closes_fence_on_conflicting_record(bench4):
    node = bench4.nodes["p2"]
    pair = (prep_evidence(bench4, b"m1", bench4.initial_view),
            prep_evidence(bench4, b"m2", bench4.initial_view))
    node._state_transfer([StateRecord(conflicting=pair)])
    assert node.state_record.conflicting == pair
    assert not node._may_ack(b"m1") and not node._may_ack(b"m2")


def test_state_transfer_adopts_stored_message(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2", "p3"])
    stored = Commit(b"m", cert, v0)
    node._state_transfer([StateRecord(stored=stored)])
    assert node.state_record.stored is not None
    assert node.state_record.stored.payload == b"m"


def test_state_transfer_unique_ack_does_not_widen(bench4):
    node = bench4.nodes["p2"]
    node.state_record = StateRecord(ack=prep_evidence(bench4, b"other", bench4.initial_view))
    node._state_transfer([StateRecord(ack=prep_evidence(bench4, b"m", bench4.initial_view))])
    assert node.state_record.ack.msg.payload == b"other"


# -- the fence through real installs: it never reopens or switches payloads --

V0 = View.initial(["p1", "p2", "p3", "p4"])
V1 = View(V0 | {plus("p5")})
V2 = View(V1 | {plus("p6")})


def transfer(bench, view, omega, records):
    """Install omega over view at p2, with one state update per record from
    the other members of view, in member order; p2 takes on their state."""
    seq = frozenset({omega})
    others = [q for q in view.members if q != "p2"]
    sigs = tuple((q, bench.keyring.sign(q, signed_content(Converged(seq, view), q)))
                 for q in others[:view.quorum_size])
    bench.deliver("p2", others[0], Install(seq, view, sigs,
                                           reconfig_proofs(bench.keyring, seq, view)))
    for q, record in zip(others, records):
        bench.deliver("p2", q, StateUpdate(view, omega, record, ()))
    assert bench.nodes["p2"].cv == omega and bench.nodes["p2"].installed == omega


def close_fence(bench):
    """Transfer acks of m1 and m2 into V1; return the conflicting pair."""
    pair = (prep_evidence(bench, b"m1", V0), prep_evidence(bench, b"m2", V0))
    transfer(bench, V0, V1, [StateRecord(ack=pair[0]), StateRecord(ack=pair[1]),
                             StateRecord()])
    return pair


def test_conflicting_transfer_fences_both_payloads(bench4):
    node = bench4.nodes["p2"]
    pair = close_fence(bench4)
    assert node.state_record.conflicting == pair and node.state_record.ack is None
    for payload in (b"m1", b"m2"):
        actions = bench4.deliver("p2", "p1", Prepare(payload, V1))
        assert not sends_of(actions, "ACK")
        assert [n.detail for n in notes_of(actions, "Drop")] == ["ack fence closed"]


def test_single_ack_transfer_does_not_reopen_a_closed_fence(bench4):
    node = bench4.nodes["p2"]
    pair = close_fence(bench4)
    transfer(bench4, V1, V2, [StateRecord(ack=pair[0])] + [StateRecord()] * 3)
    assert node.state_record.ack is None
    assert node.state_record.conflicting == pair


def test_transfer_of_another_payload_keeps_the_acked_one(bench4):
    node = bench4.nodes["p2"]
    assert sends_of(bench4.deliver("p2", "p1", Prepare(b"m1", V0)), "ACK")
    transfer(bench4, V0, V1, [StateRecord(ack=prep_evidence(bench4, b"m2", V0)),
                              StateRecord(), StateRecord()])
    assert node.state_record.ack.msg.payload == b"m1"
    assert node.state_record.conflicting is None


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
    v1 = View(bench4.initial_view | {plus("p5")})
    sender.cv = v1
    sender.installed = v1
    sender._outputs = []
    sender._new_view()
    actions, sender._outputs = sender._outputs, []
    commits = sends_of(actions, "COMMIT")
    assert sorted(c.to for c in commits) == ["p1", "p2", "p3", "p4", "p5"]
    msg = decode(commits[0].raw, bench4.verifier).msg
    assert msg.cert.view == bench4.initial_view  # certificate carried across views
    assert msg.view == v1


def test_new_view_relayer_recommits_until_can_leave(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    cert = make_cert(bench4, b"m", v0, ["p1", "p2", "p3"])
    bench4.deliver("p2", "p1", Commit(b"m", cert, v0))
    node._outputs = []
    node._new_view()
    actions, node._outputs = node._outputs, []
    assert sends_of(actions, "COMMIT")
    node.delivered = True
    node._outputs = []
    node._new_view()
    actions, node._outputs = node._outputs, []
    assert not sends_of(actions, "COMMIT")


def test_an_author_at_the_cap_has_even_a_ready_commit_refused(bench4):
    # every COMMIT that may wait is parked before it is checked, so one for
    # cv counts against its author's cap too: p4's is refused quietly, and
    # p1's that follows is checked, stored, relayed and answered
    node = bench4.nodes["p2"]
    cert = make_cert(bench4, b"m", V0, ["p1", "p2", "p3"])
    for i in range(16):
        bench4.deliver("p2", "p4", Commit(b"m", cert, View(V0 | {plus(f"x{i}")})))
    assert [author for author, _ in node.pending_commits] == ["p4"] * 16
    assert bench4.deliver("p2", "p4", Commit(b"m", cert, V0)) == []
    assert node.state_record.stored is None
    actions = bench4.deliver("p2", "p1", Commit(b"m", cert, V0))
    assert node.state_record.stored == Commit(b"m", cert, V0)
    assert [n.detail for n in notes_of(actions)] == ["commit-accepted"]
    assert [s.to for s in sends_of(actions, "COMMIT")] == list(V0.members)
    assert [s.to for s in sends_of(actions, "DELIVER")] == ["p1"]
    assert len(node.pending_commits) == 16


def test_one_author_cannot_crowd_out_parked_commits(bench4):
    # p4 parks COMMITs for made-up newer views; p1's COMMIT for cv, sent
    # while p2 is suspended, must still be parked
    node = bench4.nodes["p2"]
    cert = make_cert(bench4, b"m", V0, ["p1", "p2", "p3"])
    for i in range(300):
        bench4.deliver("p2", "p4", Commit(b"m", cert, View(V0 | {plus(f"x{i}")})))
    seq = frozenset({V1})
    sigs = tuple((q, bench4.keyring.sign(q, signed_content(Converged(seq, V0), q)))
                 for q in ("p1", "p3", "p4"))
    bench4.deliver("p2", "p1", Install(seq, V0, sigs, reconfig_proofs(bench4.keyring, seq, V0)))
    assert node.suspended and node.cv == V0
    bench4.deliver("p2", "p1", Commit(b"m", cert, V0))
    authors = [author for author, _ in node.pending_commits]
    assert authors.count("p1") == 1
    assert authors.count("p4") <= 16
