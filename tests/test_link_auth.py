"""Which process a received message counts for.

Links are authenticated, so a link-only kind counts for the process that
sent it over the link, whatever process built it.  The three signed kinds
are evidence a third party checks: each counts for its signer however it
arrives, and a frame whose signature does not hold is dropped.
"""

import random

import pytest

from conftest import Bench, notes_of, reconfig_proofs, sends_of, state_digest
from dbrb.adversary import make_adversary
from dbrb.crypto import ack_payload
from dbrb.engine import InvokeBroadcast, Receive
from dbrb.messages import (
    SIGNED_TAGS,
    Ack,
    Converged,
    Deliver,
    Prepare,
    Propose,
    Reconfig,
    StateRecord,
    StateUpdate,
    signed_content,
)
from dbrb.views import View, plus

V0 = View.initial(["p1", "p2", "p3", "p4"])
V1 = View(V0 | {plus("p5")})


def test_propose_counts_for_its_link_sender(bench4):
    node = bench4.nodes["p1"]
    propose = Propose(frozenset({V1}), V0, reconfig_proofs(bench4.keyring, frozenset({V1}), V0))
    assert Propose.TAG not in SIGNED_TAGS
    bench4.deliver("p1", "p2", propose, via="p3")
    assert node.propose_votes.votes == {(V0, frozenset({V1})): {"p3": None}}


def test_deliver_counts_for_its_link_sender(bench4):
    node = bench4.nodes["p1"]
    assert Deliver.TAG not in SIGNED_TAGS
    bench4.deliver("p1", "p2", Deliver(b"m", V0), via="p3")
    assert node.delivers.votes == {(V0, b"m"): {"p3": None}}


def test_state_update_counts_for_its_link_sender(bench4):
    node = bench4.nodes["p2"]
    assert StateUpdate.TAG not in SIGNED_TAGS
    bench4.deliver("p2", "p1", StateUpdate(V0, V1, StateRecord(), ()), via="p3")
    assert list(node.state_updates.votes[(V0, None)]) == ["p3"]


# Each signed kind, built by its author and relayed by p3 to p2, and what
# p2 holds afterwards for the process it counted the message for.
SIGNED = {
    "RECONFIG": ("p5", Reconfig(plus("p5"), V0),
                 lambda node, actions: [s.to for s in sends_of(actions, "REC-CONFIRM")]),
    "CONVERGED": ("p1", Converged(frozenset({V1}), V0),
                  lambda node, actions: list(node.converged_votes.votes[(V0, frozenset({V1}))])),
    "PREPARE": ("p1", Prepare(b"m", V0),
                lambda node, actions: [s.to for s in sends_of(actions, "ACK")]),
}


def test_the_signed_kinds_are_the_three_evidence_kinds():
    assert {m.TAG for _, m, _ in SIGNED.values()} == SIGNED_TAGS


@pytest.mark.parametrize("kind", sorted(SIGNED))
def test_relayed_signed_kind_counts_for_its_signer(bench4, kind):
    author, msg, counted_for = SIGNED[kind]
    actions = bench4.deliver("p2", author, msg, via="p3")
    assert counted_for(bench4.nodes["p2"], actions) == [author]


def test_relayed_signature_is_kept_as_its_signers_evidence(bench4):
    node = bench4.nodes["p2"]
    bench4.deliver("p2", "p5", Reconfig(plus("p5"), V0), via="p3")
    bench4.deliver("p2", "p1", Converged(frozenset({V1}), V0), via="p3")
    assert node.pool[plus("p5")].verify(bench4.verifier, "p5")
    sig = node.converged_votes.votes[(V0, frozenset({V1}))]["p1"]
    assert bench4.verifier.verify(
        "p1", signed_content(Converged(frozenset({V1}), V0), "p1"), sig)


@pytest.mark.parametrize("kind", sorted(SIGNED))
def test_flipped_signature_byte_is_dropped(bench4, kind):
    author, msg, _ = SIGNED[kind]
    node = bench4.nodes["p2"]
    raw = bytearray(bench4.raw(author, msg))
    raw[-1] ^= 0x01
    before = state_digest(node)
    actions = node.step(Receive(author, bytes(raw)))
    assert [n.detail for n in notes_of(actions, "Drop")] == [
        "undecodable message: bad envelope signature"]
    assert not sends_of(actions)
    assert state_digest(node) == before


def test_adversary_counts_a_link_only_kind_for_its_link_sender():
    bench = Bench(["p1", "p2", "p3", "p4"])
    sender = make_adversary("equivocate_sender", "p1", V0, bench.keyring.signer_for("p1"),
                            bench.keyring.verifier(), random.Random(0))
    sender.step(InvokeBroadcast(b"m"))
    sig = bench.keyring.sign("p2", ack_payload(b"m", V0))
    assert Ack.TAG not in SIGNED_TAGS
    sender.step(Receive("p2", bench.raw("p3", Ack(b"m", sig, V0))))
    acks = sender.acks.votes[(V0, b"m")]
    assert set(acks) == {"p1", "p2"} and acks["p2"] == sig  # its own, then p2's
