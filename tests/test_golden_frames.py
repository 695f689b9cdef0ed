"""Golden frames of wire version 3: the exact bytes of one frame of each kind.

Each frame is built from fixed values under the deterministic HMAC scheme,
so the bytes are the same on every run and host.  Any change to the wire
must update these frames on purpose, and bump `WIRE_VERSION` with them.
"""

import hashlib

import pytest

from dbrb.crypto import ack_payload, build_certificate, make_keyring
from dbrb.messages import (
    KIND_NAMES,
    WIRE_VERSION,
    Ack,
    Commit,
    Converged,
    Deliver,
    HistoryGossip,
    HistoryRequest,
    Install,
    Prepare,
    Propose,
    RecConfirm,
    Reconfig,
    ReconfigProof,
    StateRecord,
    StateUpdate,
    StoredEvidence,
    ViewHistory,
    decode,
    encode,
    signed_content,
)
from dbrb.views import View, minus, plus

KEYRING = make_keyring("hmac")
V0 = View.initial(["p1", "p2", "p3"])
V1 = View(V0.changes | {plus("p4")})
SEQ = frozenset({V1})


def sign(pid, msg):
    return KEYRING.sign(pid, signed_content(msg, pid))


def frames():
    """kind -> (message, the process that sends it)"""
    proof = ReconfigProof(plus("p4"), V0, sign("p4", Reconfig(plus("p4"), V0)))
    install = Install(SEQ, V0, tuple((p, sign(p, Converged(SEQ, V0))) for p in ("p1", "p2", "p3")),
                      (proof,))
    digest = hashlib.sha256(b"m").digest()
    cert = build_certificate(V0, {p: KEYRING.sign(p, ack_payload(digest, V0))
                                  for p in ("p1", "p2", "p3")})
    record = StateRecord(stored=StoredEvidence(b"m", cert, V0))
    return {
        "RECONFIG": (Reconfig(minus("p3"), V0), "p3"),
        "REC-CONFIRM": (RecConfirm(V0), "p1"),
        "PROPOSE": (Propose(SEQ, V0, (proof,)), "p1"),
        "CONVERGED": (Converged(SEQ, V0), "p1"),
        "INSTALL": (install, "p1"),
        "STATE-UPDATE": (StateUpdate(V0, V1, record, (proof,)), "p2"),
        "PREPARE": (Prepare(b"m", V0), "p1"),
        "ACK": (Ack(b"m", KEYRING.sign("p2", ack_payload(digest, V0)), V0), "p2"),
        "COMMIT": (Commit(b"m", cert, V1), "p1"),
        "DELIVER": (Deliver(b"m", V0), "p3"),
        "HISTORY-REQUEST": (HistoryRequest(), "p4"),
        "HISTORY": (HistoryGossip(ViewHistory(V0, (install,))), "p1"),
    }


GOLDEN = {
    "RECONFIG": (
        "0301000000180270332d00000010000000030270312b0270322b0270332b027033000000"
        "2095b6a39d75cc9f40f6f664e844344318c32c153d5a1d720bfff41cc397b64713"
    ),
    "REC-CONFIRM": "03020000001400000010000000030270312b0270322b0270332b",
    "PROPOSE": (
        "0303000000700000000100000014000000040270312b0270322b0270332b0270342b0000"
        "0010000000030270312b0270322b0270332b000000010270342b00000010000000030270"
        "312b0270322b0270332b000000200969971a1fd8863db0665ca255740fdcc118ff920ea6"
        "16449ccdb9d87d7dda3b"
    ),
    "CONVERGED": (
        "0304000000300000000100000014000000040270312b0270322b0270332b0270342b0000"
        "0010000000030270312b0270322b0270332b027031000000205eb7236adcf20cc80753d1"
        "e5297a87c2d09928dd2a6fbdd6db3974822927fde0"
    ),
    "INSTALL": (
        "0305000000e90000000100000014000000040270312b0270322b0270332b0270342b0000"
        "0010000000030270312b0270322b0270332b00000003027031000000205eb7236adcf20c"
        "c80753d1e5297a87c2d09928dd2a6fbdd6db3974822927fde0027032000000206df2474d"
        "dd1f39e8fb368c972f74416074bf9acf86ce922097a1cfeda6d77ea60270330000002098"
        "9564c68515a8f95e53346c6453f219897c6b0678ddba56079c1ebe657aa3bf0000000102"
        "70342b00000010000000030270312b0270322b0270332b000000200969971a1fd8863db0"
        "665ca255740fdcc118ff920ea616449ccdb9d87d7dda3b"
    ),
    "STATE-UPDATE": (
        "03060000011300000010000000030270312b0270322b0270332b00000014000000040270"
        "312b0270322b0270332b0270342b04000000016d00000010000000030270312b0270322b"
        "0270332b0000000302703100000020c281dff9c49a3939aba130b096a5615fa8cc9b930f"
        "9340a8460545be1d0a84660270320000002097b9658606e39ebd63984453bd6c3961f10a"
        "a7a96bac545b966dee0f2546393402703300000020a6bb2149ade71ae502d91fbcefba85"
        "6f38e1de628b4fd0a4f4fc71bfe95057b800000010000000030270312b0270322b027033"
        "2b000000010270342b00000010000000030270312b0270322b0270332b00000020096997"
        "1a1fd8863db0665ca255740fdcc118ff920ea616449ccdb9d87d7dda3b02703200000020"
        "2f8c7b239c0f41f89b640fd213b36c49f5a605bb6f558deb807fd41c507fcd5f"
    ),
    "PREPARE": (
        "030700000019000000016d00000010000000030270312b0270322b0270332b0270310000"
        "00202463c5a872b2421b1ecdf4239644fe9c3a5b3a343549ed95aa4d9c1c29863434"
    ),
    "ACK": (
        "03080000003d000000016d0000002097b9658606e39ebd63984453bd6c3961f10aa7a96b"
        "ac545b966dee0f2546393400000010000000030270312b0270322b0270332b"
    ),
    "COMMIT": (
        "0309000000aa000000016d00000010000000030270312b0270322b0270332b0000000302"
        "703100000020c281dff9c49a3939aba130b096a5615fa8cc9b930f9340a8460545be1d0a"
        "84660270320000002097b9658606e39ebd63984453bd6c3961f10aa7a96bac545b966dee"
        "0f2546393402703300000020a6bb2149ade71ae502d91fbcefba856f38e1de628b4fd0a4"
        "f4fc71bfe95057b800000014000000040270312b0270322b0270332b0270342b"
    ),
    "DELIVER": "030a00000019000000016d00000010000000030270312b0270322b0270332b",
    "HISTORY-REQUEST": "031000000000",
    "HISTORY": (
        "03110000010500000010000000030270312b0270322b0270332b00000001000000e90000"
        "000100000014000000040270312b0270322b0270332b0270342b00000010000000030270"
        "312b0270322b0270332b00000003027031000000205eb7236adcf20cc80753d1e5297a87"
        "c2d09928dd2a6fbdd6db3974822927fde0027032000000206df2474ddd1f39e8fb368c97"
        "2f74416074bf9acf86ce922097a1cfeda6d77ea602703300000020989564c68515a8f95e"
        "53346c6453f219897c6b0678ddba56079c1ebe657aa3bf000000010270342b0000001000"
        "0000030270312b0270322b0270332b000000200969971a1fd8863db0665ca255740fdcc1"
        "18ff920ea616449ccdb9d87d7dda3b"
    ),
}


def test_every_kind_has_a_golden_frame():
    assert list(GOLDEN) == list(KIND_NAMES.values())
    assert WIRE_VERSION == 3


@pytest.mark.parametrize("kind", GOLDEN)
def test_frame_bytes_are_pinned(kind):
    msg, sender = frames()[kind]
    raw = encode(msg, KEYRING.signer_for(sender))
    assert raw.hex() == GOLDEN[kind]
    decoded = decode(raw, KEYRING.verifier())
    assert decoded.kind == kind and decoded.msg == msg
