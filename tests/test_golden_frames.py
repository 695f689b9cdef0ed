"""Golden frames of wire version 4: the exact bytes of one frame of each kind.

Each frame is built from fixed values under the deterministic HMAC scheme,
so the bytes are the same on every run and host.  Any change to the wire
must update these frames on purpose, and bump `WIRE_VERSION` with them.
"""


import pytest

from dbrb.crypto import ack_payload, build_certificate, make_keyring
from dbrb.messages import (
    KIND_NAMES,
    WIRE_VERSION,
    Ack,
    Commit,
    Converged,
    Deliver,
    HistoryRequest,
    Install,
    Prepare,
    Propose,
    RecConfirm,
    Reconfig,
    Signed,
    StateRecord,
    StateUpdate,
    ViewHistory,
    decode,
    encode,
    signed_content,
)
from dbrb.views import View, minus, plus

KEYRING = make_keyring("hmac")
V0 = View.initial(["p1", "p2", "p3"])
V1 = View(V0 | {plus("p4")})
SEQ = frozenset({V1})


def sign(pid, msg):
    return KEYRING.sign(pid, signed_content(msg, pid))


def frames():
    """kind -> (message, the process that sends it)"""
    reconfig = Reconfig(plus("p4"), V0)
    proof = Signed(reconfig, sign("p4", reconfig))
    install = Install(SEQ, V0, tuple((p, sign(p, Converged(SEQ, V0))) for p in ("p1", "p2", "p3")),
                      (proof,))
    cert = build_certificate(V0, {p: KEYRING.sign(p, ack_payload(b"m", V0))
                                  for p in ("p1", "p2", "p3")})
    record = StateRecord(stored=Commit(b"m", cert, V0))
    return {
        "RECONFIG": (Reconfig(minus("p3"), V0), "p3"),
        "REC-CONFIRM": (RecConfirm(V0), "p1"),
        "PROPOSE": (Propose(SEQ, V0, (proof,)), "p1"),
        "CONVERGED": (Converged(SEQ, V0), "p1"),
        "INSTALL": (install, "p1"),
        "STATE-UPDATE": (StateUpdate(V0, V1, record, (proof,)), "p2"),
        "PREPARE": (Prepare(b"m", V0), "p1"),
        "ACK": (Ack(b"m", KEYRING.sign("p2", ack_payload(b"m", V0)), V0), "p2"),
        "COMMIT": (Commit(b"m", cert, V1), "p1"),
        "DELIVER": (Deliver(b"m", V0), "p3"),
        "HISTORY-REQUEST": (HistoryRequest(), "p4"),
        "HISTORY": (ViewHistory(V0, (install,)), "p1"),
    }


GOLDEN = {
    "RECONFIG": (
        "0401000000180270332d00000010000000030270312b0270322b0270332b027033000000"
        "202d9ec6d9569c90ce325c53d14336139cd6bd9a19e52666f77951300c69cf2c5a"
    ),
    "REC-CONFIRM": "04020000001400000010000000030270312b0270322b0270332b",
    "PROPOSE": (
        "0403000000700000000100000014000000040270312b0270322b0270332b0270342b0000"
        "0010000000030270312b0270322b0270332b000000010270342b00000010000000030270"
        "312b0270322b0270332b0000002035a5f89b817a52cd3007cfd8e9f67419c1863813ec77"
        "5966dbf6397bc4f269f4"
    ),
    "CONVERGED": (
        "0404000000300000000100000014000000040270312b0270322b0270332b0270342b0000"
        "0010000000030270312b0270322b0270332b0270310000002096475c22c1121df01bf125"
        "e7d3adb6628c0abc50f11af225218dfdc30be37b0e"
    ),
    "INSTALL": (
        "0405000000e90000000100000014000000040270312b0270322b0270332b0270342b0000"
        "0010000000030270312b0270322b0270332b000000030270310000002096475c22c1121d"
        "f01bf125e7d3adb6628c0abc50f11af225218dfdc30be37b0e027032000000201900abbd"
        "c3739e60407a1619478a16aa3d6c6e71a04272f32b9398cc0bb6db8602703300000020cb"
        "6acaf11196d60a07dbe54f8472500f63fd0c22353057a3de9635bf159f23f20000000102"
        "70342b00000010000000030270312b0270322b0270332b0000002035a5f89b817a52cd30"
        "07cfd8e9f67419c1863813ec775966dbf6397bc4f269f4"
    ),
    "STATE-UPDATE": (
        "04060000011300000010000000030270312b0270322b0270332b00000014000000040270"
        "312b0270322b0270332b0270342b04000000016d00000010000000030270312b0270322b"
        "0270332b0000000302703100000020c281dff9c49a3939aba130b096a5615fa8cc9b930f"
        "9340a8460545be1d0a84660270320000002097b9658606e39ebd63984453bd6c3961f10a"
        "a7a96bac545b966dee0f2546393402703300000020a6bb2149ade71ae502d91fbcefba85"
        "6f38e1de628b4fd0a4f4fc71bfe95057b800000010000000030270312b0270322b027033"
        "2b000000010270342b00000010000000030270312b0270322b0270332b0000002035a5f8"
        "9b817a52cd3007cfd8e9f67419c1863813ec775966dbf6397bc4f269f4"
    ),
    "PREPARE": (
        "040700000019000000016d00000010000000030270312b0270322b0270332b0270310000"
        "002070fccf6bbe613a89d0b71d6c90f5d0b8271729e6b8c41ceed8be9678c715f261"
    ),
    "ACK": (
        "04080000003d000000016d0000002097b9658606e39ebd63984453bd6c3961f10aa7a96b"
        "ac545b966dee0f2546393400000010000000030270312b0270322b0270332b"
    ),
    "COMMIT": (
        "0409000000aa000000016d00000010000000030270312b0270322b0270332b0000000302"
        "703100000020c281dff9c49a3939aba130b096a5615fa8cc9b930f9340a8460545be1d0a"
        "84660270320000002097b9658606e39ebd63984453bd6c3961f10aa7a96bac545b966dee"
        "0f2546393402703300000020a6bb2149ade71ae502d91fbcefba856f38e1de628b4fd0a4"
        "f4fc71bfe95057b800000014000000040270312b0270322b0270332b0270342b"
    ),
    "DELIVER": (
        "040a00000019000000016d00000010000000030270312b0270322b0270332b"
    ),
    "HISTORY-REQUEST": "041000000000",
    "HISTORY": (
        "04110000010500000010000000030270312b0270322b0270332b00000001000000e90000"
        "000100000014000000040270312b0270322b0270332b0270342b00000010000000030270"
        "312b0270322b0270332b000000030270310000002096475c22c1121df01bf125e7d3adb6"
        "628c0abc50f11af225218dfdc30be37b0e027032000000201900abbdc3739e60407a1619"
        "478a16aa3d6c6e71a04272f32b9398cc0bb6db8602703300000020cb6acaf11196d60a07"
        "dbe54f8472500f63fd0c22353057a3de9635bf159f23f2000000010270342b0000001000"
        "0000030270312b0270322b0270332b0000002035a5f89b817a52cd3007cfd8e9f67419c1"
        "863813ec775966dbf6397bc4f269f4"
    ),
}


def test_every_kind_has_a_golden_frame():
    assert list(GOLDEN) == list(KIND_NAMES.values())
    assert WIRE_VERSION == 4


@pytest.mark.parametrize("kind", GOLDEN)
def test_frame_bytes_are_pinned(kind):
    msg, sender = frames()[kind]
    raw = encode(msg, KEYRING.signer_for(sender))
    assert raw.hex() == GOLDEN[kind]
    decoded = decode(raw, KEYRING.verifier())
    assert KIND_NAMES[decoded.msg.TAG] == kind and decoded.msg == msg
