"""Golden frames of wire version 5: the exact bytes of one frame of each kind.

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
    CodecError,
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
        "0501120270332d0d030270312b0270322b0270332b02703320ab8b289da5ba50ac883792"
        "90021875c7b2100aba981ee0bb665b5af511dbde3e"
    ),
    "REC-CONFIRM": "05020e0d030270312b0270322b0270332b",
    "PROPOSE": (
        "0503550111040270312b0270322b0270332b0270342b0d030270312b0270322b0270332b"
        "010270342b0d030270312b0270322b0270332b2003914e47ffbef46657148abe052ba4c0"
        "c93bda5acb057071347ad74ccef2319c"
    ),
    "CONVERGED": (
        "0504210111040270312b0270322b0270332b0270342b0d030270312b0270322b0270332b"
        "0270312099291ef8f49d3273add16313a5a9d4458584dda86e38d15a11c4e2b398cd5edc"
    ),
    "INSTALL": (
        "0505c2010111040270312b0270322b0270332b0270342b0d030270312b0270322b027033"
        "2b030270312099291ef8f49d3273add16313a5a9d4458584dda86e38d15a11c4e2b398cd"
        "5edc02703220a84ce21b6eb68f53fb2a22e5ed650393e4d84cec7ed6ad2cc5c82efa7b12"
        "516602703320aee6d41e7106d3555375b90699afbc520061bd61c4e5a676cff8f5ad6390"
        "2116010270342b0d030270312b0270322b0270332b2003914e47ffbef46657148abe052b"
        "a4c0c93bda5acb057071347ad74ccef2319c"
    ),
    "STATE-UPDATE": (
        "0506e0010d030270312b0270322b0270332b11040270312b0270322b0270332b0270342b"
        "04016d0d030270312b0270322b0270332b0302703120e8d6273af18f45aa65678ad95a7b"
        "5b14290ccda9d7f59579bcb547cb78b4665802703220a3eabca0028c9f1416ba31655e70"
        "09b935889b84f44c009469eeb9e4544bf1e00270332049b0caf741f46296e20ebf24fac7"
        "5e287cbc3ed0b31d124e8af707cebbe7134f0d030270312b0270322b0270332b01027034"
        "2b0d030270312b0270322b0270332b2003914e47ffbef46657148abe052ba4c0c93bda5a"
        "cb057071347ad74ccef2319c"
    ),
    "PREPARE": (
        "050710016d0d030270312b0270322b0270332b02703120acc57c44d04d2b81e081f349dd"
        "edc168585377cc7e552c5a2e1453c9b359c266"
    ),
    "ACK": (
        "050831016d20a3eabca0028c9f1416ba31655e7009b935889b84f44c009469eeb9e4544b"
        "f1e00d030270312b0270322b0270332b"
    ),
    "COMMIT": (
        "05098f01016d0d030270312b0270322b0270332b0302703120e8d6273af18f45aa65678a"
        "d95a7b5b14290ccda9d7f59579bcb547cb78b4665802703220a3eabca0028c9f1416ba31"
        "655e7009b935889b84f44c009469eeb9e4544bf1e00270332049b0caf741f46296e20ebf"
        "24fac75e287cbc3ed0b31d124e8af707cebbe7134f11040270312b0270322b0270332b02"
        "70342b"
    ),
    "DELIVER": "050a10016d0d030270312b0270322b0270332b",
    "HISTORY-REQUEST": "051000",
    "HISTORY": (
        "0511d3010d030270312b0270322b0270332b01c2010111040270312b0270322b0270332b"
        "0270342b0d030270312b0270322b0270332b030270312099291ef8f49d3273add16313a5"
        "a9d4458584dda86e38d15a11c4e2b398cd5edc02703220a84ce21b6eb68f53fb2a22e5ed"
        "650393e4d84cec7ed6ad2cc5c82efa7b12516602703320aee6d41e7106d3555375b90699"
        "afbc520061bd61c4e5a676cff8f5ad63902116010270342b0d030270312b0270322b0270"
        "332b2003914e47ffbef46657148abe052ba4c0c93bda5acb057071347ad74ccef2319c"
    ),
}


def test_every_kind_has_a_golden_frame():
    assert list(GOLDEN) == list(KIND_NAMES.values())
    assert WIRE_VERSION == 5


@pytest.mark.parametrize("kind", GOLDEN)
def test_frame_bytes_are_pinned(kind):
    msg, sender = frames()[kind]
    raw = encode(msg, KEYRING.signer_for(sender))
    assert raw.hex() == GOLDEN[kind]
    decoded = decode(raw, KEYRING.verifier())
    assert KIND_NAMES[decoded.msg.TAG] == kind and decoded.msg == msg


def test_version_4_frame_rejected():
    # the REC-CONFIRM of version 4, whose lengths and counts were 4-byte u32s
    raw = bytes.fromhex("04020000001400000010000000030270312b0270322b0270332b")
    with pytest.raises(CodecError, match="unsupported wire version 4"):
        decode(raw, KEYRING.verifier())
