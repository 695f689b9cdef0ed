"""Byzantine input never raises out of `Node.step`.

A Byzantine member, p4, sends each message kind over every pair of views
from a small pool, with each of three signer sets (none, a quorum, all
members of the first view) wherever the kind carries signatures of a
view's members.  Every signature is valid for what it signs, so each
message gets past the signature checks to the handler's own rules.  Each
goes to a member (p2), a joiner (p5) and the sender (p1).
"""

import itertools

import pytest

from conftest import Bench, reconfig_proofs
from dbrb.crypto import ack_payload, build_certificate
from dbrb.engine import InvokeBroadcast, InvokeJoin, Receive
from dbrb.membership import Phase
from dbrb.messages import (
    KIND_NAMES,
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
    signed_content,
)
from dbrb.views import View, minus, plus

V0 = View.initial(["p1", "p2", "p3", "p4"])
VIEWS = (
    View(frozenset()),                                # no members
    View([minus("p4")]),                           # leaves only
    View([plus("x9")]),                            # a process outside the universe
    V0,
    View(V0 | {plus("p5")}),
    View(V0 | {minus("p3")}),
    View(V0 | {plus("p5"), plus("p6")}),
)


def signer_sets(view):
    """No signer, a quorum of view's members, and all of them."""
    members = view.members
    quorum = members[:view.quorum_size] if members else ()
    return ((), quorum, members)


def messages(bench, kind, v, w, signers):
    """The messages of one kind that p4 sends for the views v and w."""
    keyring = bench.keyring
    seq = frozenset({w})
    proofs = reconfig_proofs(keyring, seq, v)
    cert = build_certificate(v, {p: keyring.sign(p, ack_payload(b"m", v)) for p in signers})
    converged = tuple((p, keyring.sign(p, signed_content(Converged(seq, v), p)))
                      for p in signers)
    install = Install(seq, v, converged, proofs)

    def prepared(payload, view):
        sig = keyring.sign("p1", signed_content(Prepare(payload, view), "p1"))
        return Signed(Prepare(payload, view), sig)

    return {
        "RECONFIG": [Reconfig(plus("p4"), v), Reconfig(minus("p4"), v), Reconfig(plus("p5"), v)],
        "REC-CONFIRM": [RecConfirm(v)],
        "PROPOSE": [Propose(seq, v, proofs), Propose(frozenset({v, w}), v, proofs)],
        "CONVERGED": [Converged(seq, v)],
        "INSTALL": [install],
        "STATE-UPDATE": [
            StateUpdate(v, w, StateRecord(), proofs),
            StateUpdate(v, w, StateRecord(ack=prepared(b"m", v),
                                          stored=Commit(b"m", cert, w)), proofs),
            StateUpdate(v, w, StateRecord(conflicting=(prepared(b"a", v), prepared(b"b", w))),
                        ()),
        ],
        "PREPARE": [Prepare(b"m", v)],
        "ACK": [Ack(b"m", keyring.sign("p4", ack_payload(b"m", v)), v)],
        "COMMIT": [Commit(b"m", cert, v), Commit(b"m", cert, w)],
        "DELIVER": [Deliver(b"m", v)],
        "HISTORY-REQUEST": [HistoryRequest()],
        "HISTORY": [ViewHistory(v, (install,)),
                    ViewHistory(V0, (install,))],
    }[kind]


@pytest.mark.parametrize("kind", list(KIND_NAMES.values()))
def test_no_byzantine_message_raises(kind):
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5", "p6"])
    bench.nodes["p1"].step(InvokeBroadcast(b"m"))
    bench.nodes["p5"].step(InvokeJoin())
    raws = {}  # each distinct frame once, in the order first built
    for v, w in itertools.product(VIEWS, repeat=2):
        for signers in dict.fromkeys(signer_sets(v)):
            for msg in messages(bench, kind, v, w, signers):
                raws.setdefault(bench.raw("p4", msg), msg)
    for raw, msg in raws.items():
        for to in ("p2", "p5", "p1"):
            node = bench.nodes[to]
            if node.phase is not Phase.HALTED:
                try:
                    node.step(Receive("p4", raw))
                except Exception as exc:  # report which message raised
                    pytest.fail(f"{to} raised {exc!r} on {msg!r}")
