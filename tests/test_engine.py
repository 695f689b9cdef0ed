"""Engine determinism, state digests, and lifecycle guards."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Bench, reconfig_proofs, sends_of, state_digest
from dbrb import simnet
from dbrb.adversary import make_adversary
from dbrb.engine import SCANS, HaltedError, InvokeBroadcast, InvokeJoin, Node, Receive
from dbrb.membership import Phase
from dbrb.messages import (
    KIND_CODECS,
    TAG_CONVERGED,
    Converged,
    Deliver,
    HistoryGossip,
    Install,
    Prepare,
    Reconfig,
    StateRecord,
    StateUpdate,
    ViewHistory,
    signed_content,
)
from dbrb.views import View, plus


def fresh_pair():
    a = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])
    b = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])
    return a, b


def test_identical_event_sequences_give_identical_state_and_outputs():
    a, b = fresh_pair()
    events = [
        InvokeBroadcast(b"m"),
        Receive("p5", a.raw("p5", Reconfig(plus("p5"), a.initial_view))),
    ]
    outs_a = [a.nodes["p1"].step(e) for e in events]
    outs_b = [b.nodes["p1"].step(e) for e in events]
    assert outs_a == outs_b
    assert state_digest(a.nodes["p1"]) == state_digest(b.nodes["p1"])


def test_mutating_events_change_the_digest():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    before = state_digest(node)
    node.step(Receive("p1", bench.raw("p1", Prepare(b"m", bench.initial_view))))
    assert state_digest(node) != before


def test_undecodable_input_changes_nothing():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    before = state_digest(node)
    actions = node.step(Receive("p1", b"not a message"))
    assert state_digest(node) == before
    assert not sends_of(actions)


def test_forged_signature_changes_nothing():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    raw = bytearray(bench.raw("p1", Prepare(b"m", bench.initial_view)))
    raw[-1] ^= 0x01
    before = state_digest(node)
    node.step(Receive("p1", bytes(raw)))
    assert state_digest(node) == before


def test_halted_node_rejects_events():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    node.phase = Phase.HALTED
    with pytest.raises(HaltedError):
        node.step(InvokeJoin())


def test_dormant_node_never_sends():
    bench, _ = fresh_pair()
    node = bench.nodes["p5"]
    actions = node.step(Receive("p1", bench.raw("p1", Prepare(b"m", bench.initial_view))))
    assert not actions


@given(st.lists(st.tuples(st.sampled_from(["p1", "p3", "p4"]),
                          st.sampled_from(["prepare", "deliver", "reconfig"]),
                          st.binary(min_size=1, max_size=4)),
                max_size=12))
@settings(max_examples=50, deadline=None)
def test_random_event_sequences_replay_identically(script):
    benches = [Bench(["p1", "p2", "p3", "p4"]) for _ in range(2)]
    digests = []
    for bench in benches:
        node = bench.nodes["p2"]
        for author, kind, payload in script:
            if kind == "prepare":
                msg = Prepare(payload, bench.initial_view)
            elif kind == "deliver":
                msg = Deliver(payload, bench.initial_view)
            else:
                msg = Reconfig(plus(author), bench.initial_view)
            node.step(Receive(author, bench.raw(author, msg)))
        digests.append(state_digest(node))
    assert digests[0] == digests[1]


def test_discovery_reply_injection_extends_trust():
    bench, _ = fresh_pair()
    node = bench.nodes["p5"]
    node.step(InvokeJoin())
    v0 = bench.initial_view
    v1 = View(v0.changes | {plus("p5")})
    seq = frozenset({v1})
    sigs = tuple((pid, bench.keyring.sign(pid, signed_content(Converged(seq, v0), pid)))
                 for pid in ("p1", "p2", "p3"))
    link = Install(seq, v0, sigs, reconfig_proofs(bench.keyring, seq, v0))
    reply = HistoryGossip(ViewHistory(v0, (link,)))
    actions = node.step(Receive("p1", bench.raw("p1", reply)))
    assert node._is_trusted(v1)
    reconfigs = sends_of(actions, "RECONFIG")
    assert sorted(r.to for r in reconfigs) == sorted(v1.members)


def test_repeated_message_is_decoded_once_and_handled_again(monkeypatch):
    import dbrb.engine as engine

    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    decodes = []
    real = engine.decode
    monkeypatch.setattr(engine, "decode",
                        lambda raw, verifier, bodies=None:
                        decodes.append(raw) or real(raw, verifier, bodies))
    msg = Reconfig(plus("p5"), bench.initial_view)
    event = Receive("p5", bench.raw("p5", msg))
    first = node.step(event)
    again = node.step(event)
    assert decodes == [event.raw]
    assert list(node._decoded) == [event.raw]
    # the handler still runs: a repeated reconfig is confirmed again
    assert [s.to for s in sends_of(first, "REC-CONFIRM")] == ["p5"]
    assert [s.to for s in sends_of(again, "REC-CONFIRM")] == ["p5"]


def test_undecodable_message_is_never_cached():
    from conftest import notes_of

    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    raw = bytearray(bench.raw("p1", Prepare(b"m", bench.initial_view)))
    raw[-1] ^= 0x01
    notes = [notes_of(node.step(Receive("p1", bytes(raw))), "Drop")
             for _ in range(3)]
    assert notes[0] == notes[1] == notes[2]
    assert [n.detail for n in notes[0]] == ["undecodable message: bad envelope signature"]
    assert node._decoded == {}


def test_decode_memo_is_not_protocol_state():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    node.step(Receive("p1", bench.raw("p1", Prepare(b"m", bench.initial_view))))
    node.step(Receive("p5", bench.raw("p5", Reconfig(plus("p5"), bench.initial_view))))
    assert node._decoded and node._bodies
    assert node.seqs != {}
    digest = state_digest(node)
    node._decoded.clear()
    node._bodies.clear()
    assert state_digest(node) == digest


def test_kept_bytes_are_not_protocol_state(bench4):
    node = bench4.nodes["p2"]
    v0 = bench4.initial_view
    v1 = View(v0.changes | {plus("p5")})
    bench4.deliver("p2", "p5", Reconfig(plus("p5"), v0))
    update = StateUpdate(v0, v1, StateRecord(), ())
    bench4.deliver("p2", "p3", update)
    held = [node.pool[plus("p5")], node.state_updates[v0]["p3"]]
    held[0].verify(node.verifier)
    assert all(set(vars(x)) & {"_body", "_signed"} for x in held)
    digest = state_digest(node)
    for x in held:
        for name in ("_body", "_signed"):
            vars(x).pop(name, None)
    assert state_digest(node) == digest


def test_one_body_from_two_authors_is_parsed_once(monkeypatch):
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    parsed = []
    write, read = KIND_CODECS[TAG_CONVERGED]
    monkeypatch.setitem(KIND_CODECS, TAG_CONVERGED,
                        (write, lambda r: parsed.append(1) or read(r)))
    msg = Converged(frozenset({bench.initial_view}), bench.initial_view)
    for author in ("p1", "p3"):
        node.step(Receive(author, bench.raw(author, msg)))
    assert len(parsed) == 1
    assert len(node._decoded) == 2 and len(node._bodies) == 1


def spy_signs(node):
    signed = []
    real = node.signer.sign
    node.signer.sign = lambda payload: signed.append(payload) or real(payload)
    node._outputs = []
    return signed


def test_emit_propose_is_encoded_once_and_unsigned():
    # PROPOSE is a link-only kind: one unsigned frame serves the whole fan-out
    bench, _ = fresh_pair()
    node = bench.nodes["p1"]
    v0 = bench.initial_view
    node.step(Receive("p5", bench.raw("p5", Reconfig(plus("p5"), v0))))
    signed = spy_signs(node)
    node._emit_propose(v0)
    proposes = sends_of(node._outputs, "PROPOSE")
    assert [s.to for s in proposes] == list(v0.members)
    assert signed == []
    assert {s.raw for s in proposes} == {proposes[0].raw}


def test_state_update_is_encoded_once_and_unsigned():
    # STATE-UPDATE is a link-only kind: a member that accepts an install
    # sends one unsigned frame straight to each target of the install
    bench, _ = fresh_pair()
    node = bench.nodes["p1"]
    v0 = bench.initial_view
    seq = frozenset({View(v0.changes | {plus("p5")})})
    sigs = tuple((p, bench.keyring.sign(p, signed_content(Converged(seq, v0), p)))
                 for p in ("p2", "p3", "p4"))
    install = Install(seq, v0, sigs, reconfig_proofs(bench.keyring, seq, v0))
    signed = spy_signs(node)
    actions = node.step(Receive("p2", bench.raw("p2", install)))
    updates = sends_of(actions, "STATE-UPDATE")
    assert [s.to for s in updates] == ["p1", "p2", "p3", "p4", "p5"]
    assert signed == []
    assert {s.raw for s in updates} == {updates[0].raw}


def test_adversary_signs_once_per_fan_out():
    bench = Bench(["p1", "p2", "p3", "p4"])
    signed = []
    signer = bench.keyring.signer_for("p1")
    real = signer.sign
    signer.sign = lambda payload: signed.append(payload) or real(payload)
    sender = make_adversary("equivocate_sender", "p1", bench.initial_view, signer,
                            bench.keyring.verifier(), random.Random(0))
    out = sender.step(InvokeBroadcast(b"m"))
    halves = {}
    for send in out:
        halves.setdefault(send.raw, []).append(send.to)
    # two PREPAREs, one per half of the view, and the sender's own ack
    assert sorted(halves.values()) == [["p2", "p4"], ["p3"]]
    assert len(signed) == 4


# -- wake-ups: a scan that was not woken has nothing to do -------------------

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.json")))
def test_no_scan_has_work_left_after_a_step(monkeypatch, name):
    # `_repoll` runs only woken scans; a write site that forgets to wake its
    # readers leaves a scan with work, which calling every scan again finds
    real_step, real_set_phase = Node.step, Node._set_phase
    steps = []

    def checked_set_phase(node, phase):
        # the lifecycle only moves forward, within a step as across steps
        assert phase >= node.phase, f"{node.pid}: {node.phase.name} -> {phase.name}"
        real_set_phase(node, phase)

    def checked_step(node, event):
        out = real_step(node, event)
        # a parked multicast copy is never of a message already received
        assert not {raw for _, raw in node.rm_pending} & node.rm_received
        if node.phase is Phase.HALTED:
            return out
        steps.append(node.pid)
        assert node._dirty == 0
        before = state_digest(node)
        for scan, _ in SCANS:
            getattr(node, scan)()
            assert node._outputs == [], f"{scan} after {event!r}"
        assert state_digest(node) == before
        return out

    monkeypatch.setattr(Node, "step", checked_step)
    monkeypatch.setattr(Node, "_set_phase", checked_set_phase)
    simnet.run(simnet.Scenario.load(SCENARIO_DIR / f"{name}.json"), 0)
    assert steps


def test_state_digest_orders_dataclass_keys(bench4):
    node = bench4.nodes["p1"]
    v0 = bench4.initial_view
    for joiner in ("p5", "p6"):
        node.step(Receive(joiner, bench4.raw(joiner, Reconfig(plus(joiner), v0))))
    assert len(node.recv) == len(node.pool) == 2
    digest = state_digest(node)
    node.recv = dict(reversed(node.recv.items()))
    assert state_digest(node) == digest
