"""Engine determinism, state digests, and lifecycle guards."""

import pytest
from hypothesis import given, settings, strategies as st

from conftest import Bench, sends_of
from dbrb.engine import HaltedError, InvokeBroadcast, InvokeJoin, Receive
from dbrb.messages import Converged, Deliver, Prepare, Reconfig, message_meta
from dbrb.views import plus, seq_key


def fresh_pair():
    a = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])
    b = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])
    return a, b


def test_identical_event_sequences_give_identical_state_and_outputs():
    a, b = fresh_pair()
    events = [
        InvokeBroadcast(b"m"),
        Receive("p5", a.raw("p5", Reconfig(plus("p5"), a.initial_view)),
                {"msg": "RECONFIG"}),
    ]
    outs_a = [a.nodes["p1"].step(e) for e in events]
    outs_b = [b.nodes["p1"].step(e) for e in events]
    assert outs_a == outs_b
    assert a.nodes["p1"].state_digest() == b.nodes["p1"].state_digest()


def test_mutating_events_change_the_digest():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    before = node.state_digest()
    node.step(Receive("p1", bench.raw("p1", Prepare(b"m", bench.initial_view)),
                      {"msg": "PREPARE"}))
    assert node.state_digest() != before


def test_undecodable_input_changes_nothing():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    before = node.state_digest()
    actions = node.step(Receive("p1", b"not a message", {}))
    assert node.state_digest() == before
    assert not sends_of(actions)


def test_forged_signature_changes_nothing():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    raw = bytearray(bench.raw("p1", Prepare(b"m", bench.initial_view)))
    raw[-1] ^= 0x01
    before = node.state_digest()
    node.step(Receive("p1", bytes(raw), {"msg": "PREPARE"}))
    assert node.state_digest() == before


def test_halted_node_rejects_events():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    node.halted = True
    with pytest.raises(HaltedError):
        node.step(InvokeJoin())


def test_dormant_node_never_sends():
    bench, _ = fresh_pair()
    node = bench.nodes["p5"]
    actions = node.step(Receive("p1", bench.raw("p1", Prepare(b"m", bench.initial_view)),
                                {"msg": "PREPARE"}))
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
            node.step(Receive(author, bench.raw(author, msg), message_meta(msg)))
        digests.append(node.state_digest())
    assert digests[0] == digests[1]


def test_discovery_reply_injection_extends_trust():
    from dbrb.engine import DiscoveryReply
    from dbrb.messages import Install, ViewHistory, converged_signed_bytes

    bench, _ = fresh_pair()
    node = bench.nodes["p5"]
    node.step(InvokeJoin())
    v0 = bench.initial_view
    from dbrb.views import View

    v1 = View(v0.changes | {plus("p5")})
    seq = frozenset({v1})
    sigs = tuple((pid, bench.keyring.sign(pid, converged_signed_bytes(seq, v0, pid)))
                 for pid in ("p1", "p2", "p3"))
    link = Install(tuple(sorted(v0.member_set | v1.member_set)), v1, seq, v0, sigs, ())
    actions = node.step(DiscoveryReply(ViewHistory((v0, v1), (link,))))
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
    event = Receive("p5", bench.raw("p5", msg), message_meta(msg))
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
    notes = [notes_of(node.step(Receive("p1", bytes(raw), {"msg": "PREPARE"})), "Drop")
             for _ in range(3)]
    assert notes[0] == notes[1] == notes[2]
    assert [n.detail for n in notes[0]] == ["undecodable message: bad envelope signature"]
    assert node._decoded == {}


def test_decode_memo_is_not_protocol_state():
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    node.step(Receive("p1", bench.raw("p1", Prepare(b"m", bench.initial_view)),
                      {"msg": "PREPARE"}))
    node.step(Receive("p5", bench.raw("p5", Reconfig(plus("p5"), bench.initial_view)),
                      {"msg": "RECONFIG"}))
    assert node._decoded and node._bodies
    assert node.seq_keys == {v: seq_key(seq) for v, seq in node.seqs.items()} != {}
    digest = node.state_digest()
    node._decoded.clear()
    node._bodies.clear()
    node.seq_keys.clear()
    assert node.state_digest() == digest


def test_one_body_from_two_authors_is_parsed_once(monkeypatch):
    bench, _ = fresh_pair()
    node = bench.nodes["p2"]
    parsed = []
    real = Converged.read_body.__func__
    monkeypatch.setattr(Converged, "read_body",
                        classmethod(lambda cls, r: parsed.append(1) or real(cls, r)))
    msg = Converged(frozenset({bench.initial_view}), bench.initial_view)
    for author in ("p1", "p3"):
        node.step(Receive(author, bench.raw(author, msg), message_meta(msg)))
    assert len(parsed) == 1
    assert len(node._decoded) == 2 and len(node._bodies) == 1


def test_emit_propose_signs_once_per_fan_out():
    bench, _ = fresh_pair()
    node = bench.nodes["p1"]
    v0 = bench.initial_view
    node.step(Receive("p5", bench.raw("p5", Reconfig(plus("p5"), v0)), {"msg": "RECONFIG"}))
    signed = []
    real = node.signer.sign
    node.signer.sign = lambda payload: signed.append(payload) or real(payload)
    node._outputs = []
    node._emit_propose(v0)
    proposes = sends_of(node._outputs, "PROPOSE")
    assert [s.to for s in proposes] == list(v0.members)
    assert len(signed) == 1
    assert {s.raw for s in proposes} == {proposes[0].raw}
