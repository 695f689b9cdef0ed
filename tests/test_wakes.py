"""Wake coverage: each write below wakes the scans that read it.

`Node._repoll` runs only woken scans, so a write that forgets its wake
leaves a scan with work.  The packaged runs never need these particular
wakes on their own, so each test reaches its write from real messages.
Where the scan has work only this wake can start, the test checks that
the work is done and that no scan has work left (`assert_idle`).  Where
another write in the same call wakes the same scan first, the test checks
that a wake covering the scan follows the write itself (`wakes_after`),
so that neither write relies on the other's wake.
"""

import hashlib

from conftest import Bench, reconfig_proofs, sends_of, state_digest
from dbrb.crypto import ack_payload, build_certificate
from dbrb.engine import _SCANS
from dbrb.membership import Phase
from dbrb.messages import (
    TAG_INSTALL,
    Commit,
    Converged,
    Install,
    Propose,
    Reconfig,
    ReconfigProof,
    StateRecord,
    StateUpdate,
    StoredEvidence,
    body_bytes,
    decode,
    signed_content,
)
from dbrb.views import View, minus, plus
from dbrb.wake import MAYBE_PROPOSE, PROPOSE_QUORUM


def make_bench():
    return Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])


def assert_idle(node):
    """No scan has work left: each emits nothing and changes nothing."""
    assert node._dirty == 0
    before = state_digest(node)
    for _, scan in _SCANS:
        getattr(node, scan)()
        assert node._outputs == [], scan
    assert state_digest(node) == before


def wakes_after(bench, to, author, msg, written):
    """Deliver msg; the union of the wakes made once `written(node)` holds."""
    node = bench.nodes[to]
    bits = 0
    real = node._wake

    def spy(b):
        nonlocal bits
        if written(node):
            bits |= b
        real(b)

    node._wake = spy
    try:
        bench.deliver(to, author, msg)
    finally:
        del node._wake
    return bits


def install(bench, omega, seq, view, signers=("p1", "p2", "p3")):
    sigs = tuple((pid, bench.keyring.sign(pid, signed_content(Converged(seq, view), pid)))
                 for pid in signers)
    return Install(tuple(sorted(view.member_set | omega.member_set)), omega, seq, view, sigs,
                   reconfig_proofs(bench.keyring, seq, view))


def state_update(view, omega, record=StateRecord()):
    return StateUpdate(tuple(sorted(view.member_set | omega.member_set)), view, omega,
                       record, ())


def cert(bench, payload, view, signers):
    digest = hashlib.sha256(payload).digest()
    return build_certificate(digest, view, {p: bench.keyring.sign(p, ack_payload(digest, view))
                                            for p in signers})


V0 = View.initial(["p1", "p2", "p3", "p4"])
V1 = View(V0.changes | {plus("p5")})
# a view inside V0 that p2 never trusts: certificates formed in it stay unverifiable
V_SUB = View.initial(["p1", "p2", "p3"])


def install_v1(bench, to, updates=None):
    """Move `to` from V0 to V1 through an INSTALL and a quorum of state updates."""
    bench.deliver(to, "p1", install(bench, V1, frozenset({V1}), V0))
    for author in ("p1", "p3", "p4"):
        bench.deliver(to, author, (updates or {}).get(author, state_update(V0, V1)))


def test_delivered_multicast_leaves_no_work():
    # `rm_received` growth needs no wake: no copy of a message is parked
    # once it is received (`test_engine.py` checks that after every step)
    bench = make_bench()
    node = bench.nodes["p2"]
    install_v1(bench, "p2")
    variant = install(bench, V1, frozenset({V1}), V0, signers=("p2", "p3", "p4"))
    key = (TAG_INSTALL, body_bytes(variant), "")
    bench.deliver("p2", "p4", variant)
    assert key in node.rm_received
    assert_idle(node)


def test_stored_commit_clears_the_pending_store():
    bench = make_bench()
    node = bench.nodes["p2"]
    unverifiable = StoredEvidence(b"m", cert(bench, b"m", V_SUB, ["p1", "p2", "p3"]), V_SUB, V0)
    install_v1(bench, "p2", {"p1": state_update(V0, V1, StateRecord(stored=unverifiable))})
    assert node.cv == V1 and node.pending_store == [unverifiable]
    assert node.state_record.stored is None
    bench.deliver("p2", "p1", Commit(b"m", cert(bench, b"m", V0, ["p1", "p2", "p3"]), V0, V1))
    assert node.state_record.stored is not None and node.pending_store == []
    assert_idle(node)


def test_new_cv_drops_a_stale_pending_commit():
    bench = make_bench()
    node = bench.nodes["p2"]
    bench.deliver("p2", "p1", Commit(b"m", cert(bench, b"m", V_SUB, ["p1", "p2", "p3"]),
                                     V_SUB, V0))
    assert [msg.view for _, msg in node.pending_commits] == [V0]
    install_v1(bench, "p2")
    assert node.cv == V1 and node.pending_commits == []
    assert_idle(node)


def test_leaving_cv_drops_a_stale_pending_commit():
    # p4 leaves with a stored message: the leaver loop moves `cv` to the
    # best trusted view (`_leaver_commit`), which strands the pending commit
    bench = make_bench()
    node = bench.nodes["p4"]
    v_left = View(V0.changes | {minus("p4")})
    bench.deliver("p4", "p1", Commit(b"m", cert(bench, b"m", V0, ["p1", "p2", "p3"]), V0, V0))
    bench.deliver("p4", "p1", Commit(b"m", cert(bench, b"m", V_SUB, ["p1", "p2", "p3"]),
                                     V_SUB, V0))
    assert node.state_record.stored is not None
    assert [msg.view for _, msg in node.pending_commits] == [V0]
    bench.deliver("p4", "p1", install(bench, v_left, frozenset({v_left}), V0))
    for author in ("p1", "p2", "p3"):
        bench.deliver("p4", author, state_update(V0, v_left))
    assert node.phase is Phase.LEAVER_LOOP and node.cv == v_left and node.pending_commits == []
    assert_idle(node)


def test_install_unlocks_a_buffered_propose_and_its_quorum():
    # PROPOSEs in V1 for {V2} wait in the buffer until an install fills
    # FORMAT[V1] (`formats`); adopting them sets SEQ[V1] (`_set_seq`), and
    # the votes already held are then a quorum for a CONVERGED
    bench = make_bench()
    node = bench.nodes["p2"]
    v2 = View(V1.changes | {plus("p6")})
    sig = bench.keyring.sign("p6", signed_content(Reconfig(plus("p6"), V1), "p6"))
    propose = Propose(frozenset({v2}), V1, (ReconfigProof(plus("p6"), V1, sig),))
    for author in ("p1", "p3", "p4", "p5"):
        assert not sends_of(bench.deliver("p2", author, propose))
    assert len(node.propose_buffer) == 4 and V1 not in node.seqs
    actions = bench.deliver("p2", "p1", install(bench, V1, frozenset({V1, v2}), V0))
    assert node.seqs[V1] == frozenset({v2})
    assert sorted(s.to for s in sends_of(actions, "PROPOSE")) == sorted(V1.members)
    converged = sends_of(actions, "CONVERGED")
    assert sorted(s.to for s in converged) == sorted(V1.members)
    assert decode(converged[0].raw, bench.verifier).msg.seq == frozenset({v2})
    assert_idle(node)


def test_installing_cv_wakes_maybe_propose():
    # `cv` is written, and wakes its readers, just before `installed[cv]`;
    # the installed mark must wake `_maybe_propose` on its own as well
    bench = make_bench()
    node = bench.nodes["p2"]
    bench.deliver("p2", "p1", install(bench, V1, frozenset({V1}), V0))
    for author in ("p1", "p3"):
        bench.deliver("p2", author, state_update(V0, V1))
    installed = lambda n: n.cv == V1 and V1 in n.installed
    assert wakes_after(bench, "p2", "p4", state_update(V0, V1), installed) & MAYBE_PROPOSE
    assert V1 in node.installed
    assert_idle(node)


def test_set_seq_wakes_the_proposal_quorum():
    # `_maybe_propose` runs after `_propose_quorum_scan`, and nothing else in
    # the step wakes the quorum scan: the new SEQ[V0] must wake it itself
    bench = make_bench()
    node = bench.nodes["p2"]
    proposed = lambda n: V0 in n.seqs
    assert wakes_after(bench, "p2", "p5", Reconfig(plus("p5"), V0), proposed) & PROPOSE_QUORUM
    assert node.seqs[V0] == frozenset({V1})
    assert_idle(node)


def test_install_proofs_unlock_a_waiting_converged_quorum():
    # a CONVERGED quorum on {V1} waits for p5's reconfig proof; the install
    # pools it (with FORMAT[V1]), and its wake lets the quorum be acted on
    bench = make_bench()
    node = bench.nodes["p2"]
    for author in ("p1", "p3", "p4"):
        bench.deliver("p2", author, Converged(frozenset({V1}), V0))
    assert plus("p5") not in node.pool and not node.install_sent
    received = install(bench, V1, frozenset({V1}), V0)
    actions = bench.deliver("p2", "p1", received)
    assert node.install_sent == {(V0, frozenset({V1}))}
    assert node.formats[V1] == {frozenset()}
    # the relayed install, then this node's own from the votes it holds
    own = {decode(s.raw, bench.verifier).msg for s in sends_of(actions, "INSTALL")} - {received}
    assert [[q for q, _ in m.converged_sigs] for m in own] == [["p1", "p3", "p4"]]
    assert_idle(node)


def test_install_after_its_state_updates_completes_in_the_same_step():
    # a quorum of state updates for V0 -> V1 arrives first; the install that
    # follows parks a pending install, whose wake completes it at once
    bench = make_bench()
    node = bench.nodes["p2"]
    for author in ("p1", "p3", "p4"):
        bench.deliver("p2", author, state_update(V0, V1))
    assert node.cv == V0 and set(node.state_updates[V0]) == {"p1", "p3", "p4"}
    bench.deliver("p2", "p1", install(bench, V1, frozenset({V1}), V0))
    assert node.cv == V1 and V1 in node.installed and node.pending_installs == []
    assert_idle(node)
