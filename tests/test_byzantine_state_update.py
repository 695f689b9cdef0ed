"""A Byzantine member of the replaced view against link-only state updates.

Four members p1..p4, of which p4 is Byzantine, and p5's join in flight:
p1 sends the install of V1 = V0 + p5 to every target, and the correct
nodes run from there, each sending what it sends to the others in order.
p4's inbox is dropped; its updates are written by hand.  A state update is
never relayed, so a quorum of V0 (three) forms from the correct members'
updates alone, and a frame counts for the process that sent it over the
link, whoever built it.
"""


import pytest

from conftest import Bench, notes_of, reconfig_proofs, sends_of
from dbrb.crypto import ack_payload, build_certificate
from dbrb.engine import InvokeJoin, Receive, Send
from dbrb.membership import Phase
from dbrb.messages import (
    Commit,
    Converged,
    Install,
    Prepare,
    Signed,
    StateRecord,
    StateUpdate,
    message_meta,
    rm_targets,
    signed_content,
)
from dbrb.views import View, plus

CORRECT = ("p1", "p2", "p3", "p5")


def join_in_flight():
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])
    bench.nodes["p5"].step(InvokeJoin())
    v0 = bench.initial_view
    seq = frozenset({View(v0 | {plus("p5")})})
    sigs = tuple((p, bench.keyring.sign(p, signed_content(Converged(seq, v0), p)))
                 for p in ("p1", "p2", "p3"))
    return bench, Install(seq, v0, sigs, reconfig_proofs(bench.keyring, seq, v0))


def sends(bench, author, msg, to):
    """(link sender, Send) pairs of msg, built and sent by author, to each of `to`."""
    raw = bench.raw(author, msg)
    return [(author, Send(q, raw, message_meta(msg))) for q in to]


def run(bench, queue):
    """Deliver each queued send in order, queuing what the receiver sends;
    what is sent to p4 is dropped.  Any error a correct node raises fails
    the test."""
    while queue:
        sender, send = queue.pop(0)
        node = bench.nodes[send.to]
        if send.to != "p4" and node.phase is not Phase.HALTED:
            queue += [(send.to, a) for a in node.step(Receive(sender, send.raw))
                      if isinstance(a, Send)]


def byzantine_updates(install):
    """Two different valid updates for the install."""
    v1 = install.omega
    return (StateUpdate(install.view, v1, StateRecord(), ()),
            StateUpdate(install.view, v1, StateRecord(), install.proofs))


def assert_installed(bench, v1):
    for pid in CORRECT:
        node = bench.nodes[pid]
        assert node.cv == v1 and node.installed == v1 and not node.suspended, pid
    assert bench.nodes["p5"].phase is Phase.MEMBER


def test_update_sent_to_some_targets_only():
    bench, install = join_in_flight()
    partial, _ = byzantine_updates(install)
    queue = sends(bench, "p4", partial, ["p1"])
    queue += sends(bench, "p1", install, rm_targets(install))
    run(bench, queue)
    assert_installed(bench, install.omega)
    assert bench.nodes["p1"].state_updates.votes[(install.view, None)]["p4"] == partial
    for pid in ("p2", "p3", "p5"):
        assert "p4" not in bench.nodes[pid].state_updates.votes[(install.view, None)]


def test_two_updates_to_two_halves():
    bench, install = join_in_flight()
    first, second = byzantine_updates(install)
    # p1 gets the second one too, after the first
    queue = sends(bench, "p4", first, ["p1", "p2"])
    queue += sends(bench, "p4", second, ["p3", "p5", "p1"])
    queue += sends(bench, "p1", install, rm_targets(install))
    run(bench, queue)
    assert_installed(bench, install.omega)
    held = {pid: bench.nodes[pid].state_updates.votes[(install.view, None)]["p4"]
            for pid in CORRECT}
    assert held == {"p1": first, "p2": first, "p3": second, "p5": second}


def test_relayed_update_counts_for_the_relayer():
    bench, install = join_in_flight()
    v0, v1 = install.view, install.omega
    node = bench.nodes["p2"]
    p1_update, p3_update = byzantine_updates(install)
    p1_raw = bench.raw("p1", p1_update)
    # p4 relays p1's frame verbatim, then p3's update and the install come:
    # two updates, p4's and p3's, one short of a quorum
    node.step(Receive("p4", p1_raw))
    node.step(Receive("p3", bench.raw("p3", p3_update)))
    actions = bench.deliver("p2", "p1", install)
    assert node.state_updates.votes[(v0, None)] == {"p4": p1_update, "p3": p3_update}
    assert [s.to for s in sends_of(actions, "STATE-UPDATE")] == rm_targets(install)
    assert node.cv == v0 and node.suspended
    # p1's own copy counts for p1 and completes the install
    node.step(Receive("p1", p1_raw))
    assert set(node.state_updates.votes[(v0, None)]) == {"p1", "p3", "p4"}
    assert node.cv == v1 and node.installed == v1


# -- one update from p4 whose embedded evidence does not hold ------------------


def prepared(bench, payload, view, signer="p1"):
    """Ack evidence: the PREPARE of payload in view, signed by `signer`."""
    content = signed_content(Prepare(payload, view), signer)
    return Signed(Prepare(payload, view), bench.keyring.sign(signer, content))


def certified(bench, payload, view, signers):
    return build_certificate(view, {p: bench.keyring.sign(p, ack_payload(payload, view))
                                    for p in signers})


DEFECTS = (
    "equal conflicting payloads",
    "ack not signed by the sender",
    "conflict not signed by the sender",
    "stored outside the update's view",
    "certificate outside the associated view",
    "certificate that does not verify",
)


def defective_records(bench):
    """A state record with each defect of `DEFECTS`, the rest valid."""
    v0 = bench.initial_view
    inner = View.initial(["p1", "p2", "p3"])  # inside V0
    outer = View(v0 | {plus("p6")})  # not inside V0
    good = certified(bench, b"m", v0, ["p1", "p2", "p3"])
    forged = build_certificate(v0, {p: b"forged" for p in ("p1", "p2", "p3")})
    return {
        "equal conflicting payloads": StateRecord(
            conflicting=(prepared(bench, b"m", inner), prepared(bench, b"m", v0))),
        "ack not signed by the sender": StateRecord(ack=prepared(bench, b"m", v0, "p4")),
        "conflict not signed by the sender": StateRecord(
            conflicting=(prepared(bench, b"a", v0), prepared(bench, b"b", v0, "p4"))),
        "stored outside the update's view": StateRecord(
            stored=Commit(b"m", good, outer)),
        "certificate outside the associated view": StateRecord(
            stored=Commit(b"m", good, inner)),
        "certificate that does not verify": StateRecord(
            stored=Commit(b"m", forged, v0)),
    }


@pytest.mark.parametrize("defect", DEFECTS)
def test_update_with_invalid_evidence_records_nothing(defect):
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])
    v0 = bench.initial_view
    node = bench.nodes["p2"]
    update = StateUpdate(v0, View(v0 | {plus("p5")}), defective_records(bench)[defect],
                         ())
    actions = bench.deliver("p2", "p4", update)
    assert [(n.kind, n.detail) for n in notes_of(actions)] == [
        ("Flag", "invalid embedded evidence")]
    assert not node.state_updates.votes


def test_update_with_valid_evidence_is_recorded():
    # the control for the defects above: the same update, evidence intact
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])
    v0 = bench.initial_view
    record = StateRecord(ack=prepared(bench, b"m", v0),
                         stored=Commit(b"m", certified(bench, b"m", v0,
                                                               ["p1", "p2", "p3"]), v0))
    update = StateUpdate(v0, View(v0 | {plus("p5")}), record, ())
    assert not notes_of(bench.deliver("p2", "p4", update))
    assert bench.nodes["p2"].state_updates.votes == {(v0, None): {"p4": update}}


def test_update_to_a_process_outside_its_targets_is_dropped():
    # the targets are the members of V0 and of V0 + p5; p6 is neither
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p6"])
    v0 = bench.initial_view
    node = bench.nodes["p6"]
    node.step(InvokeJoin())
    actions = bench.deliver("p6", "p4", StateUpdate(v0, View(v0 | {plus("p5")}),
                                                    StateRecord(), ()))
    assert [(n.kind, n.detail) for n in notes_of(actions)] == [("Drop", "not in target set")]
    assert node.state_updates.votes == {}
