"""Whole-run coverage of the harder protocol paths, across seed sweeps."""

from collections import Counter
from pathlib import Path

import pytest

from dbrb import checker, simnet

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"


def run_all_pass(sc, seed):
    trace = simnet.run(sc, seed)
    verdicts = checker.check(trace, sc)
    failing = [str(v) for v in verdicts if v.status != checker.PASS]
    assert not failing, f"seed {seed}: {failing}"
    return trace


def leave_inflight(max_delay_steps=4) -> dict:
    """p3 leaves a five-member view while p1's broadcast is in flight."""
    return {
        "name": "leave-inflight",
        "universe": ["p1", "p2", "p3", "p4", "p5"],
        "initial_members": ["p1", "p2", "p3", "p4", "p5"],
        "sender": "p1",
        "script": [
            {"trigger": {"at_step": 0},
             "action": {"kind": "broadcast", "process": "p1", "payload": "x"}},
            {"trigger": {"at_step": 1},
             "action": {"kind": "leave", "process": "p3"}},
        ],
        "network": {"max_delay_steps": max_delay_steps},
        "limits": {"max_steps": 20000, "max_messages": 300000},
    }


def test_leaver_removed_mid_broadcast_still_delivers():
    # The leaver is cut from the view while the broadcast is in flight; it has
    # stored the payload but lacks its deliver quorum, so it must keep
    # re-committing from the outside until totality is secured.
    sc = simnet.Scenario.from_dict(leave_inflight())
    loop_hits = 0
    for seed in range(30):
        trace = run_all_pass(sc, seed)
        steps = {e["detail"]: e["step"] for e in trace.events
                 if e["actor"] == "p3" and e["kind"] == "Callback"}
        assert steps["Delivered"] < steps["LeaveComplete"], f"seed {seed}"
        if any(e["kind"] == "StateNote" and e["detail"] == "leaver-loop"
               for e in trace.events):
            loop_hits += 1
    assert loop_hits > 0, "the outside-commit loop was never taken"


@pytest.mark.parametrize("delay,seed", [(4, 264), (4, 690), (8, 42)])
def test_commit_from_a_peer_that_installed_first_is_parked(delay, seed):
    # A peer that installs the next view first sends its COMMIT in it while
    # this node is still suspended; dropping it lost the peer's deliver
    # quorum (Validity and Totality at seed 264, the leave at seed 690).
    run_all_pass(simnet.Scenario.from_dict(leave_inflight(delay)), seed)


def test_commit_from_the_joiner_is_parked_under_equivocation():
    # The joiner p5 commits in the new view while p3 and p4 are suspended;
    # dropping those COMMITs failed Totality.
    run_all_pass(simnet.Scenario.load(SCENARIOS / "equivocating_sender.json"), 51)


def test_simultaneous_joins_exercise_conflict_merge():
    sc = simnet.Scenario.from_dict({
        "name": "simultaneous-joins",
        "universe": ["p1", "p2", "p3", "p4", "p5", "p6"],
        "initial_members": ["p1", "p2", "p3", "p4"],
        "sender": "p1",
        "script": [
            {"trigger": {"at_step": 0}, "action": {"kind": "join", "process": "p5"}},
            {"trigger": {"at_step": 0}, "action": {"kind": "join", "process": "p6"}},
        ],
        "network": {"max_delay_steps": 5},
        "limits": {"max_steps": 20000, "max_messages": 300000},
    })
    multi_view_seqs = 0
    for seed in range(30):
        trace = run_all_pass(sc, seed)
        joined = {e["actor"] for e in trace.events
                  if e["kind"] == "Callback" and e["detail"] == "JoinComplete"}
        assert joined == {"p5", "p6"}, f"seed {seed}: {joined}"
        if any(e["kind"] == "StateNote" and e["detail"] == "install-accepted"
               and len(e["views"]["seq"]) > 1 for e in trace.events):
            multi_view_seqs += 1
    assert multi_view_seqs > 0, "no run produced a multi-view sequence"


def test_forged_certificates_never_store():
    sc = simnet.Scenario.load(SCENARIOS / "forged_certificate.json")
    for seed in range(20):
        trace = run_all_pass(sc, seed)
        drops = [e for e in trace.events if e["kind"] == "Drop"
                 and "invalid certificate" in (e["detail"] or "")]
        assert drops, f"seed {seed}: forged commits were never offered"


@pytest.mark.parametrize("name", ["static4", "silent_f", "forged_certificate",
                                  "join_during_broadcast"])
def test_no_correct_process_repeats_a_commit_or_deliver(monkeypatch, name):
    # every holder, the sender included, commits its stored message once per
    # view, and its own COMMIT coming back is not news, so no correct process
    # sends one COMMIT or DELIVER frame to one peer twice
    sc = simnet.Scenario.load(SCENARIOS / f"{name}.json")
    correct = set(sc.universe) - sc.byzantine()
    sent = Counter()
    enqueue = simnet._Run._enqueue_send

    def counted(run, frm, to, raw, meta):
        if frm in correct and meta["msg"] in ("COMMIT", "DELIVER"):
            sent[meta["msg"], frm, to, raw] += 1
        enqueue(run, frm, to, raw, meta)

    monkeypatch.setattr(simnet._Run, "_enqueue_send", counted)
    for seed in range(3):
        sent.clear()
        run_all_pass(sc, seed)
        assert {kind for kind, _, _, _ in sent} == {"COMMIT", "DELIVER"}, f"seed {seed}"
        repeats = Counter(key[0] for key, n in sent.items() for _ in range(n - 1))
        assert not repeats, f"seed {seed} repeats {dict(repeats)}"
