"""Whole-run coverage of the harder protocol paths, across seed sweeps."""

from pathlib import Path

from dbrb import checker, simnet


def run_all_pass(sc, seed):
    trace = simnet.run(sc, seed)
    verdicts = checker.check(trace, sc)
    failing = [str(v) for v in verdicts if v.status != checker.PASS]
    assert not failing, f"seed {seed}: {failing}"
    return trace


def test_leaver_removed_mid_broadcast_still_delivers():
    # The leaver is cut from the view while the broadcast is in flight; it has
    # stored the payload but lacks its deliver quorum, so it must keep
    # re-committing from the outside until totality is secured.
    sc = simnet.Scenario.from_dict({
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
        "network": {"max_delay_steps": 4},
        "limits": {"max_steps": 20000, "max_messages": 300000},
    })
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
    sc = simnet.Scenario.load(
        Path(__file__).resolve().parent.parent
        / "src" / "dbrb" / "scenarios" / "forged_certificate.json")
    for seed in range(20):
        trace = run_all_pass(sc, seed)
        drops = [e for e in trace.events if e["kind"] == "Drop"
                 and "invalid certificate" in (e["detail"] or "")]
        assert drops, f"seed {seed}: forged commits were never offered"
