"""Checker verdicts over clean runs and hand-built violating traces."""

import pytest

from dbrb import checker, simnet


def scenario(**overrides):
    base = {
        "name": "t-check",
        "universe": ["p1", "p2", "p3", "p4"],
        "initial_members": ["p1", "p2", "p3", "p4"],
        "sender": "p1",
        "script": [{"trigger": {"at_step": 0},
                    "action": {"kind": "broadcast", "process": "p1", "payload": "x"}}],
        "network": {"max_delay_steps": 3},
        "limits": {"max_steps": 10000, "max_messages": 100000},
    }
    base.update(overrides)
    return simnet.Scenario.from_dict(base)


def synthetic(events, truncated=False):
    """Rows from (kind, actor[, payload_digest[, detail[, view[, views]]]]) tuples."""
    rows = []
    for i, e in enumerate(events):
        row = {"step": i, "t": i, "kind": e[0], "actor": e[1], "peer": None,
               "msg_kind": None, "view": e[4] if len(e) > 4 else None,
               "payload_digest": e[2] if len(e) > 2 else None,
               "detail": e[3] if len(e) > 3 else None,
               "views": e[5] if len(e) > 5 else None}
        rows.append(row)
    return simnet.Trace({"schema": simnet.TRACE_SCHEMA, "scenario": "t-check", "seed": 0},
                        rows, {"truncated": truncated})


def view(*members):
    return [f"+{p}" for p in members]


def accepted_install(actor, omega, v):
    return ("StateNote", actor, None, "install-accepted", omega, {"v": v, "seq": [omega]})


def by_prop(verdicts):
    return {v.prop: v for v in verdicts}


def test_clean_run_all_pass():
    sc = scenario()
    trace = simnet.run(sc, seed=0)
    verdicts = checker.check(trace, sc)
    assert all(v.status == checker.PASS for v in verdicts)
    assert len(verdicts) == len(checker.PROPERTIES)


def test_rerun_gives_identical_verdicts():
    sc = scenario()
    trace = simnet.run(sc, seed=0)
    a = [str(v) for v in checker.check(trace, sc)]
    b = [str(v) for v in checker.check(trace, sc)]
    assert a == b


def test_consistency_violation_detected():
    trace = synthetic([
        ("Invoke", "p1", "aaaa", "broadcast"),
        ("Callback", "p2", "aaaa", "Delivered"),
        ("Callback", "p3", "bbbb", "Delivered"),
    ])
    v = by_prop(checker.check(trace, scenario()))["Consistency"]
    assert v.status == checker.FAIL
    assert v.evidence == [1, 2]


def test_duplicate_delivery_detected():
    trace = synthetic([
        ("Invoke", "p1", "aaaa", "broadcast"),
        ("Callback", "p2", "aaaa", "Delivered"),
        ("Callback", "p2", "aaaa", "Delivered"),
    ])
    v = by_prop(checker.check(trace, scenario()))["NoDuplication"]
    assert v.status == checker.FAIL


def test_integrity_violation_detected():
    trace = synthetic([
        ("Invoke", "p1", "aaaa", "broadcast"),
        ("Callback", "p2", "ffff", "Delivered"),
    ])
    v = by_prop(checker.check(trace, scenario()))["Integrity"]
    assert v.status == checker.FAIL


def test_send_before_join_detected():
    sc = scenario(universe=["p1", "p2", "p3", "p4", "p5"])
    trace = synthetic([
        ("Send", "p5",),
        ("Invoke", "p5", None, "join"),
    ])
    v = by_prop(checker.check(trace, sc))["NonTriviality"]
    assert v.status == checker.FAIL
    assert "before joining" in v.detail


def test_send_after_leave_detected():
    trace = synthetic([
        ("Invoke", "p2", None, "leave"),
        ("Callback", "p2", None, "LeaveComplete"),
        ("Send", "p2"),
    ])
    v = by_prop(checker.check(trace, scenario()))["NonTriviality"]
    assert v.status == checker.FAIL
    assert "after leaving" in v.detail


@pytest.mark.parametrize("op,actor", [("join", "p5"), ("leave", "p4")], ids=["join", "leave"])
def test_unmatched_join_fails_liveness(op, actor):
    sc = scenario(universe=["p1", "p2", "p3", "p4", "p5"], script=[])
    trace = synthetic([("Invoke", actor, None, op)])
    v = by_prop(checker.check(trace, sc))["Liveness"]
    assert v.status == checker.FAIL
    assert v.detail == f"{actor} invoked {op} but never completed"


def test_validity_requires_delivery_at_stayers():
    trace = synthetic([
        ("Invoke", "p1", "aaaa", "broadcast"),
        ("Callback", "p1", "aaaa", "Delivered"),
        ("Callback", "p2", "aaaa", "Delivered"),
        ("Callback", "p3", "aaaa", "Delivered"),
        # p4 joined at time 0, never leaves, never delivers
    ])
    v = by_prop(checker.check(trace, scenario()))["Validity"]
    assert v.status == checker.FAIL


def test_totality_covers_late_leavers():
    trace = synthetic([
        ("Invoke", "p1", "aaaa", "broadcast"),
        ("Callback", "p1", "aaaa", "Delivered"),
        ("Callback", "p2", "aaaa", "Delivered"),
        ("Callback", "p3", "aaaa", "Delivered"),
        ("Invoke", "p4", None, "leave"),  # leaves after the delivery: still owes one
        ("Callback", "p4", None, "LeaveComplete"),
    ])
    v = by_prop(checker.check(trace, scenario()))["Totality"]
    assert v.status == checker.FAIL


def test_early_leaver_exempt_from_totality():
    trace = synthetic([
        ("Invoke", "p4", None, "leave"),
        ("Callback", "p4", None, "LeaveComplete"),
        ("Invoke", "p1", "aaaa", "broadcast"),
        ("Callback", "p1", "aaaa", "Delivered"),
        ("Callback", "p2", "aaaa", "Delivered"),
        ("Callback", "p3", "aaaa", "Delivered"),
    ])
    verdicts = by_prop(checker.check(trace, scenario()))
    assert verdicts["Totality"].status == checker.PASS
    assert verdicts["Validity"].status == checker.PASS


def test_byzantine_nodes_carry_no_obligations():
    sc = scenario(roles={"p4": {"strategy": "silent"}})
    trace = synthetic([
        ("Invoke", "p1", "aaaa", "broadcast"),
        ("Callback", "p1", "aaaa", "Delivered"),
        ("Callback", "p2", "aaaa", "Delivered"),
        ("Callback", "p3", "aaaa", "Delivered"),
        ("Callback", "p4", "zzzz", "Delivered"),  # byzantine callback ignored
    ])
    verdicts = by_prop(checker.check(trace, sc))
    assert verdicts["Consistency"].status == checker.PASS
    assert verdicts["Validity"].status == checker.PASS


def test_truncated_trace_inconclusive_for_eventual_props():
    trace = synthetic([
        ("Invoke", "p1", "aaaa", "broadcast"),
        ("Callback", "p2", "aaaa", "Delivered"),
        ("Callback", "p2", "aaaa", "Delivered"),  # duplicate: safety still checked
    ], truncated=True)
    verdicts = by_prop(checker.check(trace, scenario()))
    for prop in ("Validity", "Totality", "Liveness"):
        assert verdicts[prop].status == checker.INCONCLUSIVE
    assert verdicts["NoDuplication"].status == checker.FAIL


def test_incomparable_installed_views_detected():
    v0 = view("p1", "p2", "p3", "p4")
    a, b = view("p1", "p2", "p3", "p4", "p5"), view("p1", "p2", "p3", "p4", "p6")
    trace = synthetic([
        accepted_install("p1", a, v0),
        accepted_install("p2", b, v0),
        ("Install", "p1", None, None, a),
        ("Install", "p2", None, None, b),
    ])
    v = by_prop(checker.check(trace, scenario()))["InstalledViewsChain"]
    assert v.status == checker.FAIL
    assert v.evidence == [2, 3]


def test_install_without_accepted_install_fails_chain():
    v0, v1 = view("p1", "p2", "p3", "p4"), view("p1", "p2", "p3", "p4", "p5")
    install = ("Install", "p1", None, None, v1)
    backed = synthetic([accepted_install("p1", v1, v0), install])
    assert by_prop(checker.check(backed, scenario()))["InstalledViewsChain"].status \
        == checker.PASS
    # the same install accepted by another node, or after the fact, backs nothing
    for events, install_step in (([accepted_install("p2", v1, v0), install], 1),
                                 ([install, accepted_install("p1", v1, v0)], 0)):
        v = by_prop(checker.check(synthetic(events), scenario()))["InstalledViewsChain"]
        assert v.status == checker.FAIL
        assert "never accepted" in v.detail
        assert v.evidence == [install_step]


def test_byzantine_install_carries_no_obligation():
    sc = scenario(roles={"p4": {"strategy": "silent"}})
    trace = synthetic([("Install", "p4", None, None, view("p1", "p2"))])
    assert by_prop(checker.check(trace, sc))["InstalledViewsChain"].status == checker.PASS


def test_incomparable_valid_views_detected():
    v0 = view("p1", "p2")
    trace = synthetic([
        accepted_install("p1", view("p1", "p2", "p5"), v0),
        accepted_install("p2", view("p1", "p2", "p6"), v0),
    ])
    v = by_prop(checker.check(trace, scenario()))["ValidViewsComparable"]
    assert v.status == checker.FAIL
    assert v.evidence == [0, 1]


def test_incomparable_commit_view_detected():
    trace = synthetic([
        ("StateNote", "p1", None, "commit-accepted", view("p1", "p2", "p5")),
        ("StateNote", "p2", None, "commit-accepted", view("p1", "p2", "p6")),
    ])
    v = by_prop(checker.check(trace, scenario()))["ValidViewsComparable"]
    assert v.status == checker.FAIL


def test_unordered_converged_sequences_detected():
    v0 = view("p1", "p2")
    trace = synthetic([
        ("StateNote", "p1", None, "converged-on", None,
         {"v": v0, "seq": [view("p1", "p2", "p5")]}),
        ("StateNote", "p2", None, "converged-on", None,
         {"v": v0, "seq": [view("p1", "p2", "p6")]}),
    ])
    v = by_prop(checker.check(trace, scenario()))["ConvergedTotalOrder"]
    assert v.status == checker.FAIL


def test_ordered_converged_sequences_pass():
    v0, v1 = view("p1", "p2"), view("p1", "p2", "p5")
    trace = synthetic([
        ("StateNote", "p1", None, "converged-on", None, {"v": v0, "seq": [v1]}),
        ("StateNote", "p2", None, "converged-on", None,
         {"v": v0, "seq": [v1, view("p1", "p2", "p5", "p6")]}),
    ])
    assert by_prop(checker.check(trace, scenario()))["ConvergedTotalOrder"].status \
        == checker.PASS


@pytest.mark.parametrize("note", [
    ("Install", "p1", None, None, None),
    ("Install", "p1", None, None, None, {"cv": ["+p1"]}),
    ("StateNote", "p1", None, "install-accepted", None, {"v": ["+p1"], "seq": [["+p1"]]}),
    ("StateNote", "p1", None, "install-accepted", ["+p1"], None),
    ("StateNote", "p1", None, "install-accepted", ["+p1"], {"v": ["+p1"]}),
    ("StateNote", "p1", None, "converged-on", None, {"v": ["+p1"]}),
    ("StateNote", "p1", None, "commit-accepted", None),
    ("StateNote", "p1", None, "commit-accepted", None, {"v_cer": ["+p1"]}),
])
def test_named_note_without_views_is_malformed(note):
    with pytest.raises(checker.MalformedTrace, match="without views"):
        checker.check(synthetic([note]), scenario())


def test_malformed_trace_raises():
    trace = synthetic([("Send", "p1")])
    trace.events[0]["step"] = 7
    with pytest.raises(checker.MalformedTrace):
        checker.check(trace, scenario())
    # an actor outside the universe
    with pytest.raises(checker.MalformedTrace, match="unknown actor p9 at step 0"):
        checker.check(synthetic([("Send", "p9")]), scenario())


def test_exit_codes():
    assert checker.exit_code([checker.Verdict("X", checker.PASS)]) == 0
    assert checker.exit_code([checker.Verdict("X", checker.FAIL)]) == 1
    assert checker.exit_code([checker.Verdict("X", checker.INCONCLUSIVE)]) == 3
    assert checker.exit_code([checker.Verdict("X", checker.FAIL),
                              checker.Verdict("Y", checker.INCONCLUSIVE)]) == 1
