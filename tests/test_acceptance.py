"""Acceptance suite: the exit criteria for the whole artifact.

Each criterion prints one PASS line when it holds; assertions carry the
failure detail otherwise.  Runs are cached so the cross-trace criteria
(structural lemmas, non-triviality, determinism) audit the same traces
the behavioral criteria produced.
"""

import time
from itertools import combinations
from pathlib import Path

from dbrb import checker, simnet
from dbrb.crypto import ack_payload, build_certificate, make_keyring, verify_certificate
from dbrb.views import View, plus

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"

_cache: dict[tuple[str, int], tuple[simnet.Trace, dict]] = {}
_scenarios: dict[str, simnet.Scenario] = {}


def scenario(name):
    if name not in _scenarios:
        _scenarios[name] = simnet.Scenario.load(SCENARIOS / f"{name}.json")
    return _scenarios[name]


def run_checked(name, seed):
    key = (name, seed)
    if key not in _cache:
        sc = scenario(name)
        trace = simnet.run(sc, seed)
        verdicts = {v.prop: v for v in checker.check(trace, sc)}
        _cache[key] = (trace, verdicts)
    return _cache[key]


def assert_all_pass(verdicts, props, context):
    for prop in props:
        assert verdicts[prop].status == checker.PASS, f"{context}: {verdicts[prop]}"


def correct_of(name):
    sc = scenario(name)
    return [p for p in sc.universe if p not in sc.byzantine()]


def test_criterion_1_golden_join_during_broadcast():
    start = time.monotonic()
    v0 = View.initial(["p1", "p2", "p3", "p4"])
    v1 = View(v0 | {plus("p5")})
    for seed in (0, 1, 2):
        trace, verdicts = run_checked("join_during_broadcast", seed)
        assert not trace.truncated
        # certificate collected in the original view
        certs = [e for e in trace.events if e["kind"] == "StateNote"
                 and e["detail"] == "certificate"]
        assert certs, "no certificate was collected"
        assert certs[0]["view"] == list(v0.sorted_changes)
        # members of the successor view reject the commit tagged with the old view
        rejects = {e["actor"] for e in trace.events
                   if e["kind"] == "Drop" and e["msg_kind"] == "COMMIT"
                   and e["detail"] == "view mismatch"
                   and e["views"] == {"cv": list(v1.sorted_changes)}
                   and e["view"] == list(v0.sorted_changes)}
        assert {"p2", "p3", "p4"} <= rejects, f"commit not rejected in v1: {rejects}"
        # the re-tagged commit then delivers everywhere, exactly once each
        payload = next(e["payload_digest"] for e in trace.events
                       if e["kind"] == "Invoke" and e["detail"] == "broadcast")
        delivered = [e["actor"] for e in trace.events
                     if e["kind"] == "Callback" and e["detail"] == "Delivered"
                     and e["payload_digest"] == payload]
        assert sorted(delivered) == ["p1", "p2", "p3", "p4", "p5"]
        assert_all_pass(verdicts, checker.PROPERTIES, f"golden seed {seed}")
    elapsed = time.monotonic() - start
    assert elapsed < 1.0 * 3, f"golden runs too slow: {elapsed:.2f}s"
    print("\nACCEPTANCE criterion-1 (golden join-during-broadcast): PASS")


def test_criterion_2_static_regime_with_silent_byzantine():
    start = time.monotonic()
    for seed in range(100):
        _, verdicts = run_checked("silent_f", seed)
        assert_all_pass(verdicts, checker.PROPERTIES, f"silent_f seed {seed}")
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"static sweep too slow: {elapsed:.2f}s"
    print(f"\nACCEPTANCE criterion-2 (static regime, silent byzantine, 100 seeds,"
          f" {elapsed:.1f}s): PASS")


def _no_two_payload_acks(name, seed):
    trace, _ = run_checked(name, seed)
    byz = scenario(name).byzantine()
    acked: dict[str, set[str]] = {}
    for e in trace.events:
        if e["kind"] == "Send" and e["msg_kind"] == "ACK" and e["actor"] not in byz:
            acked.setdefault(e["actor"], set()).add(e["payload_digest"])
    return all(len(digests) <= 1 for digests in acked.values())


def _one_certified_payload_per_view(name, seed):
    """No two certificates with different payloads for the same view."""
    trace, _ = run_checked(name, seed)
    byz = scenario(name).byzantine()
    per_view: dict[tuple[str, ...], set[str]] = {}
    for e in trace.events:
        if (e["kind"] == "StateNote" and e["actor"] not in byz
                and e["detail"] == "commit-accepted"):
            per_view.setdefault(tuple(e["view"]), set()).add(e["payload_digest"])
    return all(len(payloads) <= 1 for payloads in per_view.values())


def test_criterion_3_consistency_under_equivocation():
    start = time.monotonic()
    for name in ("equivocating_sender", "equivocating_n7"):
        for seed in range(200):
            _, verdicts = run_checked(name, seed)
            assert_all_pass(verdicts, ("Consistency", "NoDuplication", "Integrity"),
                            f"{name} seed {seed}")
            assert _no_two_payload_acks(name, seed), \
                f"{name} seed {seed}: a correct node acked two payloads"
            assert _one_certified_payload_per_view(name, seed), \
                f"{name} seed {seed}: two certified payloads in one view"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"equivocation sweeps too slow: {elapsed:.2f}s"
    print(f"\nACCEPTANCE criterion-3 (equivocation, n4+n7, 200 seeds each,"
          f" {elapsed:.1f}s): PASS")


def test_criterion_4_join_leave_liveness_under_churn():
    for seed in range(100):
        trace, verdicts = run_checked("churn_burst", seed)
        assert not trace.truncated, f"churn seed {seed} truncated"
        invoked = {"join": [], "leave": []}
        completed = {"JoinComplete": [], "LeaveComplete": []}
        for e in trace.events:
            if e["kind"] == "Invoke" and e["detail"] in invoked:
                invoked[e["detail"]].append(e["actor"])
            if e["kind"] == "Callback" and e["detail"] in completed:
                completed[e["detail"]].append(e["actor"])
        assert sorted(invoked["join"]) == sorted(completed["JoinComplete"]), \
            f"churn seed {seed}: unmatched join"
        assert sorted(invoked["leave"]) == sorted(completed["LeaveComplete"]), \
            f"churn seed {seed}: unmatched leave"
        assert verdicts["Liveness"].status == checker.PASS
    print("\nACCEPTANCE criterion-4 (churn liveness, 100 seeds): PASS")


def test_criterion_5_totality_with_leavers():
    for seed in range(100):
        trace, verdicts = run_checked("leave_after_deliver", seed)
        assert not trace.truncated
        deliver_step = None
        leave_step = None
        for e in trace.events:
            if e["actor"] == "p3" and e["kind"] == "Callback":
                if e["detail"] == "Delivered":
                    deliver_step = e["step"]
                elif e["detail"] == "LeaveComplete":
                    leave_step = e["step"]
        assert deliver_step is not None, f"seed {seed}: leaver never delivered"
        assert leave_step is not None, f"seed {seed}: leave never completed"
        assert deliver_step < leave_step, f"seed {seed}: left before delivering"
        assert verdicts["Totality"].status == checker.PASS
    print("\nACCEPTANCE criterion-5 (leaver delivers before leaving, 100 seeds): PASS")


def test_criterion_6_structural_lemmas_across_all_traces():
    # force the full corpus from criteria 1..5 into the cache
    for seed in (0, 1, 2):
        run_checked("join_during_broadcast", seed)
    for seed in range(100):
        run_checked("silent_f", seed)
        run_checked("churn_burst", seed)
        run_checked("leave_after_deliver", seed)
    for seed in range(200):
        run_checked("equivocating_sender", seed)
        run_checked("equivocating_n7", seed)
    assert len(_cache) >= 703
    # every property, not only the structural lemmas: the criteria above
    # each assert a subset, and a Totality failure hid behind that
    for (name, seed), (_, verdicts) in _cache.items():
        assert_all_pass(verdicts, checker.PROPERTIES, f"{name} seed {seed}")
    print(f"\nACCEPTANCE criterion-6 (structural lemmas and every other property"
          f" over {len(_cache)} traces): PASS")


def test_criterion_7_certificate_oracle():
    members = ["p1", "p2", "p3", "p4"]
    v0 = View.initial(members)
    payload = b"oracle payload"
    for scheme in ("hmac", "ed25519"):
        keyring = make_keyring(scheme)
        verifier = keyring.verifier()

        def cert_for(signers, signed_payload=payload, view=v0):
            sigs = {p: keyring.sign(p, ack_payload(signed_payload, view)) for p in signers}
            return build_certificate(view, sigs)

        # exhaustive subsets: accepted exactly at and above the quorum size
        for size in range(len(members) + 1):
            for subset in combinations(members, size):
                ok = verify_certificate(cert_for(subset), payload, verifier)
                assert ok == (len(subset) >= v0.quorum_size), (scheme, subset)
        # perturbation class 1: sub-quorum
        assert not verify_certificate(cert_for(("p1", "p2")), payload, verifier)
        # perturbation class 2: wrong payload under the signatures
        assert not verify_certificate(cert_for(("p1", "p2", "p3"),
                                               signed_payload=b"other"),
                                      payload, verifier)
        # perturbation class 3: non-member signer in the set
        assert not verify_certificate(cert_for(("p1", "p2", "px")), payload, verifier)
    print("\nACCEPTANCE criterion-7 (certificate oracle, both schemes): PASS")


def test_criterion_8_reruns_are_byte_identical():
    for name in ("join_during_broadcast", "silent_f", "equivocating_sender",
                 "equivocating_n7", "churn_burst", "leave_after_deliver"):
        sc = scenario(name)
        for seed in (0, 1, 2):
            first = simnet.run(sc, seed).to_jsonl()
            second = simnet.run(sc, seed).to_jsonl()
            assert first == second, f"{name} seed {seed} not reproducible"
    print("\nACCEPTANCE criterion-8 (byte-identical reruns): PASS")


def test_criterion_9_non_triviality_window():
    assert _cache, "behavioral criteria must populate the trace corpus first"
    for (name, seed), (trace, verdicts) in _cache.items():
        assert verdicts["NonTriviality"].status == checker.PASS, \
            f"{name} seed {seed}: {verdicts['NonTriviality']}"
        # belt and braces: re-derive the window check from raw events
        sc = scenario(name)
        byz = sc.byzantine()
        join_at = {p: 0 for p in sc.initial_members}
        leave_done = {}
        for e in trace.events:
            if e["actor"] in byz:
                continue
            if e["kind"] == "Invoke" and e["detail"] == "join":
                join_at.setdefault(e["actor"], e["step"])
            if e["kind"] == "Callback" and e["detail"] == "LeaveComplete":
                leave_done[e["actor"]] = e["step"]
        for e in trace.events:
            if e["kind"] != "Send" or e["actor"] in byz:
                continue
            p = e["actor"]
            assert p in join_at and e["step"] >= join_at[p], \
                f"{name} seed {seed}: {p} sent before joining (step {e['step']})"
            assert p not in leave_done or e["step"] <= leave_done[p], \
                f"{name} seed {seed}: {p} sent after leaving (step {e['step']})"
    print(f"\nACCEPTANCE criterion-9 (non-triviality over {len(_cache)} traces): PASS")
