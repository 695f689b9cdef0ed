"""Simulator semantics: reliability, determinism, truncation, validation."""

from pathlib import Path

import pytest

from dbrb import simnet

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"


def static_scenario(**overrides):
    base = {
        "name": "t-static",
        "universe": ["p1", "p2", "p3", "p4"],
        "initial_members": ["p1", "p2", "p3", "p4"],
        "sender": "p1",
        "script": [{"trigger": {"at_step": 0},
                    "action": {"kind": "broadcast", "process": "p1", "payload": "x"}}],
        "network": {"max_delay_steps": 3, "reorder": True},
        "limits": {"max_steps": 10000, "max_messages": 100000},
    }
    base.update(overrides)
    return simnet.Scenario.from_dict(base)


def test_every_send_is_eventually_received():
    trace = simnet.run(static_scenario(), seed=3)
    assert not trace.truncated
    sends = sum(1 for e in trace.events if e["kind"] == "Send")
    receives = sum(1 for e in trace.events if e["kind"] == "Receive")
    drops = sum(1 for e in trace.events
                if e["kind"] == "Drop" and e["detail"] == "recipient halted")
    assert sends == receives + drops


def test_receive_pairs_with_prior_send():
    trace = simnet.run(static_scenario(), seed=5)
    open_sends = {}
    for e in trace.events:
        key = (e["actor"], e["peer"], e["msg_kind"])
        if e["kind"] == "Send":
            open_sends[(e["peer"], e["actor"], e["msg_kind"])] = \
                open_sends.get((e["peer"], e["actor"], e["msg_kind"]), 0) + 1
        elif e["kind"] == "Receive":
            assert open_sends.get(key, 0) > 0, f"receive without send: {e}"
            open_sends[key] -= 1


def test_steps_strictly_increase():
    trace = simnet.run(static_scenario(), seed=1)
    steps = [e["step"] for e in trace.events]
    assert steps == list(range(len(steps)))


def test_same_seed_byte_identical():
    sc = static_scenario()
    assert simnet.run(sc, 11).to_jsonl() == simnet.run(sc, 11).to_jsonl()


def test_different_seeds_reorder():
    sc = static_scenario()
    assert simnet.run(sc, 1).to_jsonl() != simnet.run(sc, 2).to_jsonl()


def test_truncation_marks_trace():
    sc = static_scenario(limits={"max_steps": 2, "max_messages": 100000})
    trace = simnet.run(sc, seed=0)
    assert trace.truncated
    assert trace.footer["truncated"] is True


def test_trace_file_round_trip(tmp_path):
    trace = simnet.run(static_scenario(), seed=0)
    path = tmp_path / "t.jsonl"
    trace.write(path)
    loaded = simnet.Trace.read(path)
    assert loaded.header == trace.header
    assert loaded.events == trace.events
    assert loaded.footer == trace.footer


def test_scenario_validation_errors():
    with pytest.raises(simnet.ScenarioError):
        static_scenario(sender="nobody")
    with pytest.raises(simnet.ScenarioError):
        static_scenario(initial_members=["p1", "zz"])
    with pytest.raises(simnet.ScenarioError):
        static_scenario(script=[{"trigger": {}, "action": {"kind": "broadcast",
                                                           "process": "p1"}}])
    with pytest.raises(simnet.ScenarioError):
        static_scenario(roles={"p9": {"strategy": "silent"}})
    with pytest.raises(simnet.ScenarioError):
        static_scenario(crypto="rot13")


def test_regime_reporting():
    sc = static_scenario(roles={"p2": {"strategy": "silent"}})
    assert "within" in sc.regime()
    sc2 = static_scenario(roles={"p2": {"strategy": "silent"},
                                 "p3": {"strategy": "silent"}})
    assert "EXCEEDS" in sc2.regime()


def test_after_first_deliver_trigger_fires_once():
    sc = static_scenario(
        universe=["p1", "p2", "p3", "p4", "p5"],
        initial_members=["p1", "p2", "p3", "p4", "p5"],
        script=[
            {"trigger": {"at_step": 0},
             "action": {"kind": "broadcast", "process": "p1", "payload": "x"}},
            {"trigger": {"after_first_deliver": True},
             "action": {"kind": "leave", "process": "p2"}},
        ])
    trace = simnet.run(sc, seed=4)
    invokes = [e for e in trace.events if e["kind"] == "Invoke" and e["detail"] == "leave"]
    assert len(invokes) == 1
    first_deliver = next(e["step"] for e in trace.events
                         if e["kind"] == "Callback" and e["detail"] == "Delivered")
    assert invokes[0]["step"] > first_deliver


def test_engines_share_no_verifier():
    sc = simnet.Scenario.load(SCENARIO_DIR / "equivocating_n7.json")
    run = simnet._Run(sc, seed=0)
    assert sc.roles  # adversaries get their own verifier too
    verifiers = [engine.verifier for engine in run.engines.values()]
    assert len({id(v) for v in verifiers}) == len(verifiers) == len(sc.universe)
    # key material stays shared
    assert {id(v._keyring) for v in verifiers} == {id(run.keyring)}
