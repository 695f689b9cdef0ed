"""CLI exit-code contract and output plumbing."""

import json
from pathlib import Path

import pytest

from dbrb import checker, cli, simnet

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"


def test_run_writes_trace_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    rc = cli.main(["run", "--scenario", str(SCENARIOS / "static4.json"),
                   "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "deliveries=4" in printed


def test_run_accepts_bare_scenario_names(tmp_path):
    rc = cli.main(["run", "--scenario", "static4", "--seed", "0",
                   "--out", str(tmp_path / "t.jsonl")])
    assert rc == 0


def test_run_truncation_exits_three(tmp_path):
    rc = cli.main(["run", "--scenario", str(SCENARIOS / "static4.json"),
                   "--seed", "1", "--max-steps", "2",
                   "--out", str(tmp_path / "t.jsonl")])
    assert rc == 3


def test_run_invalid_scenario_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x"}))
    assert cli.main(["run", "--scenario", str(bad), "--seed", "0"]) == 2
    assert cli.main(["run", "--scenario", str(tmp_path / "missing.json"),
                     "--seed", "0"]) == 2


def test_run_rejects_an_over_long_process_id(tmp_path, capsys):
    # an id the wire cannot frame is a scenario error, not a failed property
    data = json.loads((SCENARIOS / "static4.json").read_text())
    long_pid = "p" * 300
    data["universe"][3] = data["initial_members"][3] = long_pid
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--scenario", str(path), "--seed", "0",
                     "--out", str(tmp_path / "t.jsonl")]) == 2
    assert "process id over 255 bytes" in capsys.readouterr().err
    data["universe"][3] = data["initial_members"][3] = "p" * 255
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--scenario", str(path), "--seed", "0",
                     "--out", str(tmp_path / "t.jsonl")]) == 0


@pytest.mark.parametrize("strategy", ["forge_certificate", "replay_stale_view"])
def test_run_rejects_a_period_below_one(tmp_path, capsys, strategy):
    data = json.loads((SCENARIOS / "static4.json").read_text())
    data["roles"] = {"p4": {"strategy": strategy, "params": {"period": 0}}}
    path = tmp_path / "period.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--scenario", str(path), "--seed", "0",
                     "--out", str(tmp_path / "t.jsonl")]) == cli.EXIT_USAGE
    assert "error: period must be at least 1, not 0" in capsys.readouterr().err


def test_run_rejects_repeated_initial_members(tmp_path, capsys):
    # n would be counted from the list, not the view, in the f-bound tag
    data = json.loads((SCENARIOS / "static4.json").read_text())
    data["initial_members"].append(data["initial_members"][0])
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--scenario", str(path), "--seed", "0",
                     "--out", str(tmp_path / "t.jsonl")]) == cli.EXIT_USAGE
    assert "duplicate initial members" in capsys.readouterr().err


def test_usage_error_exits_two():
    assert cli.main(["run"]) == 2
    assert cli.main(["frobnicate"]) == 2


def test_check_clean_trace_exits_zero(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    cli.main(["run", "--scenario", str(SCENARIOS / "static4.json"),
              "--seed", "1", "--out", str(out)])
    rc = cli.main(["check", "--trace", str(out),
                   "--scenario", str(SCENARIOS / "static4.json")])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "Consistency" in printed and "Pass" in printed


def test_check_violating_trace_exits_one(tmp_path, capsys):
    sc = simnet.Scenario.load(SCENARIOS / "static4.json")
    rows = [
        {"step": 0, "t": 0, "kind": "Invoke", "actor": "p1", "peer": None,
         "msg_kind": None, "view": None, "payload_digest": "aaaa",
         "detail": "broadcast", "views": None},
        {"step": 1, "t": 1, "kind": "Callback", "actor": "p2", "peer": None,
         "msg_kind": None, "view": None, "payload_digest": "aaaa",
         "detail": "Delivered", "views": None},
        {"step": 2, "t": 2, "kind": "Callback", "actor": "p3", "peer": None,
         "msg_kind": None, "view": None, "payload_digest": "bbbb",
         "detail": "Delivered", "views": None},
    ]
    trace = simnet.Trace({"schema": simnet.TRACE_SCHEMA, "scenario": sc.name, "seed": 0},
                         rows, {"truncated": False})
    path = tmp_path / "bad.jsonl"
    trace.write(path)
    rc = cli.main(["check", "--trace", str(path),
                   "--scenario", str(SCENARIOS / "static4.json")])
    assert rc == 1
    assert "Consistency" in capsys.readouterr().out


def test_check_rejects_another_trace_schema(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    cli.main(["run", "--scenario", str(SCENARIOS / "static4.json"),
              "--seed", "1", "--out", str(out)])
    lines = out.read_text().splitlines()
    header = json.loads(lines[0])
    header["schema"] = 2
    out.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    rc = cli.main(["check", "--trace", str(out),
                   "--scenario", str(SCENARIOS / "static4.json")])
    assert rc == 2
    assert "trace schema 2, expected 3" in capsys.readouterr().err


def test_check_truncated_trace_exits_three(tmp_path):
    out = tmp_path / "trace.jsonl"
    cli.main(["run", "--scenario", str(SCENARIOS / "static4.json"),
              "--seed", "1", "--max-steps", "2", "--out", str(out)])
    rc = cli.main(["check", "--trace", str(out),
                   "--scenario", str(SCENARIOS / "static4.json")])
    assert rc == 3


def test_sweep_aggregates_and_exits_zero(capsys):
    rc = cli.main(["sweep", "--scenario", str(SCENARIOS / "static4.json"),
                   "--seeds", "0..4"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "Validity" in printed
    assert " 5 " in printed or "     5" in printed


def test_sweep_prints_messages_per_run(capsys):
    # a static4 run sends 40 messages whatever the seed
    assert cli.main(["sweep", "--scenario", str(SCENARIOS / "static4.json"),
                     "--seeds", "0..2"]) == 0
    assert "messages per run: min 40  median 40  max 40" in capsys.readouterr().out.splitlines()


def test_sweep_of_truncated_runs_exits_three(tmp_path, capsys):
    scenario = json.loads((SCENARIOS / "static4.json").read_text())
    scenario["limits"]["max_steps"] = 2
    path = tmp_path / "static4_truncated.json"
    path.write_text(json.dumps(scenario))
    rc = cli.main(["sweep", "--scenario", str(path), "--seeds", "0..2"])
    assert rc == 3
    printed = capsys.readouterr().out
    assert "inconclusive seeds: [0, 1, 2]" in printed
    assert "failing seeds" not in printed


def test_sweep_reports_failing_seeds_per_property(monkeypatch, capsys):
    def verdicts_of(packed):
        _, seed = packed
        verdicts = dict.fromkeys(checker.PROPERTIES, checker.PASS)
        if seed == 1:
            verdicts["Totality"] = checker.FAIL
        if seed in (1, 2):
            verdicts["Liveness"] = checker.INCONCLUSIVE
        return seed, list(verdicts.items()), 10 * seed

    monkeypatch.setattr(cli, "_sweep_one", verdicts_of)
    rc = cli.main(["sweep", "--scenario", str(SCENARIOS / "static4.json"), "--seeds", "0..3"])
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-4:] == ["messages per run: min 0  median 15  max 30",
                          "Totality: Fail [1]", "Liveness: Inconclusive [1, 2]",
                          "failing seeds: [1]"]
