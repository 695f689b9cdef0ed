"""CLI exit-code contract and output plumbing."""

import json
from pathlib import Path

from dbrb import cli, simnet

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"


def test_run_writes_trace_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    rc = cli.main(["run", "--scenario", str(SCENARIOS / "static4.json"),
                   "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert "deliveries=4" in printed


def test_run_accepts_bare_scenario_names(tmp_path, monkeypatch):
    monkeypatch.setenv("DBRB_SCENARIO_DIR", str(SCENARIOS))
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
         "msg_kind": None, "view_digest": None, "payload_digest": "aaaa",
         "detail": "broadcast", "views": None},
        {"step": 1, "t": 1, "kind": "Callback", "actor": "p2", "peer": None,
         "msg_kind": None, "view_digest": None, "payload_digest": "aaaa",
         "detail": "Delivered", "views": None},
        {"step": 2, "t": 2, "kind": "Callback", "actor": "p3", "peer": None,
         "msg_kind": None, "view_digest": None, "payload_digest": "bbbb",
         "detail": "Delivered", "views": None},
    ]
    trace = simnet.Trace({"schema": 2, "scenario": sc.name, "seed": 0},
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
    header["schema"] = 1
    out.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    rc = cli.main(["check", "--trace", str(out),
                   "--scenario", str(SCENARIOS / "static4.json")])
    assert rc == 2
    assert "trace schema 1, expected 2" in capsys.readouterr().err


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
