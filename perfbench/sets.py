#!/usr/bin/env python3
"""Run a set of benchmark runs, or compare two sets.

    python3 perfbench/sets.py run --runs 10 --trace 0 --out perfbench/out/set-a.json
    python3 perfbench/sets.py compare perfbench/out/set-a.json perfbench/out/set-b.json

`run` starts the command in BENCHMARK.json once per (workload, seed),
seeds 1..runs, with the file's run_seconds, and prints for every metric
its median and its spread: the distance between the first and third
quartile of the runs, as a share of the median.  A spread at or above a
third of the metric's bound is flagged.

`compare` prints how far each median of the second set moved from the
first, flags a move in the worse direction beyond the bound, and
requires the trace digests and deterministic counters of each
(workload, seed) to be identical in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMED_UNITS = {"s", "ms", "us", "MB"}
NOISY = {"tracing_overhead"}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def deterministic(name: str, unit: str) -> bool:
    return unit not in TIMED_UNITS and name not in NOISY


def run_set(args) -> int:
    spec = load_spec()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    results = []
    for workload in names:
        for seed in range(1, args.runs + 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
                return 1
            result = json.loads(lines[-1])
            report = next(json.loads(line[7:]) for line in lines if line.startswith("report "))
            results.append({"workload": workload, "seed": seed, "result": result,
                            "report": report})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps({"trace": args.trace, "runs": results}, indent=1))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    bad = 0
    for workload in names:
        rows = [r for r in results if r["workload"] == workload]
        bad += sum(not r["result"]["correct"] for r in rows)
        print(f"\n{workload}: {len(rows)} runs")
        for name in rows[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- spread >= bound/3" if spread < bound else "  <-- SPREAD > BOUND"
                bad += spread >= bound
            print(f"  {name:<34} median {med:<14.6g} spread {spread:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
    return 1 if bad else 0


def compare(args) -> int:
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [json.loads(Path(p).read_text())["runs"] for p in (args.first, args.second)]
    bad = 0
    keyed = [{(r["workload"], r["seed"]): r for r in s} for s in sets]
    for key in sorted(set(keyed[0]) & set(keyed[1])):
        a, b = keyed[0][key], keyed[1][key]
        if a["report"]["trace_digest"] != b["report"]["trace_digest"]:
            print(f"{key}: trace digest differs")
            bad += 1
        for name, m in a["result"]["metrics"].items():
            if deterministic(name, m["unit"]) and m["value"] != b["result"]["metrics"][name]["value"]:
                print(f"{key}: deterministic {name} differs: {m['value']} vs "
                      f"{b['result']['metrics'][name]['value']}")
                bad += 1
    for workload in sorted({w for w, _ in keyed[0]}):
        print(f"\n{workload}")
        rows = [[r for r in s if r["workload"] == workload] for s in sets]
        for name in rows[0][0]["result"]["metrics"]:
            med = [statistics.median(r["result"]["metrics"][name]["value"] for r in rs)
                   for rs in rows]
            move = (med[1] - med[0]) / med[0] if med[0] else 0.0
            worse = move if metrics[name]["better"] == "lower" else -move
            bound = metrics[name].get("bound")
            flag = "  <-- WORSE THAN BOUND" if bound is not None and worse > bound else ""
            bad += bool(flag)
            print(f"  {name:<34} {med[0]:<14.6g} -> {med[1]:<14.6g} {move:+8.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
    print("\nsame trace digests and counters in both sets" if not bad else f"\n{bad} problems")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--workloads", default="")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    return run_set(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
