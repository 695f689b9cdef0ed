"""Batch operator surface: run scenarios, check traces, sweep seeds."""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

from . import checker, simnet

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

_STATUSES = (checker.PASS, checker.FAIL, checker.INCONCLUSIVE)


def _resolve_scenario(arg: str) -> Path:
    p = Path(arg)
    if p.exists():
        return p
    candidates = []
    env_dir = os.environ.get("DBRB_SCENARIO_DIR")
    if env_dir:
        candidates.append(Path(env_dir) / f"{arg}.json")
        candidates.append(Path(env_dir) / arg)
    packaged = resources.files("dbrb") / "scenarios" / f"{arg}.json"
    candidates.append(Path(str(packaged)))
    for c in candidates:
        if c.exists():
            return c
    raise simnet.ScenarioError(f"scenario not found: {arg}")


def _load_scenario(arg: str) -> simnet.Scenario:
    return simnet.Scenario.load(_resolve_scenario(arg))


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    if args.max_steps is not None:
        scenario.max_steps = args.max_steps
    trace = simnet.run(scenario, args.seed)
    if args.out:
        trace.write(args.out)
    f = trace.footer
    print(f"scenario={scenario.name} seed={args.seed} regime: {scenario.regime()}")
    print(f"deliveries={f['deliveries']} installs={f['installs']} "
          f"messages={f['messages']} events={f['events']} final_t={f['final_t']}")
    if trace.truncated:
        print("run TRUNCATED: limits reached before quiescence")
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    trace = simnet.Trace.read(args.trace)
    verdicts = checker.check(trace, scenario)
    _print_verdicts(verdicts)
    return checker.exit_code(verdicts)


def _print_verdicts(verdicts) -> None:
    width = max(len(v.prop) for v in verdicts)
    for v in verdicts:
        line = f"{v.prop:<{width}}  {v.status}"
        if v.detail:
            line += f"  {v.detail}"
        if v.evidence:
            line += f"  (evidence steps: {v.evidence})"
        print(line)


def _sweep_one(packed: tuple[str, int]) -> tuple[int, list[tuple[str, str]], int]:
    """seed -> (seed, (property, status) of each verdict, messages sent)"""
    path, seed = packed
    scenario = simnet.Scenario.load(path)
    trace = simnet.run(scenario, seed)
    verdicts = checker.check(trace, scenario)
    return seed, [(v.prop, v.status) for v in verdicts], trace.footer["messages"]


def _parse_seed_range(spec: str) -> list[int]:
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(spec)]


def cmd_sweep(args: argparse.Namespace) -> int:
    path = _resolve_scenario(args.scenario)
    scenario = simnet.Scenario.load(path)
    seeds = _parse_seed_range(args.seeds)
    if not seeds:
        raise simnet.ScenarioError("empty seed range")
    jobs = [(str(path), s) for s in seeds]
    if args.parallel:
        with ProcessPoolExecutor() as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(j) for j in jobs]
    results.sort()
    seeds_of = {(p, st): [] for p in checker.PROPERTIES for st in _STATUSES}
    for seed, verdicts, _ in results:
        for prop, status in verdicts:
            seeds_of[prop, status].append(seed)
    print(f"scenario={scenario.name} seeds={seeds[0]}..{seeds[-1]} "
          f"regime: {scenario.regime()}")
    width = max(len(p) for p in checker.PROPERTIES)
    print(f"{'property':<{width}}  {'Pass':>6} {'Fail':>6} {'Inconcl':>8}")
    for prop in checker.PROPERTIES:
        n = [len(seeds_of[prop, st]) for st in _STATUSES]
        print(f"{prop:<{width}}  {n[0]:>6} {n[1]:>6} {n[2]:>8}")
    messages = [m for _, _, m in results]
    print(f"messages per run: min {min(messages)}  median {statistics.median(messages):g}  "
          f"max {max(messages)}")
    for prop in checker.PROPERTIES:
        bad = [f"{st} {seeds_of[prop, st]}" for st in _STATUSES[1:] if seeds_of[prop, st]]
        if bad:
            print(f"{prop}: {'  '.join(bad)}")
    failing = sorted({s for p in checker.PROPERTIES for s in seeds_of[p, checker.FAIL]})
    inconclusive = sorted({s for p in checker.PROPERTIES
                           for s in seeds_of[p, checker.INCONCLUSIVE]})
    if failing:
        print(f"failing seeds: {failing}")
        return EXIT_FAIL
    if inconclusive:
        print(f"inconclusive seeds: {inconclusive}")
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dbrb",
        description="Run, check, and sweep dynamic reliable broadcast scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario and write its trace")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--max-steps", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="verify a finished trace")
    p_check.add_argument("--trace", required=True)
    p_check.add_argument("--scenario", required=True)
    p_check.set_defaults(func=cmd_check)

    p_sweep = sub.add_parser("sweep", help="run and check a range of seeds")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--seeds", required=True, help="range like 0..99")
    p_sweep.add_argument("--parallel", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (simnet.ScenarioError, checker.MalformedTrace, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
