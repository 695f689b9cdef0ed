"""One sha256 over many traces, and one over the frames they send, to show
that a change keeps every trace and every frame.

    python sweeps/trace_digest.py

The first line is the trace digest.  It covers, in this order, the traces
of the benchmark's seed lists for `--seed 1..10` of each workload in
`perfbench/workloads.py` (its scenario, overrides and seeds), then seeds
0..299 of every packaged scenario, with `churn_burst` capped at 30,000
messages as the `churn` workload caps it.  The second line, `frames
<sha256>`, covers the raw bytes of every send of those runs, in order,
each with its length: a trace records what a send carries, not its
bytes.  Run it before and after a change that must not alter behaviour:
equal lines mean byte-identical traces and frames.

The benchmark counts a run of its lists that is truncated or fails a
verdict as a failure, so the tool lists each such run and then exits 1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from dbrb import checker, simnet  # noqa: E402
from workloads import CHURN_MAX_MESSAGES, WORKLOADS  # noqa: E402

BENCH_SEEDS = range(1, 11)
SCENARIO_SEEDS = range(300)


def record_frames(frames) -> None:
    """Feed the raw bytes of every send the simulator enqueues to `frames`."""
    enqueue = simnet._Run._enqueue_send

    def recorded(run, frm, to, raw, meta):
        frames.update(len(raw).to_bytes(4, "big") + raw)
        enqueue(run, frm, to, raw, meta)

    simnet._Run._enqueue_send = recorded


def main() -> int:
    digest, frames = hashlib.sha256(), hashlib.sha256()
    record_frames(frames)
    failing = []
    for w in WORKLOADS.values():
        sc = w.scenario_obj()
        for bench_seed in BENCH_SEEDS:
            for seed in w.seeds(bench_seed):
                trace = simnet.run(sc, seed)
                digest.update(trace.to_jsonl().encode())
                bad = [v.prop for v in checker.check(trace, sc) if v.status != checker.PASS]
                if trace.truncated:
                    bad.append("truncated")
                if bad:
                    failing.append(f"{w.name} --seed {bench_seed}: seed {seed} {', '.join(bad)}")
    for path in sorted(Path(str(resources.files("dbrb") / "scenarios")).glob("*.json")):
        sc = simnet.Scenario.load(path)
        if sc.name == "churn_burst":
            sc = dataclasses.replace(sc, max_messages=CHURN_MAX_MESSAGES)
        for seed in SCENARIO_SEEDS:
            digest.update(simnet.run(sc, seed).to_jsonl().encode())
    print(digest.hexdigest())
    print("frames", frames.hexdigest())
    for line in failing:
        print("FAILING", line)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
