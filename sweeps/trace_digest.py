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

Then comes one line per part, `trace <part> <sha256> frames <sha256>`,
with the same two digests over that part's runs alone.  A part is a
workload's `--seed 1..10` lists or a packaged scenario's seeds 0..299, so
a change that moves some traces on purpose shows which parts it kept
byte-identical.

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


def record_frames(sinks: list) -> None:
    """Feed the raw bytes of every send the simulator enqueues to each
    hash in `sinks`, as the list holds them at the time of the send."""
    enqueue = simnet._Run._enqueue_send

    def recorded(run, frm, to, raw, meta):
        framed = len(raw).to_bytes(4, "big") + raw
        for frames in sinks:
            frames.update(framed)
        enqueue(run, frm, to, raw, meta)

    simnet._Run._enqueue_send = recorded


def parts():
    """(part, scenario, [(benchmark list or None, seed)]) in digest order."""
    for w in WORKLOADS.values():
        yield w.name, w.scenario_obj(), [(b, s) for b in BENCH_SEEDS for s in w.seeds(b)]
    for path in sorted(Path(str(resources.files("dbrb") / "scenarios")).glob("*.json")):
        sc = simnet.Scenario.load(path)
        if sc.name == "churn_burst":
            sc = dataclasses.replace(sc, max_messages=CHURN_MAX_MESSAGES)
        yield sc.name, sc, [(None, s) for s in SCENARIO_SEEDS]


def main() -> int:
    digest, frames = hashlib.sha256(), hashlib.sha256()
    sinks = [frames]
    record_frames(sinks)
    failing, lines = [], []
    for name, sc, runs in parts():
        part_digest, part_frames = hashlib.sha256(), hashlib.sha256()
        sinks.append(part_frames)
        for bench_seed, seed in runs:
            trace = simnet.run(sc, seed)
            jsonl = trace.to_jsonl().encode()
            digest.update(jsonl)
            part_digest.update(jsonl)
            if bench_seed is None:
                continue
            bad = [v.prop for v in checker.check(trace, sc) if v.status != checker.PASS]
            if trace.truncated:
                bad.append("truncated")
            if bad:
                failing.append(f"{name} --seed {bench_seed}: seed {seed} {', '.join(bad)}")
        sinks.pop()
        lines.append(f"trace {name} {part_digest.hexdigest()} frames {part_frames.hexdigest()}")
    print(digest.hexdigest())
    print("frames", frames.hexdigest())
    for line in lines + [f"FAILING {f}" for f in failing]:
        print(line)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
