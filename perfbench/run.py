#!/usr/bin/env python3
"""dbrb benchmark: closed-loop seed sweeps of one workload, checked run by run.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 35 --trace 0

One process and no extra threads (the set-up probes aside).  An untimed
reference pass runs every seed of the workload's list once and records
its trace hash and deterministic counts.  Then a sweep runs
`simnet.run` and `checker.check` on every seed of the list, one after
the other, and sweeps repeat until `--seconds` have passed.  Every run
must pass every checker property, must not be truncated, and must
produce the same trace bytes (sha256 of `to_jsonl()`) as the reference
run of its seed.

`--trace 0` reports the end-to-end metrics, timed with no wrapper
installed and scaled to the host's reference speed (`HostSpeed`).  `--trace 1` alternates untraced and traced sweeps over the
first seeds of the list and reports the per-layer metrics; the spans of
the last traced sweep are written to `perfbench/out/`.  The last line of
standard output is one JSON object; the lines before it are for people,
except the one starting with `report `, which holds the deterministic
counters and the trace digest in JSON for comparing sets of runs.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from importlib import metadata
from math import ceil
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 11
REFERENCE_KERNEL_S = 0.5e-3   # about host_kernel's time back to back on the baseline machine
CALIBRATE_EVERY = 0.05        # s; the kernel is timed at most this often
CALIBRATION_WINDOW = 1.5      # s either side of a run whose kernel times rate it
TAIL_BEYOND = 10          # samples the reported tail percentile leaves above it
CALLBACK_OPS = {"Delivered": "deliver", "JoinComplete": "join", "LeaveComplete": "leave"}

END_TO_END_UNITS = {
    "sweep_s": "s", "us_per_msg": "us", "run_ms_p50": "ms", "run_ms_tail": "ms",
    "setup_s": "s", "peak_rss_mb": "MB", "msgs_per_run": "count",
    "wire_kb_per_run": "KiB", "op_steps_p50": "steps",
}


def import_dbrb():
    """Import dbrb from this checkout's sources and nowhere else."""
    pkg = SRC / "dbrb" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"perfbench: no dbrb sources at {pkg.parent}")
    sys.path.insert(0, str(SRC))
    import dbrb
    from dbrb import adversary, checker, engine, messages, simnet  # noqa: F401

    if Path(dbrb.__file__).resolve() != pkg.resolve():
        raise SystemExit(f"perfbench: imported dbrb from {dbrb.__file__}, not {pkg}")
    return dbrb


def environment() -> dict:
    commit = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        ref = ROOT / ".git" / head[5:] if head.startswith("ref: ") else None
        commit = ref.read_text().strip() if ref else head
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
    }


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(1, ceil(p * len(xs) / 100)) - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n samples above it."""
    return max(0, (100 * (n - TAIL_BEYOND)) // n)


def passed(dbrb, trace, verdicts) -> bool:
    return not trace.truncated and all(v.status == dbrb.checker.PASS for v in verdicts)


# -- sweeps -------------------------------------------------------------------


class WireCounter:
    """Adds up the bytes of the messages every engine's `step` hands to simnet.

    A Flood counts once per recipient, as simnet sends it.  Installed for
    the untimed reference pass only.
    """

    def __init__(self, dbrb, sc) -> None:
        self.bytes = 0
        self._dbrb = dbrb
        self._fanout = len(sc.universe) - 1

    def install(self) -> tracing.Patches:
        dbrb = self._dbrb
        owners = [dbrb.engine.Node] + [getattr(dbrb.adversary, name)
                                       for name in tracing._adversary_classes()]
        patches = tracing.Patches()
        for owner in owners:
            patches.replace(owner, "step", self._wrap(vars(owner)["step"]))
        return patches

    def _wrap(self, step):
        Send, Flood = self._dbrb.engine.Send, self._dbrb.engine.Flood
        fanout = self._fanout

        def counted(node, event):
            actions = step(node, event)
            for a in actions:
                if isinstance(a, Send):
                    self.bytes += len(a.raw)
                elif isinstance(a, Flood):
                    self.bytes += len(a.raw) * fanout
            return actions
        return counted


def operation_latencies(trace, correct: set[str]) -> dict[str, list[int]]:
    """Simulated steps from each Invoke to the matching callbacks of correct nodes."""
    invoked: dict[tuple[str, str], int] = {}
    out: dict[str, list[int]] = {"deliver": [], "join": [], "leave": []}
    for e in trace.events:
        if e["kind"] == "Invoke":
            actor = "*" if e["detail"] == "broadcast" else e["actor"]
            invoked.setdefault((actor, e["detail"]), e["t"])
        elif e["kind"] == "Callback" and e["actor"] in correct:
            op = CALLBACK_OPS.get(e["detail"])
            key = ("*", "broadcast") if op == "deliver" else (e["actor"], op)
            if op is not None and key in invoked:
                out[op].append(e["t"] - invoked[key])
    return out


@dataclass
class Reference:
    """Deterministic facts of a seed list, taken from the reference pass.

    Every timed run of a seed must reproduce the reference run's trace hash.
    """

    seeds: list[int]
    correct: set[str]
    hashes: dict[int, str] = field(default_factory=dict)
    messages: int = 0
    wire_bytes: int = 0
    kinds: Counter = field(default_factory=Counter)
    events: int = 0
    trace_bytes: int = 0
    latencies: dict[str, list[int]] = field(
        default_factory=lambda: {"deliver": [], "join": [], "leave": []})

    def add(self, seed: int, trace, text: bytes, wire_bytes: int) -> None:
        self.hashes[seed] = hashlib.sha256(text).hexdigest()
        self.messages += trace.footer["messages"]
        self.wire_bytes += wire_bytes
        self.kinds.update(e["msg_kind"] for e in trace.events if e["kind"] == "Send")
        self.events += len(trace.events)
        self.trace_bytes += len(text)
        for op, steps in operation_latencies(trace, self.correct).items():
            self.latencies[op] += steps

    @property
    def digest(self) -> str:
        blob = "".join(f"{s}:{self.hashes[s]}\n" for s in self.seeds)
        return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Sweep:
    run_at: list[float]         # perf_counter at the start of each seed's run
    run_s: list[float]          # run plus check, per seed
    sim_s: list[float]          # run only, per seed
    wall_s: float               # the whole sweep, checking and hashing included
    failed: int

    @property
    def total_s(self) -> float:
        return sum(self.run_s)


def reference_pass(dbrb, sc, seeds: list[int]) -> tuple[Reference, int]:
    """Run and check every seed once, untimed, counting bytes; also the warm-up.

    Returns the reference and the number of runs that failed.
    """
    ref = Reference(seeds, set(sc.universe) - sc.byzantine())
    wire = WireCounter(dbrb, sc)
    failed = 0
    with wire.install():
        for seed in seeds:
            sent_bytes = wire.bytes
            trace = dbrb.simnet.run(sc, seed)
            verdicts = dbrb.checker.check(trace, sc)
            ref.add(seed, trace, trace.to_jsonl().encode(), wire.bytes - sent_bytes)
            failed += not passed(dbrb, trace, verdicts)
    return ref, failed


def sweep(dbrb, sc, ref: Reference, before_run=None) -> Sweep:
    """Run and check every seed once, each against its reference hash.

    `before_run` is called before each run, outside its timed interval.
    """
    simnet, checker = dbrb.simnet, dbrb.checker
    clock = time.perf_counter
    gc.collect()
    start = clock()
    run_at, run_s, sim_s, failed = [], [], [], 0
    for seed in ref.seeds:
        if before_run is not None:
            before_run()
        t0 = clock()
        trace = simnet.run(sc, seed)
        t1 = clock()
        verdicts = checker.check(trace, sc)
        t2 = clock()
        run_at.append(t0)
        run_s.append(t2 - t0)
        sim_s.append(t1 - t0)
        same = hashlib.sha256(trace.to_jsonl().encode()).hexdigest() == ref.hashes[seed]
        failed += not (passed(dbrb, trace, verdicts) and same)
    return Sweep(run_at, run_s, sim_s, clock() - start, failed)


def keep_sweeping(started: float, seconds: float, last: float) -> bool:
    """Stop at the sweep boundary nearest to the end of the window."""
    return time.perf_counter() - started + last / 2 < seconds


def host_kernel() -> int:
    """Fixed pure-Python work that touches nothing of dbrb."""
    s = 0
    for i in range(8000):
        s += i * i % 7
    return s


class HostSpeed:
    """How fast the host ran near each moment of the sweeps.

    The host's speed drifts by up to a third over minutes, for reasons
    outside the process, so raw times of runs minutes apart differ by
    more than the changes worth finding.  Between runs, at most every
    CALIBRATE_EVERY seconds, `host_kernel` is timed.  A run's time is
    scaled by REFERENCE_KERNEL_S over the median kernel time within
    CALIBRATION_WINDOW seconds of the run: the time the run would have
    taken with the host at its reference speed.  The kernel belongs to
    the benchmark, so a change to dbrb moves scaled times as it moves
    raw ones.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._last = float("-inf")

    def between_runs(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY:
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        host_kernel()
        self._last = time.perf_counter()
        self.at.append(t0)
        self.took.append(self._last - t0)

    def scale(self, t: float) -> float:
        lo = bisect.bisect_left(self.at, t - CALIBRATION_WINDOW)
        hi = bisect.bisect_right(self.at, t + CALIBRATION_WINDOW)
        near = self.took[lo:hi] or [self.took[min(lo, len(self.took) - 1)]]
        return REFERENCE_KERNEL_S / statistics.median(near)


class SetupProbes:
    """Cold set-ups (`setup_probe.py`) spread evenly over the sweeping window.

    Taken between runs of the sweeps, outside their timed intervals, and
    scaled like the runs to the host's reference speed, with kernel
    times taken right before and after each probe.
    """

    def __init__(self, workload: str, seconds: float, speed: HostSpeed) -> None:
        self.workload = workload
        self.every = seconds / SETUP_PROBES
        self.due = time.perf_counter()
        self.speed = speed
        self.raw: list[float] = []
        self.samples: list[float] = []

    def between_runs(self) -> None:
        if len(self.samples) < SETUP_PROBES and time.perf_counter() >= self.due:
            self.take()
            self.due += self.every

    def take(self) -> None:
        self.speed.sample()
        at = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), self.workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        self.speed.sample()
        self.raw.append(float(done.stdout.strip().splitlines()[-1]))
        self.samples.append(self.raw[-1] * self.speed.scale(at))

    def finish(self) -> list[float]:
        """Take the probes a short window left out; return all samples."""
        while len(self.samples) < SETUP_PROBES:
            self.take()
        return self.samples


# -- reporting ------------------------------------------------------------------


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, seed: int, seconds: float, dbrb) -> tuple[dict, list[str]]:
    seeds = workload.seeds(seed)
    sc = workload.scenario_obj()
    ref, ref_failed = reference_pass(dbrb, sc, seeds)
    speed = HostSpeed()
    probes = SetupProbes(workload.name, seconds, speed)

    def between_runs():
        probes.between_runs()
        speed.between_runs()

    sweeps: list[Sweep] = []
    started = time.perf_counter()
    while not sweeps or keep_sweeping(started, seconds, sweeps[-1].wall_s):
        sweeps.append(sweep(dbrb, sc, ref, before_run=between_runs))
    setup = probes.finish()

    # Each seed's time at the host's reference speed, median over the sweeps.
    n = len(seeds)
    per_seed = [statistics.median(s.run_s[i] * speed.scale(s.run_at[i]) for s in sweeps)
                for i in range(n)]
    sim_per_seed = [statistics.median(s.sim_s[i] * speed.scale(s.run_at[i]) for s in sweeps)
                    for i in range(n)]
    tail_p = tail_percentile(n)
    lat = ref.latencies
    ops = lat["deliver"] + lat["join"] + lat["leave"]
    values = {
        "sweep_s": sum(per_seed),
        "us_per_msg": sum(sim_per_seed) / ref.messages * 1e6,
        "run_ms_p50": statistics.median(per_seed) * 1e3,
        "run_ms_tail": percentile(per_seed, tail_p) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "msgs_per_run": ref.messages / n,
        "wire_kb_per_run": ref.wire_bytes / n / 1024,
        "op_steps_p50": statistics.median(ops) if ops else 0.0,
    }
    metrics = {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}
    attempted = n + sum(len(s.run_s) for s in sweeps)
    failed = ref_failed + sum(s.failed for s in sweeps)
    reconfig = lat["join"] + lat["leave"]
    report = {
        "sweeps": len(sweeps),
        "tail": f"p{tail_p} of {n} seeds (per-seed median over {len(sweeps)} sweeps)",
        "raw_sweep_s": statistics.median(s.total_s for s in sweeps),
        "host_kernel_ms": statistics.median(speed.took) * 1e3,
        "host_kernel_samples": len(speed.took),
        "setup_samples": setup,
        "setup_raw_samples": probes.raw,
        "fail_ratio": failed / attempted,
        "deliver_steps_p50": statistics.median(lat["deliver"]) if lat["deliver"] else None,
        "reconfig_steps_p50": statistics.median(reconfig) if reconfig else None,
        "msgs": dict(sorted(ref.kinds.items())),
        "wire_bytes": ref.wire_bytes,
    }
    lines = [
        f"sweeps {len(sweeps)} of {n} runs; run_ms_tail is {report['tail']}",
        f"raw sweep_s {report['raw_sweep_s']:.4f} s (median over sweeps, unscaled); "
        f"host_kernel median {report['host_kernel_ms']:.4f} ms of "
        f"{report['host_kernel_samples']}, reference {REFERENCE_KERNEL_S * 1e3:g} ms",
        f"setup_s samples {' '.join(f'{t:.4f}' for t in setup)} "
        f"(unscaled {' '.join(f'{t:.4f}' for t in probes.raw)})",
        f"fail_ratio {failed}/{attempted}",
        "deliver_steps_p50 " + _or_na(report["deliver_steps_p50"], "no broadcast delivered"),
        "reconfig_steps_p50 " + _or_na(report["reconfig_steps_p50"], "no join or leave"),
    ]
    return {"ref": ref, "attempted": attempted, "failed": failed, "metrics": metrics,
            "report": report}, lines


def _or_na(value, why: str) -> str:
    return "n/a (" + why + ")" if value is None else f"{value} steps"


def per_layer(summary: tracing.Summary, runs: int, ref: Reference, kinds: list[str],
              overhead: float) -> dict[str, dict]:
    """Per-run layer metrics; a metric whose hook was not found is left out."""
    spans = summary.spans
    out: dict[str, dict] = {}

    def put(name, value, unit):
        if value is not None:
            out[name] = metric(value, unit)

    def calls(span):
        return spans[span].calls / runs if span in spans else None

    def self_us(span):
        return spans[span].self_ns / 1e3 / runs if span in spans else None

    def total_us(span):
        return spans[span].total_ns / 1e3 / runs if span in spans else None

    def scans_us(group):
        found = [st.self_ns for name, st in spans.items() if name.startswith(group + ".scan:")]
        return sum(found) / 1e3 / runs if found else None

    def ratio(num, den):
        return num / den if den else 0.0

    for span in ("codec.decode", "codec.encode", "codec.reencode", "crypto.sign",
                 "crypto.verify"):
        put(f"{span}_calls", calls(span), "count")
        put(f"{span}_us", self_us(span), "us")
    per_run = len(ref.seeds)
    verifies = spans["crypto.verify"].calls
    put("crypto.verifies_per_msg", ratio(verifies, ref.messages * runs / per_run), "ratio")
    put("crypto.cert_verify_calls", calls("crypto.cert_verify"), "count")
    put("crypto.cert_verify_us", total_us("crypto.cert_verify"), "us")
    put("crypto.unique_verify_ratio", ratio(summary.verify_distinct, verifies), "ratio")
    put("discovery.history_verify_calls", calls("discovery.history_verify"), "count")
    put("discovery.history_verify_us", total_us("discovery.history_verify"), "us")
    put("discovery.history_links_checked", summary.links_checked / runs, "count")
    put("discovery.install_proof_calls", calls("discovery.install_proof"), "count")
    put("discovery.install_proof_us", total_us("discovery.install_proof"), "us")
    for group in ("membership", "broadcast", "rmulticast", "discovery"):
        put(f"{group}.scan_us", scans_us(group), "us")
    for kind in kinds:
        put(f"msgs.{kind}", ref.kinds.get(kind, 0) / per_run, "count")
    steps = spans["engine.step"].calls
    step_us = [ns / 1e3 for ns in summary.step_ns]
    put("engine.step_calls", calls("engine.step"), "count")
    put("engine.step_us", self_us("engine.step"), "us")
    put("engine.step_us_p50", percentile(step_us, 50) if step_us else 0.0, "us")
    put("engine.step_us_p99", percentile(step_us, 99) if step_us else 0.0, "us")
    put("engine.repoll_us", total_us("engine.repoll"), "us")
    scan_hooks = sum(1 for name in spans if ".scan:" in name)
    if "engine.repoll" in spans and scan_hooks:
        put("engine.repoll_iters_per_step",
            ratio(summary.repoll_scans / scan_hooks, steps), "ratio")
    put("engine.actions_per_step", ratio(summary.actions, steps), "ratio")
    put("adversary.step_calls", calls("adversary.step"), "count")
    put("adversary.step_us", self_us("adversary.step"), "us")
    put("simnet.init_us", total_us("simnet.init"), "us")
    put("simnet.loop_us", self_us("simnet.run"), "us")
    put("simnet.trace_events", ref.events / per_run, "count")
    put("simnet.trace_kb", ref.trace_bytes / per_run / 1024, "KiB")
    put("checker.check_us", total_us("checker.check"), "us")
    put("checker.events_per_run", ref.events / per_run, "count")
    put("tracing_overhead", overhead, "ratio")
    return out


def traced(workload, seed: int, seconds: float, dbrb) -> tuple[dict, list[str]]:
    seeds = workload.seeds(seed)[:workload.traced_seeds]
    sc = workload.scenario_obj()
    ref, ref_failed = reference_pass(dbrb, sc, seeds)
    tracer = tracing.Tracer()
    summary = tracing.Summary()
    plain: list[Sweep] = []
    spanned: list[Sweep] = []
    missing: list[str] = []
    started = time.perf_counter()
    while not spanned or keep_sweeping(started, seconds,
                                       plain[-1].wall_s + spanned[-1].wall_s):
        plain.append(sweep(dbrb, sc, ref))
        tracer.clear()
        patches, missing = tracing.install(tracer)
        try:
            spanned.append(sweep(dbrb, sc, ref, before_run=tracer.begin_run))
        finally:
            patches.restore()
        summary.add(tracer)

    plain_s = [s.total_s for s in plain]
    spanned_s = [s.total_s for s in spanned]
    kinds = list(dbrb.messages.KIND_NAMES.values())
    metrics = per_layer(summary, len(seeds) * len(spanned), ref, kinds,
                        statistics.median(spanned_s) / statistics.median(plain_s))
    path = OUT / f"{workload.name}.spans"
    tracer.write(path, {"workload": workload.name, "seeds": seeds})

    self_by_layer: Counter = Counter()
    for name, st in summary.spans.items():
        self_by_layer[name.split(".", 1)[0]] += st.self_ns
    total_self = sum(self_by_layer.values())
    lines = [f"traced {len(spanned)} sweeps of {len(seeds)} runs; "
             f"spans of the last in {path.relative_to(ROOT)}"]
    lines += [f"self time {name:<10} {ns / 1e9:9.4f} s  {100 * ns / total_self:5.1f}%"
              for name, ns in self_by_layer.most_common()]
    lines.append(f"self times sum {total_self / 1e9:.4f} s; traced run+check "
                 f"{sum(spanned_s):.4f} s; untraced {sum(plain_s):.4f} s")
    if missing:
        lines.append("hooks not found, their metrics left out: " + ", ".join(missing))
    report = {"missing_hooks": missing, "msgs": dict(sorted(ref.kinds.items())),
              "sweeps": len(spanned), "self_total_s": total_self / 1e9,
              "traced_sweeps_s": sum(spanned_s), "untraced_sweeps_s": sum(plain_s)}
    return {"ref": ref, "attempted": len(seeds) * (1 + len(plain) + len(spanned)),
            "failed": ref_failed + sum(s.failed for s in plain + spanned),
            "metrics": metrics, "report": report}, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    dbrb = import_dbrb()
    workload = WORKLOADS[args.workload]
    measure = traced if args.trace else end_to_end
    result, lines = measure(workload, args.seed, args.seconds, dbrb)
    ref = result["ref"]
    report = dict(workload=workload.name, seed=args.seed, trace=args.trace,
                  env=environment(), seeds=[ref.seeds[0], ref.seeds[-1]],
                  trace_digest=ref.digest, messages=ref.messages, **result["report"])
    print(f"perfbench {workload.name} ({workload.scenario} {workload.overrides}) "
          f"seed {args.seed}: seeds {ref.seeds[0]}..{ref.seeds[-1]}")
    print("env " + " ".join(f"{k}={v}" for k, v in report["env"].items()))
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"trace_digest {ref.digest}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
