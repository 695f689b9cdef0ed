"""Spans around the layer entry points of dbrb, installed from outside.

`install(tracer)` replaces each entry point listed in `hooks()` with a
wrapper that records one span (name, start, end, parent) per call, in
every dbrb module that binds the function by name, and returns the
`Patches` that put the originals back.  Nothing under `src/` is edited.
Spans live in flat integer arrays while the sweep runs; `Summary.add`
turns them into calls, inclusive time and self time per span name, and
`Tracer.write` stores them when the benchmark ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

# The 15 wait scans that `Node._repoll` re-runs after every input.  Each
# span is named after the module of the mixin that defines the method,
# so `membership.scan:_join_kick` counts toward `membership.scan_us`.
SCAN_METHODS = (
    "_rm_pending_scan", "_pending_commit_scan", "_pending_store_scan",
    "_propose_buffer_scan", "_propose_quorum_scan", "_converged_quorum_scan",
    "_pending_install_scan", "_maybe_propose", "_cert_scan", "_deliver_scan",
    "_confirm_scan", "_join_kick", "_leave_kick", "_leaver_loop_kick",
    "_gossip_kick",
)


@dataclass(frozen=True)
class Hook:
    """One entry point: a module-level function or a method of a class."""

    span: str
    module: str                 # module that defines the function or class
    attr: str                   # function name, or "Class.method"
    optional: bool = False      # private hooks a refactor may remove
    skip_defining: bool = False  # wrap only the bindings in other modules


def hooks() -> list[Hook]:
    out = [
        Hook("simnet.run", "dbrb.simnet", "run"),
        Hook("simnet.init", "dbrb.simnet", "_Run.__init__", optional=True),
        Hook("checker.check", "dbrb.checker", "check"),
        Hook("engine.step", "dbrb.engine", "Node.step"),
        Hook("engine.repoll", "dbrb.engine", "Node._repoll", optional=True),
        Hook("codec.decode", "dbrb.messages", "decode", skip_defining=True),
        Hook("codec.encode", "dbrb.messages", "encode", skip_defining=True),
        Hook("crypto.sign", "dbrb.crypto", "Signer.sign"),
        Hook("crypto.verify", "dbrb.crypto", "Verifier.verify"),
        Hook("crypto.cert_verify", "dbrb.crypto", "verify_certificate"),
        Hook("discovery.history_verify", "dbrb.discovery", "verify_history"),
        Hook("discovery.install_proof", "dbrb.discovery", "verify_install_proof"),
    ]
    # Only rmulticast's re-encoding counts; `encode` calls body_bytes too.
    out.append(Hook("codec.reencode", "dbrb.messages", "body_bytes", skip_defining=True))
    for strategy in _adversary_classes():
        out.append(Hook("adversary.step", "dbrb.adversary", f"{strategy}.step"))
    for method in SCAN_METHODS:
        owner = _defining_class("dbrb.engine", "Node", method)
        group = owner.__module__.rsplit(".", 1)[-1] if owner else "engine"
        module = owner.__module__ if owner else "dbrb.engine"
        cls = owner.__name__ if owner else "Node"
        out.append(Hook(f"{group}.scan:{method}", module, f"{cls}.{method}", optional=True))
    return out


def _adversary_classes() -> list[str]:
    adversary = sys.modules["dbrb.adversary"]
    classes = [adversary.AdversaryBase, *adversary.STRATEGIES.values()]
    return sorted({c.__name__ for c in classes if "step" in vars(c)})


def _defining_class(module: str, cls: str, method: str):
    for klass in getattr(sys.modules[module], cls).__mro__:
        if method in vars(klass):
            return klass
    return None


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer:
    """In-memory span store; one wrapper per hooked entry point."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.actions = 0
        self.verifies_distinct = 0
        self._verify_keys: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_run(self) -> None:
        """Start a new simulated run: the verify memo ceiling is per run."""
        self.verifies_distinct += len(self._verify_keys)
        self._verify_keys = set()

    def clear(self) -> None:
        for col in (self.name, self.parent, self.start, self.end):
            del col[:]
        self.actions = 0
        self.verifies_distinct = 0
        self._verify_keys = set()

    def wrap(self, span: str, fn, after=None):
        nid = self.name_id(span)
        clock = time.perf_counter_ns
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _after(self, span: str):
        if span == "engine.step":
            def count_actions(args, result):
                self.actions += len(result)
            return count_actions
        if span == "crypto.verify":
            def remember(args, result):
                self._verify_keys.add(args[1:4])  # (pid, payload, sig)
            return remember
        return None

    def write(self, path: Path, meta: dict) -> None:
        """Span columns as int64 in `path`, names and layout in `path`.json."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            for col in (self.name, self.parent, self.start, self.end):
                col.tofile(fh)
        header = dict(meta, names=self.names, spans=len(self.start),
                      columns=["name", "parent", "start_ns", "end_ns"], dtype="int64")
        Path(f"{path}.json").write_text(json.dumps(header, indent=1) + "\n")


def read(path: Path) -> tuple[dict, list[array]]:
    header = json.loads(Path(f"{path}.json").read_text())
    n = header["spans"]
    cols = []
    with open(path, "rb") as fh:
        for _ in header["columns"]:
            col = array("q")
            col.fromfile(fh, n)
            cols.append(col)
    return header, cols


def install(tracer: Tracer) -> tuple[Patches, list[str]]:
    """Wrap every hook that exists; returns the patches and missing hooks."""
    patches = Patches()
    missing = []
    dbrb_modules = [m for name, m in sorted(sys.modules.items())
                    if m is not None and (name == "dbrb" or name.startswith("dbrb."))]
    for hook in hooks():
        home = sys.modules.get(hook.module)
        owner_name, _, attr = hook.attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        if owner is None or attr not in vars(owner):
            if not hook.optional:
                patches.restore()
                raise LookupError(f"entry point {hook.module}.{hook.attr} not found")
            missing.append(hook.span)
            continue
        original = vars(owner)[attr]
        wrapped = tracer.wrap(hook.span, original, tracer._after(hook.span))
        if owner_name:
            patches.replace(owner, attr, wrapped)
            continue
        for module in dbrb_modules:
            if module is home and hook.skip_defining:
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    patches.replace(module, name, wrapped)
    return patches, missing


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


@dataclass
class Summary:
    """Per-span-name totals of one or more traced sweeps."""

    spans: dict[str, SpanStats] = field(default_factory=dict)
    step_ns: list[int] = field(default_factory=list)
    links_checked: int = 0      # install proofs checked inside verify_history
    repoll_scans: int = 0       # scan calls made from inside _repoll
    actions: int = 0
    verify_distinct: int = 0

    def add(self, tracer: Tracer) -> None:
        tracer.begin_run()
        names, parent = tracer.name, tracer.parent
        dur = [e - s for s, e in zip(tracer.start, tracer.end)]
        child = [0] * len(dur)
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        ids = {name: i for i, name in enumerate(tracer.names)}
        step = ids.get("engine.step", -1)
        history = ids.get("discovery.history_verify", -1)
        proof = ids.get("discovery.install_proof", -1)
        repoll = ids.get("engine.repoll", -1)
        scans = {i for name, i in ids.items() if ".scan:" in name}
        stats = [self.spans.setdefault(name, SpanStats()) for name in tracer.names]
        for i, nid in enumerate(names):
            st = stats[nid]
            st.calls += 1
            st.total_ns += dur[i]
            st.self_ns += dur[i] - child[i]
            p = parent[i]
            if nid == step:
                self.step_ns.append(dur[i])
            elif nid == proof and p >= 0 and names[p] == history:
                self.links_checked += 1
            elif nid in scans and p >= 0 and names[p] == repoll:
                self.repoll_scans += 1
        self.actions += tracer.actions
        self.verify_distinct += tracer.verifies_distinct
