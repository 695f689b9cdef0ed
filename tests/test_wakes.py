"""Wake coverage: each write below wakes the scans that read it.

`Node._repoll` runs only woken scans, so a write that forgets its wake
leaves a scan with work.  The first part checks the declarations against
the source: each scan's entry in `engine.SCANS` lists exactly the fields
its wait reads, and every write to a field another scan reads is followed
by a `_wrote` that names it.  The rest reaches single writes from real
messages, because the packaged runs never need these particular wakes on
their own.  Where the scan has work only this wake can start, the test
checks that the work is done and that no scan has work left
(`assert_idle`).  Where another write in the same call wakes the same scan
first, the test checks that the write itself names its field
(`wakes_after`), so that neither write relies on the other's wake.
"""

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path

from conftest import Bench, reconfig_proofs, sends_of, state_digest
from dbrb.crypto import ack_payload, build_certificate
from dbrb.engine import SCANS, Node
from dbrb.membership import Phase
from dbrb.messages import (
    Commit,
    Converged,
    Install,
    Propose,
    Reconfig,
    Signed,
    StateRecord,
    StateUpdate,
    ViewHistory,
    decode,
    signed_content,
)
from dbrb.views import View, minus, plus

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "dbrb").glob("*.py"))
NODE_CLASSES = {cls.__name__ for cls in Node.__mro__}
# container methods that change their receiver; the last three also return
# from it, so their receiver is read as well
MUTATORS = {"add", "append", "clear", "discard", "extend", "insert", "remove", "update",
            "pop", "popitem", "setdefault"}
READING_MUTATORS = {"pop", "popitem", "setdefault"}


def self_field(node) -> str | None:
    """`x` for the expression `self.x`, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


@dataclass
class Method:
    reads: set = field(default_factory=set)     # `self.x` loaded, other than to write x
    writes: dict = field(default_factory=dict)  # field -> line of its last write
    wrote: dict = field(default_factory=dict)   # field -> lines of `_wrote` calls naming it
    calls: set = field(default_factory=set)     # `self.m(...)` names


def analyse(fn) -> Method:
    m = Method()
    write_targets = set()  # ids of `self.x` nodes that are only written

    def write(name, line):
        m.writes[name] = max(m.writes.get(name, 0), line)

    for n in ast.walk(fn):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and self_field(n):
            write(n.attr, n.lineno)
        elif isinstance(n, ast.Subscript) and not isinstance(n.ctx, ast.Load) \
                and self_field(n.value):
            write(n.value.attr, n.lineno)
            write_targets.add(id(n.value))
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
            if self_field(n.func.value) and n.func.attr in MUTATORS:
                write(n.func.value.attr, n.lineno)
                if n.func.attr not in READING_MUTATORS:
                    write_targets.add(id(n.func.value))
            elif self_field(n.func) == "_wrote":
                for arg in n.args:
                    m.wrote.setdefault(arg.value, []).append(n.lineno)
            elif self_field(n.func):
                m.calls.add(n.func.attr)
    m.reads = {n.attr for n in ast.walk(fn) if self_field(n) and isinstance(n.ctx, ast.Load)
               and id(n) not in write_targets}
    return m


@functools.cache
def module_methods(source: str) -> dict[str, Method]:
    """The methods one module defines on `Node` or its mixins, by name."""
    return {fn.name: analyse(fn)
            for cls in ast.parse(source).body
            if isinstance(cls, ast.ClassDef) and cls.name in NODE_CLASSES
            for fn in cls.body if isinstance(fn, ast.FunctionDef)}


def declaration_problems(sources: list[str], scans) -> list[str]:
    """Where the scan table and the source disagree.

    A scan reads a field when it loads `self.<field>` itself or in a query
    helper it calls: a method that, directly or through the methods it
    calls, writes no field (emitting writes `_outputs`).  Fields that only
    `__init__` writes are constants and are not declared.  A write must be
    named by the one `_wrote` of its method for that field, placed after
    it in the source, unless no scan but the writing method reads it.
    """
    methods = {name: m for source in sources for name, m in module_methods(source).items()}
    mutable = {f for name, m in methods.items() if name != "__init__" for f in m.writes}
    actions = {name for name, m in methods.items() if m.writes}
    while grown := {name for name, m in methods.items()
                    if name not in actions and m.calls & actions}:
        actions |= grown
    problems = []
    readers: dict[str, set[str]] = {}
    for scan, declared in scans:
        read, todo, seen = set(), [scan], {scan}
        while todo:
            m = methods[todo.pop()]
            read |= m.reads & mutable
            for helper in m.calls - actions - seen:
                seen.add(helper)
                todo.append(helper)
        if set(declared) != read:
            problems.append(f"{scan} declares {sorted(declared)} but reads {sorted(read)}")
        for f in declared:
            readers.setdefault(f, set()).add(scan)
    for name, m in sorted(methods.items()):
        if name == "__init__":
            continue
        for f, line in sorted(m.writes.items()):
            needed = readers.get(f, set()) - {name}
            lines = m.wrote.get(f, [])
            if needed and not lines:
                problems.append(f"{name} writes {f}, which {sorted(needed)} read, "
                                f"and names it in no _wrote")
            elif needed and max(lines) < line:
                problems.append(f"{name} writes {f} after its _wrote")
        for f, lines in sorted(m.wrote.items()):
            if len(lines) > 1:
                problems.append(f"{name} names {f} in {len(lines)} _wrote calls")
            if f not in m.writes:
                problems.append(f"{name} names {f} in a _wrote but does not write it")
            elif not readers.get(f, set()) - {name}:
                problems.append(f"{name} names {f}, which no other scan reads")
    return problems


def test_scan_table_matches_the_source():
    assert declaration_problems([p.read_text() for p in SOURCES], SCANS) == []


def wrote_calls(sources: list[str]):
    """(module index, line) of every `self._wrote(...)` statement."""
    for i, source in enumerate(sources):
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Expr) and isinstance(n.value, ast.Call) \
                    and self_field(n.value.func) == "_wrote":
                assert n.lineno == n.end_lineno
                yield i, n.lineno


def test_any_missing_wrote_is_found():
    sources = [p.read_text() for p in SOURCES]
    sites = list(wrote_calls(sources))
    assert len(sites) >= 30
    for i, line in sites:
        lines = sources[i].splitlines()
        text = lines[line - 1]
        lines[line - 1] = text[:len(text) - len(text.lstrip())] + "pass"
        mutated = sources[:i] + ["\n".join(lines)] + sources[i + 1:]
        assert declaration_problems(mutated, SCANS), f"{SOURCES[i].name}:{line} {text.strip()}"


def test_any_missing_declaration_is_found():
    sources = [p.read_text() for p in SOURCES]
    for k, (scan, declared) in enumerate(SCANS):
        for f in declared:
            dropped = (scan, tuple(d for d in declared if d != f))
            assert declaration_problems(sources, SCANS[:k] + (dropped,) + SCANS[k + 1:]), \
                f"{scan} without {f}"


def test_needless_and_misplaced_wrote_are_reported():
    source = ("class Node:\n"
              "    def __init__(self):\n        self.a = self.b = 0\n\n"
              "    def _scan(self):\n        self.b = self.a\n        self._wrote('b')\n\n"
              "    def _late(self):\n        self._wrote('a')\n        self.a = 1\n\n"
              "    def _twice(self):\n        self.a = 2\n        self._wrote('a')\n"
              "        self._wrote('a')\n")
    assert declaration_problems([source], (("_scan", ("a",)),)) == [
        "_late writes a after its _wrote",
        "_scan names b, which no other scan reads",
        "_twice names a in 2 _wrote calls",
    ]


def test_only_a_scan_acts_on_an_install_or_a_commit():
    # handlers record, scans act: INSTALL and COMMIT handlers only park, and
    # only their wait's scan relays, accepts or checks what was parked
    methods = {name: m for p in SOURCES for name, m in module_methods(p.read_text()).items()}
    callers = {target: sorted(name for name, m in methods.items() if target in m.calls)
               for target in ("_handle_install", "_commit_ready", "_commit_checked")}
    assert callers == {"_handle_install": ["_rm_pending_scan"],
                       "_commit_ready": ["_pending_commit_scan"],
                       "_commit_checked": ["_pending_commit_scan"]}


def make_bench():
    return Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])


def assert_idle(node):
    """No scan has work left: each emits nothing and changes nothing."""
    assert node._dirty == 0
    before = state_digest(node)
    for scan, _ in SCANS:
        getattr(node, scan)()
        assert node._outputs == [], scan
    assert state_digest(node) == before


def reads(scan):
    return dict(SCANS)[scan]


def wakes_after(bench, to, author, msg, written):
    """Deliver msg; the fields named in `_wrote` once `written(node)` holds."""
    node = bench.nodes[to]
    fields = set()
    real = node._wrote

    def spy(*names):
        if written(node):
            fields.update(names)
        real(*names)

    node._wrote = spy
    try:
        bench.deliver(to, author, msg)
    finally:
        del node._wrote
    return fields


def install(bench, seq, view, signers=("p1", "p2", "p3")):
    sigs = tuple((pid, bench.keyring.sign(pid, signed_content(Converged(seq, view), pid)))
                 for pid in signers)
    return Install(seq, view, sigs, reconfig_proofs(bench.keyring, seq, view))


def state_update(view, omega, record=StateRecord()):
    return StateUpdate(view, omega, record, ())


def cert(bench, payload, view, signers):
    return build_certificate(view, {p: bench.keyring.sign(p, ack_payload(payload, view))
                                    for p in signers})


V0 = View.initial(["p1", "p2", "p3", "p4"])
V1 = View(V0 | {plus("p5")})
# a view inside V0 that p2 never trusts: certificates formed in it stay unverifiable
V_SUB = View.initial(["p1", "p2", "p3"])


def install_v1(bench, to, updates=None):
    """Move `to` from V0 to V1 through an INSTALL and a quorum of state updates."""
    bench.deliver(to, "p1", install(bench, frozenset({V1}), V0))
    for author in ("p1", "p3", "p4"):
        bench.deliver(to, author, (updates or {}).get(author, state_update(V0, V1)))


def test_delivered_multicast_leaves_no_work():
    # `rm_received` growth needs no wake: only `_rm_receive` reads it, and
    # a copy of a received install stops there, before it is parked
    bench = make_bench()
    node = bench.nodes["p2"]
    install_v1(bench, "p2")
    variant = install(bench, frozenset({V1}), V0, signers=("p2", "p3", "p4"))
    bench.deliver("p2", "p4", variant)
    assert bench.raw("p4", variant) in node.rm_received
    assert_idle(node)


def test_stored_commit_clears_the_pending_store():
    bench = make_bench()
    node = bench.nodes["p2"]
    unverifiable = Commit(b"m", cert(bench, b"m", V_SUB, ["p1", "p2", "p3"]), V0)
    install_v1(bench, "p2", {"p1": state_update(V0, V1, StateRecord(stored=unverifiable))})
    assert node.cv == V1 and node.pending_store == [unverifiable]
    assert node.state_record.stored is None
    bench.deliver("p2", "p1", Commit(b"m", cert(bench, b"m", V0, ["p1", "p2", "p3"]), V1))
    assert node.state_record.stored is not None and node.pending_store == []
    assert_idle(node)


def test_stored_evidence_is_adopted_once_its_certificate_view_is_valid():
    # p2 trusts V12 = V1 + p6 through a history whose one link skips V1, and
    # moves from V12 to V15 = V12 - p6 with one update storing a message
    # certified in V1, which p2 cannot use yet.  A later install from V0
    # through {V1, V12} makes V1 trusted: p2 adopts the stored message and
    # commits it in its current view, in that same step.
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5", "p6"])
    node = bench.nodes["p2"]
    v12 = View(V1 | {plus("p6")})
    v15 = View(v12 | {minus("p6")})
    link = install(bench, frozenset({v12}), V0)
    bench.deliver("p2", "p1", ViewHistory(V0, (link,)))
    assert node._is_trusted(v12) and not node._is_valid_view(V1)
    bench.deliver("p2", "p1", install(bench, frozenset({v15}), v12,
                                      signers=("p1", "p2", "p3", "p4", "p5")))
    stored = Commit(b"m", cert(bench, b"m", V1, ["p1", "p2", "p3", "p4"]), V1)
    for author in ("p1", "p3", "p4", "p5", "p6"):
        record = StateRecord(stored=stored) if author == "p3" else StateRecord()
        bench.deliver("p2", author, state_update(v12, v15, record))
    assert node.cv == v15 and node.installed == v15
    assert node.pending_store == [stored] and node.state_record.stored is None
    actions = bench.deliver("p2", "p1", install(bench, frozenset({V1, v12}), V0))
    assert node.state_record.stored == stored and node.pending_store == []
    assert [c.to for c in sends_of(actions, "COMMIT")] == list(v15.members)
    assert_idle(node)


def test_new_cv_drops_a_stale_pending_commit():
    bench = make_bench()
    node = bench.nodes["p2"]
    bench.deliver("p2", "p1", Commit(b"m", cert(bench, b"m", V_SUB, ["p1", "p2", "p3"]),
                                     V0))
    assert [msg.view for _, msg in node.pending_commits] == [V0]
    install_v1(bench, "p2")
    assert node.cv == V1 and node.pending_commits == []
    assert_idle(node)


V_LEFT = View(V0 | {minus("p4")})


def leaver_in_loop(bench):
    """p4, holding a stored message and a pending commit, installs V0 - p4
    and enters the leaver loop."""
    node = bench.nodes["p4"]
    bench.deliver("p4", "p1", Commit(b"m", cert(bench, b"m", V0, ["p1", "p2", "p3"]), V0))
    bench.deliver("p4", "p1", Commit(b"m", cert(bench, b"m", V_SUB, ["p1", "p2", "p3"]),
                                     V0))
    assert node.state_record.stored is not None
    assert [msg.view for _, msg in node.pending_commits] == [V0]
    bench.deliver("p4", "p1", install(bench, frozenset({V_LEFT}), V0))
    for author in ("p1", "p2", "p3"):
        bench.deliver("p4", author, state_update(V0, V_LEFT))
    return node


def test_leaving_cv_drops_a_stale_pending_commit():
    # p4 leaves with a stored message: the leaver loop moves `cv` to the
    # best trusted view (`_leaver_commit`), which strands the pending commit
    node = leaver_in_loop(make_bench())
    assert node.phase is Phase.LEAVER_LOOP and node.cv == V_LEFT and node.pending_commits == []
    assert_idle(node)


def test_leaver_commits_again_in_a_newer_trusted_view():
    # a history through V0 - p4 + p5 makes a newer view the best trusted
    # one: the leaver loop (`_leaver_loop_kick`) moves `cv` there and
    # commits its stored message to that view's members
    bench = make_bench()
    node = leaver_in_loop(bench)
    v_next = View(V_LEFT | {plus("p5")})
    links = (install(bench, frozenset({V_LEFT}), V0), install(bench, frozenset({v_next}), V_LEFT))
    actions = bench.deliver("p4", "p1", ViewHistory(V0, links))
    assert node.phase is Phase.LEAVER_LOOP and node.cv == v_next
    commits = sends_of(actions, "COMMIT")
    assert [c.to for c in commits] == ["p1", "p2", "p3", "p5"]
    assert decode(commits[0].raw, bench.verifier).msg.view == v_next
    assert_idle(node)


def test_install_unlocks_a_buffered_propose_and_its_quorum():
    # PROPOSEs in V1 for {V2} wait in the buffer until an install fills
    # FORMAT[V1] (`formats`); adopting them sets SEQ[V1] (`_set_seq`), and
    # the votes already held are then a quorum for a CONVERGED
    bench = make_bench()
    node = bench.nodes["p2"]
    v2 = View(V1 | {plus("p6")})
    sig = bench.keyring.sign("p6", signed_content(Reconfig(plus("p6"), V1), "p6"))
    propose = Propose(frozenset({v2}), V1, (Signed(Reconfig(plus("p6"), V1), sig),))
    for author in ("p1", "p3", "p4", "p5"):
        assert not sends_of(bench.deliver("p2", author, propose))
    assert len(node.propose_buffer) == 4 and V1 not in node.seqs
    actions = bench.deliver("p2", "p1", install(bench, frozenset({V1, v2}), V0))
    assert node.seqs[V1] == frozenset({v2})
    assert sorted(s.to for s in sends_of(actions, "PROPOSE")) == sorted(V1.members)
    converged = sends_of(actions, "CONVERGED")
    assert sorted(s.to for s in converged) == sorted(V1.members)
    assert decode(converged[0].raw, bench.verifier).msg.seq == frozenset({v2})
    assert_idle(node)


def test_installing_cv_wakes_maybe_propose():
    # `cv` is written, and wakes its readers, just before `installed`;
    # the installed mark must wake `_maybe_propose` on its own as well
    bench = make_bench()
    node = bench.nodes["p2"]
    bench.deliver("p2", "p1", install(bench, frozenset({V1}), V0))
    for author in ("p1", "p3"):
        bench.deliver("p2", author, state_update(V0, V1))
    installed = lambda n: n.cv == V1 and n.installed == V1
    assert "installed" in wakes_after(bench, "p2", "p4", state_update(V0, V1), installed)
    assert "installed" in reads("_maybe_propose")
    assert node.installed == V1
    assert_idle(node)


def test_set_seq_wakes_the_proposal_quorum():
    # `_maybe_propose` runs after `_propose_quorum_scan`, and nothing else in
    # the step wakes the quorum scan: the new SEQ[V0] must wake it itself
    bench = make_bench()
    node = bench.nodes["p2"]
    proposed = lambda n: V0 in n.seqs
    assert "seqs" in wakes_after(bench, "p2", "p5", Reconfig(plus("p5"), V0), proposed)
    assert "seqs" in reads("_propose_quorum_scan")
    assert node.seqs[V0] == frozenset({V1})
    assert_idle(node)


def test_install_proofs_unlock_a_waiting_converged_quorum():
    # a CONVERGED quorum on {V1} waits for p5's reconfig proof; the install
    # pools it (with FORMAT[V1]), and its wake lets the quorum be acted on
    bench = make_bench()
    node = bench.nodes["p2"]
    for author in ("p1", "p3", "p4"):
        bench.deliver("p2", author, Converged(frozenset({V1}), V0))
    assert plus("p5") not in node.pool and not node.install_sent
    received = install(bench, frozenset({V1}), V0)
    actions = bench.deliver("p2", "p1", received)
    assert node.install_sent == {(V0, frozenset({V1}))}
    assert node.formats[V1] == {frozenset()}
    # the relayed install, then this node's own from the votes it holds
    own = {decode(s.raw, bench.verifier).msg for s in sends_of(actions, "INSTALL")} - {received}
    assert [[q for q, _ in m.converged_sigs] for m in own] == [["p1", "p3", "p4"]]
    assert_idle(node)


def test_install_after_its_state_updates_completes_in_the_same_step():
    # a quorum of state updates for V0 -> V1 arrives first; the install that
    # follows parks a pending install, whose wake completes it at once
    bench = make_bench()
    node = bench.nodes["p2"]
    for author in ("p1", "p3", "p4"):
        bench.deliver("p2", author, state_update(V0, V1))
    assert node.cv == V0 and set(node.state_updates.votes[(V0, None)]) == {"p1", "p3", "p4"}
    bench.deliver("p2", "p1", install(bench, frozenset({V1}), V0))
    assert node.cv == V1 and node.installed == V1 and node.pending_installs == []
    assert_idle(node)
