"""Mechanical trace checker for the broadcast and reconfiguration guarantees.

Pure over a finished trace: the same trace and scenario always yield the
same verdicts.  Eventual properties are judged at quiescence and come
back Inconclusive when the run was truncated; safety properties are
judged unconditionally.  Byzantine processes carry no obligations and
their callbacks are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .simnet import Scenario, Trace

PROPERTIES = (
    "Validity",
    "Totality",
    "NoDuplication",
    "Integrity",
    "Consistency",
    "Liveness",
    "NonTriviality",
    "InstalledViewsChain",
    "ValidViewsComparable",
    "ConvergedTotalOrder",
)

PASS = "Pass"
FAIL = "Fail"
INCONCLUSIVE = "Inconclusive"


@dataclass
class Verdict:
    prop: str
    status: str
    evidence: list[int] = field(default_factory=list)
    detail: str = ""

    def __str__(self) -> str:
        extra = f" [{self.detail}]" if self.detail else ""
        ev = f" evidence steps {self.evidence}" if self.evidence else ""
        return f"{self.prop}: {self.status}{extra}{ev}"


class MalformedTrace(ValueError):
    pass


# A view is the frozenset of its change tokens ("+p1", "-p2"), so inclusion
# of views is inclusion of sets, and a sequence is a set of such views.
ViewSet = frozenset[str]


def _read_views(e: dict, *names: str) -> list:
    """The named views of a note; "seq" names a sequence, in trace order."""
    try:
        views = e["views"]
        return [tuple(frozenset(v) for v in views[n]) if n == "seq" else frozenset(views[n])
                for n in names]
    except (KeyError, TypeError) as exc:
        name = e.get("detail") or e["kind"]
        raise MalformedTrace(f"{name} note without views {names} at step {e['step']}") from exc


@dataclass
class _NodeTimeline:
    joined_at: Optional[int] = None
    join_invoked_at: Optional[int] = None
    leave_invoked_at: Optional[int] = None
    leave_done_at: Optional[int] = None
    broadcasts: list[tuple[int, str]] = field(default_factory=list)
    deliveries: list[tuple[int, str]] = field(default_factory=list)
    sends: list[int] = field(default_factory=list)


def check(trace: Trace, scenario: Scenario) -> list[Verdict]:
    events = trace.events
    for i, e in enumerate(events):
        if e.get("step") != i or "kind" not in e or "actor" not in e:
            raise MalformedTrace(f"bad event at line {i}")

    byzantine = scenario.byzantine()
    correct = [p for p in scenario.universe if p not in byzantine]
    timelines = {p: _NodeTimeline() for p in scenario.universe}
    for p in scenario.initial_members:
        timelines[p].joined_at = 0

    installs: list[tuple[int, ViewSet]] = []
    unaccepted: list[tuple[int, str]] = []
    accepted: set[tuple[str, ViewSet]] = set()
    valid_views: list[tuple[int, ViewSet]] = []
    converged: dict[ViewSet, list[tuple[int, frozenset[ViewSet]]]] = {}

    for e in events:
        actor = e["actor"]
        tl = timelines.get(actor)
        if tl is None:
            raise MalformedTrace(f"unknown actor {actor} at step {e['step']}")
        kind = e["kind"]
        step = e["step"]
        detail = e.get("detail") or ""
        if kind == "Invoke":
            if detail == "join":
                tl.join_invoked_at = step
            elif detail == "leave":
                tl.leave_invoked_at = step
            elif detail == "broadcast":
                tl.broadcasts.append((step, e.get("payload_digest")))
        elif kind == "Callback":
            if detail == "Delivered":
                tl.deliveries.append((step, e.get("payload_digest")))
            elif detail == "JoinComplete":
                tl.joined_at = step
            elif detail == "LeaveComplete":
                tl.leave_done_at = step
        elif kind == "Send":
            tl.sends.append(step)
        elif actor in byzantine:
            continue
        elif kind == "Install":
            (cv,) = _read_views(e, "cv")
            installs.append((step, cv))
            if (actor, cv) not in accepted:
                unaccepted.append((step, actor))
        elif kind != "StateNote":
            continue
        elif detail == "install-accepted":
            omega, v, seq = _read_views(e, "omega", "v", "seq")
            accepted.add((actor, omega))
            valid_views += [(step, w) for w in (omega, v) + seq]
            converged.setdefault(v, []).append((step, frozenset(seq)))
        elif detail == "converged-on":
            v, seq = _read_views(e, "v", "seq")
            converged.setdefault(v, []).append((step, frozenset(seq)))
        elif detail == "commit-accepted":
            (v_cer,) = _read_views(e, "v_cer")
            valid_views.append((step, v_cer))

    verdicts = [
        _check_validity(trace, correct, timelines, scenario),
        _check_totality(trace, correct, timelines),
        _check_no_duplication(correct, timelines),
        _check_integrity(correct, timelines, scenario, byzantine),
        _check_consistency(correct, timelines),
        _check_liveness(trace, correct, timelines, scenario),
        _check_non_triviality(correct, timelines, scenario),
        _check_installed_chain(events, installs, unaccepted),
        _check_valid_comparable(valid_views),
        _check_converged_order(converged),
    ]
    return verdicts


def _eventual(trace: Trace, prop: str) -> Optional[Verdict]:
    if trace.truncated:
        return Verdict(prop, INCONCLUSIVE, detail="trace truncated")
    return None


def _participant_at_or_after(tl: _NodeTimeline, t: int) -> bool:
    """Was this process a participant at some time >= t?"""
    if tl.joined_at is None:
        return False
    left = tl.leave_invoked_at
    if left is None:
        return True
    return left > t  # participant throughout [joined_at, leave) intersecting [t, inf)


def _check_validity(trace, correct, timelines, scenario) -> Verdict:
    early = _eventual(trace, "Validity")
    if early:
        return early
    if scenario.sender not in correct:
        return Verdict("Validity", PASS, detail="sender byzantine; vacuous")
    s = timelines[scenario.sender]
    if not s.broadcasts:
        return Verdict("Validity", PASS, detail="no broadcast; vacuous")
    t, digest = s.broadcasts[0]
    for p in correct:
        tl = timelines[p]
        if tl.leave_invoked_at is not None:
            continue  # leavers are exempt here; totality handles them
        if not _participant_at_or_after(tl, t):
            continue
        if not any(d == digest for _, d in tl.deliveries):
            return Verdict("Validity", FAIL, evidence=[t],
                           detail=f"{p} is a never-leaving participant without delivery")
    return Verdict("Validity", PASS)


def _check_totality(trace, correct, timelines) -> Verdict:
    early = _eventual(trace, "Totality")
    if early:
        return early
    for p in correct:
        for t, digest in timelines[p].deliveries:
            for q in correct:
                tq = timelines[q]
                if not _participant_at_or_after(tq, t):
                    continue
                if not any(d == digest for _, d in tq.deliveries):
                    return Verdict("Totality", FAIL, evidence=[t],
                                   detail=f"{q} was a participant after {p}'s delivery "
                                          f"but never delivered")
    return Verdict("Totality", PASS)


def _check_no_duplication(correct, timelines) -> Verdict:
    for p in correct:
        if len(timelines[p].deliveries) > 1:
            steps = [s for s, _ in timelines[p].deliveries]
            return Verdict("NoDuplication", FAIL, evidence=steps[:2],
                           detail=f"{p} delivered more than once")
    return Verdict("NoDuplication", PASS)


def _check_integrity(correct, timelines, scenario, byzantine) -> Verdict:
    if scenario.sender in byzantine:
        return Verdict("Integrity", PASS, detail="sender byzantine; vacuous")
    sent = {d for _, d in timelines[scenario.sender].broadcasts}
    for p in correct:
        for step, digest in timelines[p].deliveries:
            if digest not in sent:
                return Verdict("Integrity", FAIL, evidence=[step],
                               detail=f"{p} delivered a payload the sender never broadcast")
    return Verdict("Integrity", PASS)


def _check_consistency(correct, timelines) -> Verdict:
    seen: dict[str, tuple[str, int]] = {}
    for p in correct:
        for step, digest in timelines[p].deliveries:
            for other_digest, (q, other_step) in seen.items():
                if other_digest != digest:
                    return Verdict("Consistency", FAIL, evidence=[other_step, step],
                                   detail=f"{q} delivered {other_digest}, {p} delivered {digest}")
            seen.setdefault(digest, (p, step))
    return Verdict("Consistency", PASS)


def _check_liveness(trace, correct, timelines, scenario) -> Verdict:
    early = _eventual(trace, "Liveness")
    if early:
        return early
    for p in correct:
        tl = timelines[p]
        if tl.join_invoked_at is not None and tl.joined_at is None:
            return Verdict("Liveness", FAIL, evidence=[tl.join_invoked_at],
                           detail=f"{p} invoked join but never completed")
        if tl.leave_invoked_at is not None and tl.leave_done_at is None:
            return Verdict("Liveness", FAIL, evidence=[tl.leave_invoked_at],
                           detail=f"{p} invoked leave but never completed")
        for step, digest in tl.broadcasts:
            if not any(d == digest for _, d in tl.deliveries):
                return Verdict("Liveness", FAIL, evidence=[step],
                               detail=f"{p} broadcast but never delivered its own message")
    return Verdict("Liveness", PASS)


def _check_non_triviality(correct, timelines, scenario) -> Verdict:
    for p in correct:
        tl = timelines[p]
        window_start = 0 if p in scenario.initial_members else tl.join_invoked_at
        for step in tl.sends:
            if window_start is None or step < window_start:
                return Verdict("NonTriviality", FAIL, evidence=[step],
                               detail=f"{p} sent before joining")
            if tl.leave_done_at is not None and step > tl.leave_done_at:
                return Verdict("NonTriviality", FAIL, evidence=[step],
                               detail=f"{p} sent after leaving")
    return Verdict("NonTriviality", PASS)


def _first_incomparable(entries: list[tuple[int, frozenset]]) -> Optional[list[int]]:
    """Steps of the first two sets seen, neither of which contains the other."""
    first_seen: dict[frozenset, int] = {}
    for step, x in entries:
        first_seen.setdefault(x, step)
    items = list(first_seen.items())
    for i, (a, step_a) in enumerate(items):
        for b, step_b in items[i + 1:]:
            if not (a <= b or b <= a):
                return [step_a, step_b]
    return None


def _check_installed_chain(events, installs, unaccepted) -> Verdict:
    if unaccepted:
        step, p = unaccepted[0]
        return Verdict("InstalledViewsChain", FAIL, evidence=[step],
                       detail=f"{p} installed a view it never accepted an install of")
    pair = _first_incomparable(installs)
    if pair:
        pa, pb = (events[step]["actor"] for step in pair)
        return Verdict("InstalledViewsChain", FAIL, evidence=pair,
                       detail=f"incomparable installed views at {pa} and {pb}")
    return Verdict("InstalledViewsChain", PASS)


def _check_valid_comparable(valid_views) -> Verdict:
    pair = _first_incomparable(valid_views)
    if pair:
        return Verdict("ValidViewsComparable", FAIL, evidence=pair,
                       detail="incomparable views in accepted installs/commits")
    return Verdict("ValidViewsComparable", PASS)


def _check_converged_order(converged) -> Verdict:
    for entries in converged.values():
        pair = _first_incomparable(entries)
        if pair:
            return Verdict("ConvergedTotalOrder", FAIL, evidence=pair,
                           detail="converged sequences not inclusion-ordered")
    return Verdict("ConvergedTotalOrder", PASS)


def summarize(verdicts: list[Verdict]) -> tuple[int, int, int]:
    """Counts of (pass, fail, inconclusive)."""
    p = sum(1 for v in verdicts if v.status == PASS)
    f = sum(1 for v in verdicts if v.status == FAIL)
    i = sum(1 for v in verdicts if v.status == INCONCLUSIVE)
    return p, f, i


def exit_code(verdicts: list[Verdict]) -> int:
    _, fails, inconclusive = summarize(verdicts)
    if fails:
        return 1
    if inconclusive:
        return 3
    return 0
