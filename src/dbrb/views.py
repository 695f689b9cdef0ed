"""View algebra: signed membership changes, views, and comparable view sequences.

A view is an append-only set of join/leave changes.  Its member set and
quorum threshold are derived, never stored.  Everything here but `Tally`
is an immutable value type with a canonical byte encoding, so two equal
views byte-compare (and hash) equal everywhere in the system.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Iterator

ProcessId = str

PLUS = "+"
MINUS = "-"
_SIGN_BYTE = {PLUS: b"\x2b", MINUS: b"\x2d"}

# Upper bound on changes per view; keeps adversarial messages from ballooning.
MAX_CHANGES = 1024


class ViewError(ValueError):
    """Raised on domain violations (empty membership, malformed change sets)."""


@dataclass(frozen=True)
class Change:
    sign: str
    process: ProcessId

    def __post_init__(self) -> None:
        if self.sign not in (PLUS, MINUS):
            raise ViewError(f"invalid change sign: {self.sign!r}")
        if not self.process:
            raise ViewError("empty process id")

    @property
    def token(self) -> str:
        return self.sign + self.process

    @cached_property
    def canonical_bytes(self) -> bytes:
        """len | pid | sign: the one encoding of a change, in a view and as a field."""
        return id_bytes(self.process) + _SIGN_BYTE[self.sign]


def id_bytes(pid: ProcessId) -> bytes:
    """A process id as every encoding writes it: its UTF-8 length in one
    byte, then those bytes."""
    raw = pid.encode()
    if len(raw) > 255:
        raise ViewError("identifier too long")
    return bytes((len(raw),)) + raw


# Changes repeat in every view; one shared instance per (sign, pid) lets set
# operations on change sets compare by identity.  The cap keeps Byzantine
# pids from growing the table without bound; past it, changes are built
# fresh and still compare equal.
_CHANGES: dict[tuple[str, ProcessId], Change] = {}
_CHANGES_MAX = 4096


def intern_change(sign: str, p: ProcessId) -> Change:
    """The shared `Change(sign, p)`."""
    c = _CHANGES.get((sign, p))
    if c is None:
        c = Change(sign, p)
        if len(_CHANGES) < _CHANGES_MAX:
            _CHANGES[(sign, p)] = c
    return c


def plus(p: ProcessId) -> Change:
    return intern_change(PLUS, p)


def minus(p: ProcessId) -> Change:
    return intern_change(MINUS, p)


def _change_sort_key(c: Change) -> tuple[bytes, bytes]:
    return (c.process.encode(), _SIGN_BYTE[c.sign])


@dataclass(frozen=True)
class View:
    changes: frozenset[Change]

    def __post_init__(self) -> None:
        if len(self.changes) > MAX_CHANGES:
            raise ViewError(f"change set exceeds cap of {MAX_CHANGES}")

    @classmethod
    def of(cls, changes: Iterable[Change]) -> "View":
        return cls(frozenset(changes))

    @classmethod
    def initial(cls, members: Iterable[ProcessId]) -> "View":
        return cls.of(plus(p) for p in members)

    @cached_property
    def members(self) -> tuple[ProcessId, ...]:
        added = {c.process for c in self.changes if c.sign == PLUS}
        removed = {c.process for c in self.changes if c.sign == MINUS}
        return tuple(sorted(added - removed))

    @cached_property
    def member_set(self) -> frozenset[ProcessId]:
        return frozenset(self.members)

    @property
    def quorum_size(self) -> int:
        n = len(self.members)
        if n == 0:
            raise ViewError("quorum undefined for empty membership")
        return n - (n - 1) // 3

    @cached_property
    def sorted_changes(self) -> tuple[Change, ...]:
        return tuple(sorted(self.changes, key=_change_sort_key))

    @cached_property
    def canonical_bytes(self) -> bytes:
        """The change count, then each change's bytes in canonical order."""
        return struct.pack(">I", len(self.changes)) + b"".join(
            [c.canonical_bytes for c in self.sorted_changes])

    @cached_property
    def digest(self) -> bytes:
        return hashlib.sha256(self.canonical_bytes).digest()

    @property
    def short(self) -> str:
        return self.digest[:8].hex()

    def union(self, other: "View") -> "View":
        return View(self.changes | other.changes)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"View({','.join(c.token for c in self.sorted_changes)})"


@dataclass
class Tally:
    """The votes a quorum wait reads: `(view, value)` -> `{author: evidence}`.

    A vote counts only from a member of its view, and only an author's first
    vote for a key counts; kinds that allow one vote per author per view
    check `voted` first.  Keys keep their first-vote order.
    """

    votes: dict[tuple[View, Any], dict[ProcessId, Any]] = field(default_factory=dict)

    def add(self, view: View, value: Any, author: ProcessId, evidence: Any = None) -> bool:
        """Count the vote; False if it does not count."""
        if author in view.member_set:
            votes = self.votes.setdefault((view, value), {})
            if author not in votes:
                votes[author] = evidence
                return True
        return False

    def voted(self, author: ProcessId, view: View) -> bool:
        """The author has a vote counted in `view`, for any value."""
        return any(v == view for (v, _), votes in self.votes.items() if author in votes)

    def quorum(self, view: View, value: Any) -> dict[ProcessId, Any] | None:
        """The votes for `value` in `view` if a quorum of its members sent them."""
        votes = self.votes.get((view, value))
        return votes if votes and len(votes) >= view.quorum_size else None

    def quorums(self) -> Iterator[tuple[tuple[View, Any], dict[ProcessId, Any]]]:
        """Each key a quorum voted for, with its votes, in first-vote order."""
        return ((key, votes) for key, votes in self.votes.items()
                if len(votes) >= key[0].quorum_size)


def comparable(v1: View, v2: View) -> bool:
    return v1.changes <= v2.changes or v2.changes <= v1.changes


def is_sequence(views: Iterable[View]) -> bool:
    """True iff the views are pairwise comparable (the empty set qualifies)."""
    ordered = sorted(set(views), key=lambda v: len(v.changes))
    for a, b in zip(ordered, ordered[1:]):
        if not a.changes < b.changes:
            return False
    return True


def least_recent(seq: Iterable[View]) -> View:
    views = list(seq)
    if not views:
        raise ViewError("least_recent of empty sequence")
    candidates = [v for v in views if not any(w.changes < v.changes for w in views)]
    if len(candidates) != 1:
        raise ViewError("least_recent: views are not a sequence")
    return candidates[0]


def most_recent(seq: Iterable[View]) -> View:
    views = list(seq)
    if not views:
        raise ViewError("most_recent of empty sequence")
    candidates = [v for v in views if not any(v.changes < w.changes for w in views)]
    if len(candidates) != 1:
        raise ViewError("most_recent: views are not a sequence")
    return candidates[0]


def seq_sort_key(v: View) -> tuple[int, bytes]:
    return (len(v.changes), v.canonical_bytes)


def seq_sorted(views: Iterable[View]) -> list[View]:
    return sorted(views, key=seq_sort_key)


def payload_digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def short_digest(payload: bytes) -> str:
    return payload_digest(payload)[:8].hex()
