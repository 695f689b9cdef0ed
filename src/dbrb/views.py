"""View algebra: signed membership changes, views, and comparable view sequences.

A view is an append-only set of join/leave changes.  Its member set and
quorum threshold are derived, never stored.  Everything here is an
immutable value type with a canonical byte encoding, so two equal views
byte-compare (and hash) equal everywhere in the system.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable

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


def plus(p: ProcessId) -> Change:
    return Change(PLUS, p)


def minus(p: ProcessId) -> Change:
    return Change(MINUS, p)


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
        parts = [struct.pack(">I", len(self.changes))]
        for c in self.sorted_changes:
            pid = c.process.encode()
            parts.append(struct.pack(">B", len(pid)))
            parts.append(pid)
            parts.append(_SIGN_BYTE[c.sign])
        return b"".join(parts)

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


class Comparison(Enum):
    EQUAL = "equal"
    LESS = "less"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def compare(v1: View, v2: View) -> Comparison:
    if v1.changes == v2.changes:
        return Comparison.EQUAL
    if v1.changes < v2.changes:
        return Comparison.LESS
    if v1.changes > v2.changes:
        return Comparison.GREATER
    return Comparison.INCOMPARABLE


def comparable(v1: View, v2: View) -> bool:
    return compare(v1, v2) is not Comparison.INCOMPARABLE


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


def seq_canonical_bytes(views: Iterable[View]) -> bytes:
    ordered = seq_sorted(views)
    parts = [struct.pack(">I", len(ordered))]
    for v in ordered:
        parts.append(v.canonical_bytes)
    return b"".join(parts)


def seq_key(views: Iterable[View]) -> bytes:
    return hashlib.sha256(seq_canonical_bytes(views)).digest()


def payload_digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def short_digest(payload: bytes) -> str:
    return payload_digest(payload)[:8].hex()
