"""View algebra: membership changes, views, and comparable view sequences.

A change is its token, `+` or `-` followed by the process id (`"+p1"`),
and a view is the frozenset of its changes, so `v < w` (w is more recent
than v) is set inclusion, and the engine, the trace and the checker hold a
view alike.  A view's member set and quorum threshold are derived, never
stored.  Everything here but `Tally` is an immutable value with a
canonical byte encoding, so two equal views byte-compare (and hash) equal
everywhere in the system.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Iterator

ProcessId = str
# "+p" or "-p": the sign, then the process id (`c[0]` and `c[1:]`)
Change = str

PLUS = "+"
MINUS = "-"

# Upper bound on changes per view; keeps adversarial messages from ballooning.
MAX_CHANGES = 1024


class ViewError(ValueError):
    """Raised on domain violations (empty membership, oversized change sets)."""


def id_bytes(pid: ProcessId) -> bytes:
    """A process id as every encoding writes it: its UTF-8 length in one
    byte, then those bytes."""
    raw = pid.encode()
    if len(raw) > 255:
        raise ViewError("identifier too long")
    return bytes((len(raw),)) + raw


# Each value below 0x80 as the last byte of a varint, and as any other byte.
_VARINT_LAST = tuple(bytes((n,)) for n in range(0x80))
_VARINT_MORE = tuple(bytes((n | 0x80,)) for n in range(0x80))


def varint(n: int) -> bytes:
    """n as a minimal unsigned LEB128 varint: 7 bits a byte, low bits first,
    the high bit set on every byte but the last; at most 2**32 - 1."""
    if n < 0x80:
        return _VARINT_LAST[n]
    if n > 0xFFFFFFFF:
        raise ViewError("length exceeds 2**32 - 1")
    return _VARINT_MORE[n & 0x7F] + varint(n >> 7)


def plus(p: ProcessId) -> Change:
    return PLUS + p


def minus(p: ProcessId) -> Change:
    return MINUS + p


def change_key(c: Change) -> tuple[ProcessId, str]:
    """The one change order: by process id, then `+` before `-`.  It is the
    order of the changes' bytes, since UTF-8 keeps code point order."""
    return (c[1:], c[0])


def change_bytes(c: Change) -> bytes:
    """len | pid | sign: the one encoding of a change, in a view and as a field."""
    return id_bytes(c[1:]) + c[0].encode()


class View(frozenset):
    """The frozenset of a view's change tokens, with the facts derived from it."""

    def __new__(cls, changes: Iterable[Change] = ()) -> "View":
        view = super().__new__(cls, changes)
        if len(view) > MAX_CHANGES:
            raise ViewError(f"change set exceeds cap of {MAX_CHANGES}")
        return view

    @classmethod
    def initial(cls, members: Iterable[ProcessId]) -> "View":
        return cls(map(plus, members))

    @cached_property
    def members(self) -> tuple[ProcessId, ...]:
        added = {c[1:] for c in self if c[0] == PLUS}
        removed = {c[1:] for c in self if c[0] == MINUS}
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
        return tuple(sorted(self, key=change_key))

    @cached_property
    def canonical_bytes(self) -> bytes:
        """The change count as a varint, then each change's bytes in canonical order."""
        return varint(len(self)) + b"".join(map(change_bytes, self.sorted_changes))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"View({','.join(self.sorted_changes)})"


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
    return v1 <= v2 or v2 <= v1


def is_sequence(views: Iterable[View]) -> bool:
    """True iff the views are pairwise comparable (the empty set qualifies)."""
    ordered = sorted(set(views), key=len)
    for a, b in zip(ordered, ordered[1:]):
        if not a < b:
            return False
    return True


def least_recent(seq: Iterable[View]) -> View:
    views = list(seq)
    if not views:
        raise ViewError("least_recent of empty sequence")
    candidates = [v for v in views if not any(w < v for w in views)]
    if len(candidates) != 1:
        raise ViewError("least_recent: views are not a sequence")
    return candidates[0]


def most_recent(seq: Iterable[View]) -> View:
    views = list(seq)
    if not views:
        raise ViewError("most_recent of empty sequence")
    candidates = [v for v in views if not any(v < w for w in views)]
    if len(candidates) != 1:
        raise ViewError("most_recent: views are not a sequence")
    return candidates[0]


def seq_sort_key(v: View) -> tuple[int, bytes]:
    return (len(v), v.canonical_bytes)


def seq_sorted(views: Iterable[View]) -> list[View]:
    return sorted(views, key=seq_sort_key)


def payload_digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


def short_digest(payload: bytes) -> str:
    return payload_digest(payload)[:8].hex()
