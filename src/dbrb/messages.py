"""Wire schema: tagged binary encoding for every protocol message.

Layout of a framed message:

    version(1) | tag(1) | body-len(4) | body | author | signature

The author signs version|tag|body|author, so a message cannot be
re-attributed.  All collections inside bodies are canonically ordered,
making the encoding bit-exact for equal values, and `decode` accepts
only that canonical encoding: a decoded body always equals the
re-encoding of the message parsed from it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from .crypto import MessageCertificate, Signer, Verifier
from .views import (
    Change,
    MINUS,
    PLUS,
    ProcessId,
    View,
    ViewError,
    seq_sort_key,
    seq_sorted,
    short_digest,
)

WIRE_VERSION = 1

TAG_RECONFIG = 0x01
TAG_REC_CONFIRM = 0x02
TAG_PROPOSE = 0x03
TAG_CONVERGED = 0x04
TAG_INSTALL = 0x05
TAG_STATE_UPDATE = 0x06
TAG_PREPARE = 0x07
TAG_ACK = 0x08
TAG_COMMIT = 0x09
TAG_DELIVER = 0x0A
TAG_HISTORY_REQUEST = 0x10
TAG_HISTORY = 0x11

KIND_NAMES = {
    TAG_RECONFIG: "RECONFIG",
    TAG_REC_CONFIRM: "REC-CONFIRM",
    TAG_PROPOSE: "PROPOSE",
    TAG_CONVERGED: "CONVERGED",
    TAG_INSTALL: "INSTALL",
    TAG_STATE_UPDATE: "STATE-UPDATE",
    TAG_PREPARE: "PREPARE",
    TAG_ACK: "ACK",
    TAG_COMMIT: "COMMIT",
    TAG_DELIVER: "DELIVER",
    TAG_HISTORY_REQUEST: "HISTORY-REQUEST",
    TAG_HISTORY: "HISTORY",
}


class CodecError(ValueError):
    pass


class Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CodecError("truncated message")
        out = self._data[self._pos:self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def blob(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        raw = self.take(self.u8())
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise CodecError("bad utf-8") from exc

    def done(self) -> bool:
        return self._pos == len(self._data)

    def expect_done(self) -> None:
        if not self.done():
            raise CodecError("trailing bytes")


class Writer:
    def __init__(self) -> None:
        self._parts: list[bytes] = []

    def raw(self, b: bytes) -> None:
        self._parts.append(b)

    def u8(self, n: int) -> None:
        self._parts.append(struct.pack(">B", n))

    def u32(self, n: int) -> None:
        self._parts.append(struct.pack(">I", n))

    def blob(self, b: bytes) -> None:
        self.u32(len(b))
        self.raw(b)

    def text(self, s: str) -> None:
        raw = s.encode()
        if len(raw) > 255:
            raise CodecError("identifier too long")
        self.u8(len(raw))
        self.raw(raw)

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


_SIGN_BYTE = {PLUS: 0x2B, MINUS: 0x2D}
_BYTE_SIGN = {0x2B: PLUS, 0x2D: MINUS}


def write_change(w: Writer, c: Change) -> None:
    w.u8(_SIGN_BYTE[c.sign])
    w.text(c.process)


def read_change(r: Reader) -> Change:
    sign = r.u8()
    if sign not in _BYTE_SIGN:
        raise CodecError("bad change sign byte")
    return Change(_BYTE_SIGN[sign], r.text())


def write_view(w: Writer, v: View) -> None:
    w.blob(v.canonical_bytes)


# Views repeat heavily on the wire; share the immutable instances.
_VIEW_CACHE: dict[bytes, View] = {}
_VIEW_CACHE_MAX = 4096


def read_view(r: Reader) -> View:
    raw = r.blob()
    cached = _VIEW_CACHE.get(raw)
    if cached is not None:
        return cached
    inner = Reader(raw)
    count = inner.u32()
    changes = []
    prev_key = None
    for _ in range(count):
        pid_raw = inner.take(inner.u8())
        sign = inner.take(1)
        key = (pid_raw, sign)
        if prev_key is not None and key <= prev_key:
            raise CodecError("view changes not canonical")
        prev_key = key
        if sign not in (b"\x2b", b"\x2d"):
            raise CodecError("bad sign byte in view")
        try:
            pid = pid_raw.decode()
        except UnicodeDecodeError as exc:
            raise CodecError("bad utf-8 in view") from exc
        changes.append(Change(PLUS if sign == b"\x2b" else MINUS, pid))
    inner.expect_done()
    view = View.of(changes)
    if view.canonical_bytes != raw:
        raise CodecError("non-canonical view encoding")
    if len(_VIEW_CACHE) < _VIEW_CACHE_MAX:
        _VIEW_CACHE[raw] = view
    return view


def write_seq(w: Writer, seq: frozenset[View]) -> None:
    ordered = seq_sorted(seq)
    w.u32(len(ordered))
    for v in ordered:
        write_view(w, v)


def read_seq(r: Reader) -> frozenset[View]:
    count = r.u32()
    views = [read_view(r) for _ in range(count)]
    keys = [seq_sort_key(v) for v in views]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise CodecError("sequence views not canonical")
    return frozenset(views)


def write_cert(w: Writer, cert: MessageCertificate) -> None:
    w.blob(cert.message_digest)
    write_view(w, cert.view)
    w.u32(len(cert.signatures))
    for pid, sig in sorted(cert.signatures):
        w.text(pid)
        w.blob(sig)


def read_cert(r: Reader) -> MessageCertificate:
    digest = r.blob()
    view = read_view(r)
    count = r.u32()
    sigs = []
    for _ in range(count):
        sigs.append((r.text(), r.blob()))
    if sigs != sorted(sigs):
        raise CodecError("certificate signatures not canonical")
    return MessageCertificate(digest, view, tuple(sigs))


@dataclass(frozen=True)
class ReconfigProof:
    """A signed reconfiguration request: the originator's proof of intent."""

    change: Change
    view: View
    signature: bytes

    def signed_bytes(self) -> bytes:
        return reconfig_signed_bytes(self.change, self.view, self.change.process)

    def verify(self, verifier: Verifier) -> bool:
        return verifier.verify(self.change.process, self.signed_bytes(), self.signature)


def write_proof(w: Writer, p: ReconfigProof) -> None:
    write_change(w, p.change)
    write_view(w, p.view)
    w.blob(p.signature)


def read_proof(r: Reader) -> ReconfigProof:
    return ReconfigProof(read_change(r), read_view(r), r.blob())


def _proof_key(p: ReconfigProof) -> tuple[ProcessId, str]:
    return (p.change.process, p.change.sign)


def write_proofs(w: Writer, proofs: tuple[ReconfigProof, ...]) -> None:
    ordered = sorted(proofs, key=_proof_key)
    w.u32(len(ordered))
    for p in ordered:
        write_proof(w, p)


def read_proofs(r: Reader) -> tuple[ReconfigProof, ...]:
    proofs = tuple(read_proof(r) for _ in range(r.u32()))
    keys = [_proof_key(p) for p in proofs]
    if keys != sorted(keys):
        raise CodecError("reconfig proofs not canonical")
    return proofs


@dataclass(frozen=True)
class PrepareEvidence:
    """A sender-signed prepare, carried inside state updates."""

    payload: bytes
    view: View
    signature: bytes


def write_prep_evidence(w: Writer, ev: PrepareEvidence) -> None:
    w.blob(ev.payload)
    write_view(w, ev.view)
    w.blob(ev.signature)


def read_prep_evidence(r: Reader) -> PrepareEvidence:
    return PrepareEvidence(r.blob(), read_view(r), r.blob())


@dataclass(frozen=True)
class StoredEvidence:
    """Certificate-backed stored message, carried inside state updates."""

    payload: bytes
    cert: MessageCertificate
    v_cer: View
    assoc_view: View


def write_stored_evidence(w: Writer, ev: StoredEvidence) -> None:
    w.blob(ev.payload)
    write_cert(w, ev.cert)
    write_view(w, ev.v_cer)
    write_view(w, ev.assoc_view)


def read_stored_evidence(r: Reader) -> StoredEvidence:
    return StoredEvidence(r.blob(), read_cert(r), read_view(r), read_view(r))


@dataclass(frozen=True)
class StateRecord:
    ack: Optional[PrepareEvidence] = None
    conflicting: Optional[tuple[PrepareEvidence, PrepareEvidence]] = None
    stored: Optional[StoredEvidence] = None


def write_state_record(w: Writer, rec: StateRecord) -> None:
    flags = (1 if rec.ack else 0) | (2 if rec.conflicting else 0) | (4 if rec.stored else 0)
    w.u8(flags)
    if rec.ack:
        write_prep_evidence(w, rec.ack)
    if rec.conflicting:
        write_prep_evidence(w, rec.conflicting[0])
        write_prep_evidence(w, rec.conflicting[1])
    if rec.stored:
        write_stored_evidence(w, rec.stored)


def read_state_record(r: Reader) -> StateRecord:
    flags = r.u8()
    if flags > 7:
        raise CodecError("unknown state record flags")
    ack = read_prep_evidence(r) if flags & 1 else None
    conflicting = (read_prep_evidence(r), read_prep_evidence(r)) if flags & 2 else None
    stored = read_stored_evidence(r) if flags & 4 else None
    return StateRecord(ack, conflicting, stored)


def write_pids(w: Writer, pids: tuple[ProcessId, ...]) -> None:
    ordered = sorted(pids)
    w.u32(len(ordered))
    for pid in ordered:
        w.text(pid)


def read_pids(r: Reader) -> tuple[ProcessId, ...]:
    pids = tuple(r.text() for _ in range(r.u32()))
    if list(pids) != sorted(pids):
        raise CodecError("process ids not canonical")
    return pids


# --- message bodies ---------------------------------------------------------


@dataclass(frozen=True)
class Reconfig:
    TAG = TAG_RECONFIG
    change: Change
    view: View

    def write_body(self, w: Writer) -> None:
        write_change(w, self.change)
        write_view(w, self.view)

    @classmethod
    def read_body(cls, r: Reader) -> "Reconfig":
        return cls(read_change(r), read_view(r))


@dataclass(frozen=True)
class RecConfirm:
    TAG = TAG_REC_CONFIRM
    view: View

    def write_body(self, w: Writer) -> None:
        write_view(w, self.view)

    @classmethod
    def read_body(cls, r: Reader) -> "RecConfirm":
        return cls(read_view(r))


@dataclass(frozen=True)
class Propose:
    TAG = TAG_PROPOSE
    seq: frozenset[View]
    view: View
    proofs: tuple[ReconfigProof, ...] = ()

    def write_body(self, w: Writer) -> None:
        write_seq(w, self.seq)
        write_view(w, self.view)
        write_proofs(w, self.proofs)

    @classmethod
    def read_body(cls, r: Reader) -> "Propose":
        return cls(read_seq(r), read_view(r), read_proofs(r))


@dataclass(frozen=True)
class Converged:
    TAG = TAG_CONVERGED
    seq: frozenset[View]
    view: View

    def write_body(self, w: Writer) -> None:
        write_seq(w, self.seq)
        write_view(w, self.view)

    @classmethod
    def read_body(cls, r: Reader) -> "Converged":
        return cls(read_seq(r), read_view(r))


@dataclass(frozen=True)
class Install:
    TAG = TAG_INSTALL
    psi: tuple[ProcessId, ...]
    omega: View
    seq: frozenset[View]
    view: View  # the replaced view
    converged_sigs: tuple[tuple[ProcessId, bytes], ...]
    proofs: tuple[ReconfigProof, ...] = ()

    def write_body(self, w: Writer) -> None:
        write_pids(w, self.psi)
        write_view(w, self.omega)
        write_seq(w, self.seq)
        write_view(w, self.view)
        w.u32(len(self.converged_sigs))
        for pid, sig in sorted(self.converged_sigs):
            w.text(pid)
            w.blob(sig)
        write_proofs(w, self.proofs)

    @classmethod
    def read_body(cls, r: Reader) -> "Install":
        psi = read_pids(r)
        omega = read_view(r)
        seq = read_seq(r)
        view = read_view(r)
        sigs = tuple((r.text(), r.blob()) for _ in range(r.u32()))
        if list(sigs) != sorted(sigs):
            raise CodecError("converged signatures not canonical")
        proofs = read_proofs(r)
        return cls(psi, omega, seq, view, sigs, proofs)


@dataclass(frozen=True)
class StateUpdate:
    TAG = TAG_STATE_UPDATE
    psi: tuple[ProcessId, ...]
    view: View  # the replaced view this update is associated with
    omega: View
    record: StateRecord
    recv: tuple[ReconfigProof, ...]

    def write_body(self, w: Writer) -> None:
        write_pids(w, self.psi)
        write_view(w, self.view)
        write_view(w, self.omega)
        write_state_record(w, self.record)
        write_proofs(w, self.recv)

    @classmethod
    def read_body(cls, r: Reader) -> "StateUpdate":
        return cls(read_pids(r), read_view(r), read_view(r),
                   read_state_record(r), read_proofs(r))


@dataclass(frozen=True)
class Prepare:
    TAG = TAG_PREPARE
    payload: bytes
    view: View

    def write_body(self, w: Writer) -> None:
        w.blob(self.payload)
        write_view(w, self.view)

    @classmethod
    def read_body(cls, r: Reader) -> "Prepare":
        return cls(r.blob(), read_view(r))


@dataclass(frozen=True)
class Ack:
    TAG = TAG_ACK
    payload: bytes
    signature: bytes  # over ack_payload(digest(payload), view)
    view: View

    def write_body(self, w: Writer) -> None:
        w.blob(self.payload)
        w.blob(self.signature)
        write_view(w, self.view)

    @classmethod
    def read_body(cls, r: Reader) -> "Ack":
        return cls(r.blob(), r.blob(), read_view(r))


@dataclass(frozen=True)
class Commit:
    TAG = TAG_COMMIT
    payload: bytes
    cert: MessageCertificate
    v_cer: View
    view: View

    def write_body(self, w: Writer) -> None:
        w.blob(self.payload)
        write_cert(w, self.cert)
        write_view(w, self.v_cer)
        write_view(w, self.view)

    @classmethod
    def read_body(cls, r: Reader) -> "Commit":
        return cls(r.blob(), read_cert(r), read_view(r), read_view(r))


@dataclass(frozen=True)
class Deliver:
    TAG = TAG_DELIVER
    payload: bytes
    view: View

    def write_body(self, w: Writer) -> None:
        w.blob(self.payload)
        write_view(w, self.view)

    @classmethod
    def read_body(cls, r: Reader) -> "Deliver":
        return cls(r.blob(), read_view(r))


@dataclass(frozen=True)
class HistoryRequest:
    TAG = TAG_HISTORY_REQUEST

    def write_body(self, w: Writer) -> None:
        pass

    @classmethod
    def read_body(cls, r: Reader) -> "HistoryRequest":
        return cls()


@dataclass(frozen=True)
class ViewHistory:
    """Alternating chain v0, m0, v1, m1, ... vn rooted at the initial view."""

    views: tuple[View, ...]
    links: tuple[Install, ...] = ()

    def __post_init__(self) -> None:
        if len(self.views) != len(self.links) + 1:
            raise CodecError("history arity mismatch")

    def extended(self, link: Install) -> "ViewHistory":
        return ViewHistory(self.views + (link.omega,), self.links + (link,))


def write_history(w: Writer, h: ViewHistory) -> None:
    w.u32(len(h.views))
    write_view(w, h.views[0])
    for link in h.links:
        inner = Writer()
        link.write_body(inner)
        w.blob(inner.getvalue())


def read_history(r: Reader, bodies: Optional[dict] = None) -> ViewHistory:
    """Each link is an INSTALL body, parsed through `_parse_body`'s memo."""
    count = r.u32()
    if count == 0:
        raise CodecError("empty history")
    first = read_view(r)
    views = [first]
    links = []
    for _ in range(count - 1):
        link = _parse_body(TAG_INSTALL, r.blob(), bodies)
        links.append(link)
        views.append(link.omega)
    return ViewHistory(tuple(views), tuple(links))


@dataclass(frozen=True)
class HistoryGossip:
    TAG = TAG_HISTORY
    history: ViewHistory

    def write_body(self, w: Writer) -> None:
        write_history(w, self.history)

    @classmethod
    def read_body(cls, r: Reader, bodies: Optional[dict] = None) -> "HistoryGossip":
        return cls(read_history(r, bodies))


Message = (
    Reconfig | RecConfirm | Propose | Converged | Install | StateUpdate
    | Prepare | Ack | Commit | Deliver | HistoryRequest | HistoryGossip
)

_CLASSES = {
    cls.TAG: cls
    for cls in (Reconfig, RecConfirm, Propose, Converged, Install, StateUpdate,
                Prepare, Ack, Commit, Deliver, HistoryRequest, HistoryGossip)
}


def body_bytes(msg: Message) -> bytes:
    w = Writer()
    msg.write_body(w)
    return w.getvalue()


def _signed_content(tag: int, body: bytes, author: ProcessId) -> bytes:
    w = Writer()
    w.u8(WIRE_VERSION)
    w.u8(tag)
    w.blob(body)
    w.text(author)
    return w.getvalue()


def encode(msg: Message, signer: Signer) -> bytes:
    body = body_bytes(msg)
    content = _signed_content(msg.TAG, body, signer.pid)
    sig = signer.sign(content)
    w = Writer()
    w.raw(content)
    w.blob(sig)
    return w.getvalue()


@dataclass(frozen=True)
class Decoded:
    msg: Message
    author: ProcessId
    kind: str
    signature: bytes
    body: bytes  # as received; equal to body_bytes(msg)


def _parse_body(tag: int, body: bytes, bodies: Optional[dict] = None) -> Message:
    """Parse one body of a known tag; raises CodecError on any defect.

    `bodies` maps (tag, body) to the message parsed from it.  Parsing is a
    pure function of those two, so a body found there is not parsed again,
    and each body that parses is added; one that fails never is.
    """
    key = (tag, body)
    if bodies is not None:
        msg = bodies.get(key)
        if msg is not None:
            return msg
    cls = _CLASSES[tag]
    r = Reader(body)
    try:
        # history links are INSTALL bodies and parse through the same memo
        msg = cls.read_body(r, bodies) if tag == TAG_HISTORY else cls.read_body(r)
    except ViewError as exc:  # oversized or malformed view payloads
        raise CodecError(str(exc)) from exc
    r.expect_done()
    if bodies is not None:
        bodies[key] = msg
    return msg


def decode(raw: bytes, verifier: Verifier, bodies: Optional[dict] = None) -> Decoded:
    """Parse and authenticate a framed message; raises CodecError on any defect.

    The envelope signature is checked before the body is looked up in, or
    parsed into, the `bodies` memo of `_parse_body`.
    """
    r = Reader(raw)
    version = r.u8()
    if version != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {version}")
    tag = r.u8()
    if tag not in _CLASSES:
        raise CodecError(f"unknown tag 0x{tag:02x}")
    body = r.blob()
    author = r.text()
    sig = r.blob()
    r.expect_done()
    content = _signed_content(tag, body, author)
    if not verifier.verify(author, content, sig):
        raise CodecError("bad envelope signature")
    return Decoded(_parse_body(tag, body, bodies), author, KIND_NAMES[tag], sig, body)


def reconfig_signed_bytes(change: Change, view: View, author: ProcessId) -> bytes:
    """Signed content of a reconfig message, reconstructable from a proof."""
    return _signed_content(TAG_RECONFIG, body_bytes(Reconfig(change, view)), author)


def converged_signed_bytes(seq: frozenset[View], view: View, author: ProcessId) -> bytes:
    """Signed content of a converged message, used to check install proofs."""
    return _signed_content(TAG_CONVERGED, body_bytes(Converged(seq, view)), author)


def prepare_signed_bytes(payload: bytes, view: View, author: ProcessId) -> bytes:
    return _signed_content(TAG_PREPARE, body_bytes(Prepare(payload, view)), author)


def message_meta(msg: Message) -> dict:
    """Trace metadata: kind plus short digests of the associated view/payload."""
    kind = KIND_NAMES[msg.TAG]
    view = getattr(msg, "view", None)
    payload = getattr(msg, "payload", None)
    meta = {"msg": kind}
    if view is not None:
        meta["view"] = view.short
    if payload is not None:
        meta["payload"] = short_digest(payload)
    if isinstance(msg, Install):
        meta["view"] = msg.view.short
        meta["omega"] = msg.omega.short
    return meta
