"""Wire schema: tagged binary encoding for every protocol message.

Layout of a framed message:

    version(1) | tag(1) | body-len(4) | body | author | signature

The author signs version|tag|body|author, so a message cannot be
re-attributed.  All collections inside bodies are canonically ordered,
making the encoding bit-exact for equal values, and `decode` accepts
only that canonical encoding: a decoded body always equals the
re-encoding of the message parsed from it.

So each message value derives its body once: a parsed value keeps the
body it was parsed from, any other value the body it is first encoded
to (`body_bytes`).  `encode`, history links, the install-proof memo and
reliable multicast all use that body, and `decode` takes the signed
content as a prefix of the frame instead of building it again.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NoReturn, Optional

from .crypto import MessageCertificate, Signer, Verifier
from .views import (
    Change,
    MINUS,
    PLUS,
    ProcessId,
    View,
    ViewError,
    intern_change,
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


_U32 = struct.Struct(">I")
_HEAD = struct.Struct(">BBI")  # version, tag, body length


class Reader:
    """Cursor over one byte string; each read checks the bytes are there."""

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self.pos = pos

    def take(self, n: int) -> bytes:
        pos = self.pos
        end = pos + n
        if end > len(self._data):
            raise CodecError("truncated message")
        self.pos = end
        return self._data[pos:end]

    def u8(self) -> int:
        pos = self.pos
        if pos >= len(self._data):
            raise CodecError("truncated message")
        self.pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        pos = self.pos
        if pos + 4 > len(self._data):
            raise CodecError("truncated message")
        self.pos = pos + 4
        return _U32.unpack_from(self._data, pos)[0]

    def blob(self) -> bytes:
        data, pos = self._data, self.pos
        if pos + 4 > len(data):
            raise CodecError("truncated message")
        start = pos + 4
        end = start + _U32.unpack_from(data, pos)[0]
        if end > len(data):
            raise CodecError("truncated message")
        self.pos = end
        return data[start:end]

    def text(self) -> str:
        data, pos = self._data, self.pos
        if pos >= len(data):
            raise CodecError("truncated message")
        end = pos + 1 + data[pos]
        if end > len(data):
            raise CodecError("truncated message")
        self.pos = end
        try:
            return data[pos + 1:end].decode()
        except UnicodeDecodeError as exc:
            raise CodecError("bad utf-8") from exc

    def done(self) -> bool:
        return self.pos == len(self._data)

    def expect_done(self) -> None:
        if not self.done():
            raise CodecError("trailing bytes")


def _text_bytes(s: str) -> bytes:
    """A length-prefixed identifier."""
    raw = s.encode()
    if len(raw) > 255:
        raise CodecError("identifier too long")
    return bytes((len(raw),)) + raw


class Writer:
    def __init__(self) -> None:
        self._buf = bytearray()

    def raw(self, b: bytes) -> None:
        self._buf += b

    def u8(self, n: int) -> None:
        self._buf.append(n)

    def u32(self, n: int) -> None:
        self._buf += _U32.pack(n)

    def blob(self, b: bytes) -> None:
        self._buf += _U32.pack(len(b))
        self._buf += b

    def text(self, s: str) -> None:
        self._buf += _text_bytes(s)

    def getvalue(self) -> bytes:
        return bytes(self._buf)


_SIGN_BYTE = {PLUS: 0x2B, MINUS: 0x2D}
_BYTE_SIGN = {0x2B: PLUS, 0x2D: MINUS}


def write_change(w: Writer, c: Change) -> None:
    w.u8(_SIGN_BYTE[c.sign])
    w.text(c.process)


def read_change(r: Reader) -> Change:
    sign = r.u8()
    if sign not in _BYTE_SIGN:
        raise CodecError("bad change sign byte")
    return intern_change(_BYTE_SIGN[sign], r.text())


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
        changes.append(intern_change(PLUS if sign == b"\x2b" else MINUS, pid))
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
        """The originator's signed content, derived once and kept (see `body_bytes`)."""
        signed = self.__dict__.get("_signed")
        if signed is None:
            signed = self.__dict__["_signed"] = reconfig_signed_bytes(
                self.change, self.view, self.change.process)
        return signed

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
        w.blob(body_bytes(link))


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


# A value derives its body, its trace metadata and (for a ReconfigProof)
# its signed content once, and keeps each in its instance dict under a
# private name.  Outside the dataclass fields, the kept values take no part
# in ==, hash, repr or `Node.state_digest`; a value with other fields
# (`dataclasses.replace`) starts with none.


def body_bytes(msg: Message) -> bytes:
    """The canonical body of msg: the one it was parsed from, or else the
    one it was first encoded to."""
    body = msg.__dict__.get("_body")
    if body is None:
        w = Writer()
        msg.write_body(w)
        body = msg.__dict__["_body"] = w.getvalue()
    return body


def _signed_content(tag: int, body: bytes, author: ProcessId) -> bytes:
    return b"".join((_HEAD.pack(WIRE_VERSION, tag, len(body)), body, _text_bytes(author)))


def signed_content(msg: Message, author: ProcessId) -> bytes:
    """The bytes author signs to send msg: version|tag|body-len|body|author."""
    return _signed_content(msg.TAG, body_bytes(msg), author)


def encode(msg: Message, signer: Signer) -> bytes:
    content = signed_content(msg, signer.pid)
    sig = signer.sign(content)
    return b"".join((content, _U32.pack(len(sig)), sig))


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
    msg.__dict__["_body"] = body
    if bodies is not None:
        bodies[key] = msg
    return msg


def _reject_head(head: bytes) -> NoReturn:
    """Raise the error for the first missing or bad field of a frame header."""
    if head and head[0] != WIRE_VERSION:
        raise CodecError(f"unsupported wire version {head[0]}")
    if len(head) > 1 and head[1] not in _CLASSES:
        raise CodecError(f"unknown tag 0x{head[1]:02x}")
    raise CodecError("truncated message")


def decode(raw: bytes, verifier: Verifier, bodies: Optional[dict] = None) -> Decoded:
    """Parse and authenticate a framed message; raises CodecError on any defect.

    The signed content is the frame up to the end of the author.  The
    envelope signature is checked before the body is looked up in, or
    parsed into, the `bodies` memo of `_parse_body`.
    """
    if len(raw) < _HEAD.size:
        _reject_head(raw)
    version, tag, size = _HEAD.unpack_from(raw)
    if version != WIRE_VERSION or tag not in _CLASSES:
        _reject_head(raw[:2])
    r = Reader(raw, _HEAD.size)
    body = r.take(size)
    author = r.text()
    signed_end = r.pos
    sig = r.blob()
    r.expect_done()
    if not verifier.verify(author, raw[:signed_end], sig):
        raise CodecError("bad envelope signature")
    return Decoded(_parse_body(tag, body, bodies), author, KIND_NAMES[tag], sig, body)


def reconfig_signed_bytes(change: Change, view: View, author: ProcessId) -> bytes:
    """Signed content of a reconfig message, reconstructable from a proof."""
    return signed_content(Reconfig(change, view), author)


def converged_signed_bytes(seq: frozenset[View], view: View, author: ProcessId) -> bytes:
    """Signed content of a converged message, used to check install proofs."""
    return signed_content(Converged(seq, view), author)


def prepare_signed_bytes(payload: bytes, view: View, author: ProcessId) -> bytes:
    return signed_content(Prepare(payload, view), author)


def message_meta(msg: Message) -> dict:
    """Trace metadata: kind plus short digests of the associated view/payload.

    Derived once per value and kept; callers copy it before changing it.
    """
    meta = msg.__dict__.get("_meta")
    if meta is not None:
        return meta
    view = getattr(msg, "view", None)
    payload = getattr(msg, "payload", None)
    meta = {"msg": KIND_NAMES[msg.TAG]}
    if view is not None:
        meta["view"] = view.short
    if payload is not None:
        meta["payload"] = short_digest(payload)
    if isinstance(msg, Install):
        meta["omega"] = msg.omega.short
    msg.__dict__["_meta"] = meta
    return meta
