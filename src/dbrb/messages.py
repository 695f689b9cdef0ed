"""Wire schema: tagged binary encoding for every protocol message.

Links are authenticated (`Receive.sender` is the true sender), so a frame
is signed only if a third party must check its author.  The kinds in
`SIGNED_TAGS` are such evidence: RECONFIG (a `ReconfigProof`), CONVERGED
(install proofs) and PREPARE (ack evidence in state records).  Their
frames are

    version(1) | tag(1) | body-len(4) | body | author | signature

and the author signs all but the signature, so they cannot be
re-attributed.  Any other kind is framed version|tag|body-len|body and
counts for its link sender, so a replayed copy is the replayer's own
message: ACK carries its own signature, COMMIT a certificate, HISTORY
install-proved links, INSTALL is author-agnostic and quorum-proved, and
STATE-UPDATE goes straight from its author to each target, never
relayed (see `rmulticast`).

The dataclass fields of each message kind are its schema: a body is
those fields in declaration order, each in the encoding `FIELD_CODECS`
gives its annotated type, and nested records are laid out the same way.
All collections inside bodies are canonically ordered, making the
encoding bit-exact for equal values, and `decode` accepts only that
canonical encoding, in its tag's layout: a decoded body always equals
the re-encoding of the message parsed from it.

So each message value derives its body once: a parsed value keeps the
body it was parsed from, any other value the body it is first encoded
to (`body_bytes`).  `encode`, history links, the install-proof memo and
reliable multicast all use that body, and `decode` takes the signed
content as a prefix of the frame instead of building it again.

Each fact is sent once (since wire version 3).  What a receiver can
derive is not a field: an install's omega is the least view of its
sequence (`Install.omega`), the targets of an install or a state update
are the members of view and omega (`rm_targets`), a certificate's view
is the certified view and its digest that of the payload beside it, and
each view of a history after the root is the omega of the link before
it.  A change is `len | pid | sign` (`Change.canonical_bytes`), as a
field and inside a view.  Wire version 4 frames STATE-UPDATE without
author and signature.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, NoReturn, Optional, get_args

from .crypto import MessageCertificate, Signatures, Signer, Verifier
from .views import (
    Change,
    MINUS,
    PLUS,
    ProcessId,
    View,
    ViewError,
    id_bytes,
    intern_change,
    least_recent,
    seq_sort_key,
    seq_sorted,
    short_digest,
)

WIRE_VERSION = 4

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

# The kinds whose frames carry their author and signature; see the module doc.
SIGNED_TAGS = frozenset({TAG_RECONFIG, TAG_CONVERGED, TAG_PREPARE})


class CodecError(ValueError):
    pass


_U32 = struct.Struct(">I")
_HEAD = struct.Struct(">BBI")  # version, tag, body length


class Reader:
    """Cursor over one byte string; each read checks the bytes are there.

    `bodies` is the memo of `_parse_body`, handed on to history links.
    """

    def __init__(self, data: bytes, pos: int = 0, bodies: Optional[dict] = None) -> None:
        self.data = data
        self.pos = pos
        self.bodies = bodies

    def take(self, n: int) -> bytes:
        pos = self.pos
        end = pos + n
        if end > len(self.data):
            raise CodecError("truncated message")
        self.pos = end
        return self.data[pos:end]

    def u8(self) -> int:
        pos = self.pos
        if pos >= len(self.data):
            raise CodecError("truncated message")
        self.pos = pos + 1
        return self.data[pos]

    def u32(self) -> int:
        pos = self.pos
        if pos + 4 > len(self.data):
            raise CodecError("truncated message")
        self.pos = pos + 4
        return _U32.unpack_from(self.data, pos)[0]

    def blob(self) -> bytes:
        data, pos = self.data, self.pos
        if pos + 4 > len(data):
            raise CodecError("truncated message")
        start = pos + 4
        end = start + _U32.unpack_from(data, pos)[0]
        if end > len(data):
            raise CodecError("truncated message")
        self.pos = end
        return data[start:end]

    def text(self) -> str:
        data, pos = self.data, self.pos
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

    def expect_done(self) -> None:
        if self.pos != len(self.data):
            raise CodecError("trailing bytes")


# --- records and message kinds ------------------------------------------------
#
# The field annotations below are the wire schema; see `FIELD_CODECS`.

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
            signed = self.__dict__["_signed"] = _signed_content(
                TAG_RECONFIG, _proof_body(self), self.change.process)
        return signed

    def verify(self, verifier: Verifier) -> bool:
        return verifier.verify(self.change.process, self.signed_bytes(), self.signature)


@dataclass(frozen=True)
class PrepareEvidence:
    """A sender-signed prepare, carried inside state updates."""

    payload: bytes
    view: View
    signature: bytes


@dataclass(frozen=True)
class StoredEvidence:
    """Certificate-backed stored message, carried inside state updates."""

    payload: bytes
    cert: MessageCertificate  # certifies payload in cert.view
    assoc_view: View


@dataclass(frozen=True)
class StateRecord:
    """On the wire: a flag byte naming the parts present, then those parts."""

    ack: Optional[PrepareEvidence] = None
    conflicting: Optional[tuple[PrepareEvidence, PrepareEvidence]] = None
    stored: Optional[StoredEvidence] = None


@dataclass(frozen=True)
class Reconfig:
    TAG = TAG_RECONFIG
    change: Change
    view: View


@dataclass(frozen=True)
class RecConfirm:
    TAG = TAG_REC_CONFIRM
    view: View


@dataclass(frozen=True)
class Propose:
    TAG = TAG_PROPOSE
    seq: frozenset[View]
    view: View
    proofs: tuple[ReconfigProof, ...] = ()


@dataclass(frozen=True)
class Converged:
    TAG = TAG_CONVERGED
    seq: frozenset[View]
    view: View


@dataclass(frozen=True)
class Install:
    TAG = TAG_INSTALL
    seq: frozenset[View]
    view: View  # the replaced view
    converged_sigs: Signatures
    proofs: tuple[ReconfigProof, ...] = ()

    @cached_property
    def omega(self) -> View:
        """The install's target, the least view of seq; read it only once
        the install proof holds, which checks that seq is a sequence."""
        return least_recent(self.seq)


@dataclass(frozen=True)
class StateUpdate:
    TAG = TAG_STATE_UPDATE
    view: View  # the replaced view this update is associated with
    omega: View
    record: StateRecord
    recv: tuple[ReconfigProof, ...]


@dataclass(frozen=True)
class Prepare:
    TAG = TAG_PREPARE
    payload: bytes
    view: View


@dataclass(frozen=True)
class Ack:
    TAG = TAG_ACK
    payload: bytes
    signature: bytes  # over ack_payload(digest(payload), view)
    view: View


@dataclass(frozen=True)
class Commit:
    TAG = TAG_COMMIT
    payload: bytes
    cert: MessageCertificate  # certifies payload in cert.view
    view: View


@dataclass(frozen=True)
class Deliver:
    TAG = TAG_DELIVER
    payload: bytes
    view: View


@dataclass(frozen=True)
class HistoryRequest:
    TAG = TAG_HISTORY_REQUEST


@dataclass(frozen=True)
class ViewHistory:
    """Alternating chain v0, m0, v1, m1, ... vn rooted at the initial view.

    Only v0 is carried: each later view is the omega of the link before it.
    On the wire: v0, the link count, then each link's INSTALL body as a blob.
    """

    root: View
    links: tuple[Install, ...] = ()

    def extended(self, link: Install) -> "ViewHistory":
        return ViewHistory(self.root, self.links + (link,))


@dataclass(frozen=True)
class HistoryGossip:
    TAG = TAG_HISTORY
    history: ViewHistory


Message = (
    Reconfig | RecConfirm | Propose | Converged | Install | StateUpdate
    | Prepare | Ack | Commit | Deliver | HistoryRequest | HistoryGossip
)


def rm_targets(msg: Install | StateUpdate) -> list[ProcessId]:
    """The processes an install or a state update goes to, derived alike by
    every receiver: the sorted members of msg's replaced view and of its
    omega.  An install's omega is derived from its sequence, so read this
    only once the install proof holds."""
    return sorted(msg.view.member_set | msg.omega.member_set)


# --- field codecs -------------------------------------------------------------
#
# A codec is a (write, read) pair: write maps a value to its bytes, read
# takes the value from a Reader and raises CodecError at the first defect.

Codec = tuple[Callable[[object], bytes], Callable[[Reader], object]]


def _blob(b: bytes) -> bytes:
    return _U32.pack(len(b)) + b


_BYTE_SIGN = {0x2B: PLUS, 0x2D: MINUS}


def _read_change(r: Reader) -> Change:
    """The reverse of `Change.canonical_bytes`: len | pid | sign."""
    pid = r.text()
    sign = _BYTE_SIGN.get(r.u8())
    if sign is None:
        raise CodecError("bad change sign byte")
    return intern_change(sign, pid)


def _write_view(v: View) -> bytes:
    return _blob(v.canonical_bytes)


# Views repeat heavily on the wire; share the immutable instances.
_VIEW_CACHE: dict[bytes, View] = {}
_VIEW_CACHE_MAX = 4096


def _read_view(r: Reader) -> View:
    raw = r.blob()
    cached = _VIEW_CACHE.get(raw)
    if cached is not None:
        return cached
    inner = Reader(raw)
    changes = [_read_change(inner) for _ in range(inner.u32())]
    inner.expect_done()
    view = View.of(changes)
    if view.canonical_bytes != raw:  # misordered or repeated changes
        raise CodecError("non-canonical view encoding")
    if len(_VIEW_CACHE) < _VIEW_CACHE_MAX:
        _VIEW_CACHE[raw] = view
    return view


def _write_seq(seq: frozenset[View]) -> bytes:
    ordered = seq_sorted(seq)
    return _U32.pack(len(ordered)) + b"".join(map(_write_view, ordered))


def _read_seq(r: Reader) -> frozenset[View]:
    views = [_read_view(r) for _ in range(r.u32())]
    keys = [seq_sort_key(v) for v in views]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise CodecError("sequence views not canonical")
    return frozenset(views)


def _sorted_tuple(item: Codec, error: str, key=None) -> Codec:
    """A count, then the items in sorted order; a read in any other order
    raises `error` once every item is read."""
    write_item, read_item = item

    def write(items: tuple) -> bytes:
        ordered = sorted(items, key=key)
        return _U32.pack(len(ordered)) + b"".join(map(write_item, ordered))

    def read(r: Reader) -> tuple:
        items = tuple([read_item(r) for _ in range(r.u32())])
        keys = list(items) if key is None else [key(i) for i in items]
        if keys != sorted(keys):
            raise CodecError(error)
        return items

    return write, read


def _proof_body(p: ReconfigProof) -> bytes:
    """The RECONFIG body p's originator signed, change then view: the slice
    a parsed proof was read from, or else derived once and kept."""
    body = p.__dict__.get("_body")
    if body is None:
        body = p.__dict__["_body"] = p.change.canonical_bytes + _write_view(p.view)
    return body


def _read_proof(r: Reader) -> ReconfigProof:
    start = r.pos
    change = _read_change(r)
    view = _read_view(r)
    body = r.data[start:r.pos]
    proof = ReconfigProof(change, view, r.blob())
    proof.__dict__["_body"] = body
    return proof


def _proof_key(p: ReconfigProof) -> tuple[ProcessId, str]:
    return (p.change.process, p.change.sign)


_SIGNATURE: Codec = (lambda pair: id_bytes(pair[0]) + _blob(pair[1]),
                     lambda r: (r.text(), r.blob()))


def _write_record(rec: StateRecord) -> bytes:
    flags = (1 if rec.ack else 0) | (2 if rec.conflicting else 0) | (4 if rec.stored else 0)
    parts = [bytes((flags,))]
    if rec.ack:
        parts.append(_PREP_EVIDENCE[0](rec.ack))
    if rec.conflicting:
        parts.extend(map(_PREP_EVIDENCE[0], rec.conflicting))
    if rec.stored:
        parts.append(_STORED_EVIDENCE[0](rec.stored))
    return b"".join(parts)


def _read_record(r: Reader) -> StateRecord:
    flags = r.u8()
    if flags > 7:
        raise CodecError("unknown state record flags")
    read_prep = _PREP_EVIDENCE[1]
    ack = read_prep(r) if flags & 1 else None
    conflicting = (read_prep(r), read_prep(r)) if flags & 2 else None
    stored = _STORED_EVIDENCE[1](r) if flags & 4 else None
    return StateRecord(ack, conflicting, stored)


def _write_links(links: tuple[Install, ...]) -> bytes:
    return _U32.pack(len(links)) + b"".join([_blob(body_bytes(link)) for link in links])


def _read_links(r: Reader) -> tuple[Install, ...]:
    """Each link is an INSTALL body, parsed through `_parse_body`'s memo."""
    return tuple([_parse_body(TAG_INSTALL, r.blob(), r.bodies) for _ in range(r.u32())])


# One codec per field type, keyed by the annotation as written.
FIELD_CODECS: dict[str, Codec] = {
    "bytes": (_blob, Reader.blob),
    "Change": (lambda c: c.canonical_bytes, _read_change),
    "View": (_write_view, _read_view),
    "frozenset[View]": (_write_seq, _read_seq),
    "tuple[ReconfigProof, ...]": _sorted_tuple(
        (lambda p: _proof_body(p) + _blob(p.signature), _read_proof),
        "reconfig proofs not canonical", key=_proof_key),
    "Signatures": _sorted_tuple(_SIGNATURE, "signatures not canonical"),
    "StateRecord": (_write_record, _read_record),
    "tuple[Install, ...]": (_write_links, _read_links),
}


def _fields_codec(cls) -> Codec:
    """The codec of a record or message kind: its fields in declaration
    order, each through the codec of its type, bound once."""
    puts = tuple((f.name, FIELD_CODECS[f.type][0]) for f in fields(cls))
    gets = tuple(FIELD_CODECS[f.type][1] for f in fields(cls))

    def write(value) -> bytes:
        return b"".join([put(getattr(value, name)) for name, put in puts])

    def read(r: Reader):
        return cls(*[get(r) for get in gets])

    return write, read


FIELD_CODECS["MessageCertificate"] = _fields_codec(MessageCertificate)
FIELD_CODECS["ViewHistory"] = _fields_codec(ViewHistory)
_PREP_EVIDENCE = _fields_codec(PrepareEvidence)
_STORED_EVIDENCE = _fields_codec(StoredEvidence)

# The body codec of each message kind, by tag.
KIND_CODECS: dict[int, Codec] = {cls.TAG: _fields_codec(cls) for cls in get_args(Message)}


# A value derives its body and (for a ReconfigProof) its signed content
# once, and keeps each in its instance dict under a private name.  Outside
# the dataclass fields, the kept values take no part in ==, hash or repr;
# a value with other fields (`dataclasses.replace`) starts with none.


def body_bytes(msg: Message) -> bytes:
    """The canonical body of msg: the one it was parsed from, or else the
    one it was first encoded to."""
    body = msg.__dict__.get("_body")
    if body is None:
        body = msg.__dict__["_body"] = KIND_CODECS[msg.TAG][0](msg)
    return body


def _signed_content(tag: int, body: bytes, author: ProcessId) -> bytes:
    return b"".join((_HEAD.pack(WIRE_VERSION, tag, len(body)), body, id_bytes(author)))


def signed_content(msg: Message, author: ProcessId) -> bytes:
    """The bytes author signs to send msg: version|tag|body-len|body|author."""
    return _signed_content(msg.TAG, body_bytes(msg), author)


def encode(msg: Message, signer: Signer) -> bytes:
    """The frame of msg, signed by signer's process if its kind is signed."""
    if msg.TAG not in SIGNED_TAGS:
        body = body_bytes(msg)
        return _HEAD.pack(WIRE_VERSION, msg.TAG, len(body)) + body
    content = signed_content(msg, signer.pid)
    sig = signer.sign(content)
    return b"".join((content, _U32.pack(len(sig)), sig))


@dataclass(frozen=True)
class Decoded:
    msg: Message
    author: Optional[ProcessId]  # None for a link-only kind: its link sender
    signature: bytes  # empty for a link-only kind


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
    r = Reader(body, 0, bodies)
    try:
        msg = KIND_CODECS[tag][1](r)
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
    if len(head) > 1 and head[1] not in KIND_CODECS:
        raise CodecError(f"unknown tag 0x{head[1]:02x}")
    raise CodecError("truncated message")


def decode(raw: bytes, verifier: Verifier, bodies: Optional[dict] = None) -> Decoded:
    """Parse a framed message, and authenticate it if its kind is signed;
    raises CodecError on any defect.

    The signed content is the frame up to the end of the author.  The
    envelope signature is checked before the body is looked up in, or
    parsed into, the `bodies` memo of `_parse_body`.
    """
    if len(raw) < _HEAD.size:
        _reject_head(raw)
    version, tag, size = _HEAD.unpack_from(raw)
    if version != WIRE_VERSION or tag not in KIND_CODECS:
        _reject_head(raw[:2])
    r = Reader(raw, _HEAD.size)
    body = r.take(size)
    author = r.text() if tag in SIGNED_TAGS else None
    signed_end = r.pos
    sig = b"" if author is None else r.blob()
    r.expect_done()
    if author is not None and not verifier.verify(author, raw[:signed_end], sig):
        raise CodecError("bad envelope signature")
    return Decoded(_parse_body(tag, body, bodies), author, sig)


def message_meta(msg: Message) -> dict:
    """Trace metadata: kind plus short digests of the associated view/payload."""
    view = getattr(msg, "view", None)
    payload = getattr(msg, "payload", None)
    meta = {"msg": KIND_NAMES[msg.TAG]}
    if view is not None:
        meta["view"] = view.short
    if payload is not None:
        meta["payload"] = short_digest(payload)
    return meta
