"""Wire schema: tagged binary encoding for every protocol message.

Links are authenticated (`Receive.sender` is the true sender), so a frame
is signed only if a third party must check its author.  The kinds in
`SIGNED_TAGS` are such evidence: RECONFIG (reconfig proofs), CONVERGED
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

Evidence is the message it proves.  A third party holds a signed kind's
message with its author's signature as a `Signed` value, laid out as the
message's body then the signature: a reconfig proof is a
`Signed[Reconfig]`, ack evidence a `Signed[Prepare]`.  A stored message is
the accepted `Commit`, and a view history is the HISTORY message itself.

The dataclass fields of each message kind are its schema: a body is
those fields in declaration order, each in the encoding `FIELD_CODECS`
gives its annotated type, and nested records are laid out the same way.
A message inside another body is laid out as its own body.
All collections inside bodies are canonically ordered, making the
encoding bit-exact for equal values, and `decode` accepts only that
canonical encoding, in its tag's layout: a decoded body always equals
the re-encoding of the message parsed from it.

So each message value derives its body once: a parsed value keeps the
body it was parsed from, a frame's or the slice of the body it was
embedded in, and any other value the body it is first encoded to
(`body_bytes`).  `encode`, `signed_content`, history links, embedded
evidence and the install-proof memo all use that body, and `decode`
takes the signed content as a prefix of the frame instead of building
it again.

Each fact is sent once (since wire version 3).  What a receiver can
derive is not a field: an install's omega is the least view of its
sequence (`Install.omega`), the targets of an install or a state update
are the members of view and omega (`rm_targets`), a certificate's view
is the certified view and its digest that of the payload beside it, and
each view of a history after the root is the omega of the link before
it.  A change is `len | pid | sign` (`views.change_bytes`), as a
field and inside a view.  Wire version 4 frames STATE-UPDATE without
author and signature.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Generic, NoReturn, Optional, TypeVar, get_args

from .crypto import MessageCertificate, Signatures, Signer, Verifier
from .views import (
    MINUS,
    PLUS,
    Change,
    ProcessId,
    View,
    ViewError,
    change_bytes,
    change_key,
    id_bytes,
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

M = TypeVar("M")


@dataclass(frozen=True)
class Signed(Generic[M]):
    """A message of a signed kind with its author's signature.

    The author is not on the wire: whoever holds the value knows it.  A
    reconfig proof's author is the subject of its change, and ack
    evidence's the sender.
    """

    msg: M
    signature: bytes

    def verify(self, verifier: Verifier, author: ProcessId) -> bool:
        return verifier.verify(author, signed_content(self.msg, author), self.signature)


@dataclass(frozen=True)
class StateRecord:
    """On the wire: a flag byte naming the parts present, then those parts."""

    ack: Optional[Signed[Prepare]] = None
    conflicting: Optional[tuple[Signed[Prepare], Signed[Prepare]]] = None
    stored: Optional[Commit] = None  # the accepted COMMIT, certificate and all


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
    proofs: tuple[Signed[Reconfig], ...] = ()


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
    proofs: tuple[Signed[Reconfig], ...] = ()

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
    recv: tuple[Signed[Reconfig], ...]


@dataclass(frozen=True)
class Prepare:
    TAG = TAG_PREPARE
    payload: bytes
    view: View


@dataclass(frozen=True)
class Ack:
    TAG = TAG_ACK
    payload: bytes
    signature: bytes  # over ack_payload(payload, view)
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
    """HISTORY: the chain v0, m0, v1, m1, ... vn rooted at the initial view.

    Only v0 is carried: each later view is the omega of the link before it.
    On the wire: v0, the link count, then each link's INSTALL body as a blob.
    """

    TAG = TAG_HISTORY
    root: View
    links: tuple[Install, ...] = ()

    def extended(self, link: Install) -> "ViewHistory":
        return ViewHistory(self.root, self.links + (link,))


Message = (
    Reconfig | RecConfirm | Propose | Converged | Install | StateUpdate
    | Prepare | Ack | Commit | Deliver | HistoryRequest | ViewHistory
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


def _read_change(r: Reader) -> Change:
    """The reverse of `views.change_bytes`: len | pid | sign.  The one place
    a change arrives from outside, so its checks are here."""
    pid = r.text()
    sign = chr(r.u8())
    if sign != PLUS and sign != MINUS:
        raise CodecError("bad change sign byte")
    if not pid:
        raise CodecError("empty process id")
    return sign + pid


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
    view = View(changes)
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


def _read_kind(tag: int, r: Reader) -> Message:
    """Read a message of kind tag from inside another message's body, and
    keep the slice it was read from as its body, as `_parse_body` keeps a
    frame's."""
    start = r.pos
    msg = KIND_CODECS[tag][1](r)
    msg.__dict__["_body"] = r.data[start:r.pos]
    return msg


def _write_signed(s: Signed) -> bytes:
    """A `Signed` value: its message's body, then the signature as a blob."""
    return body_bytes(s.msg) + _blob(s.signature)


def _read_signed(tag: int, r: Reader) -> Signed:
    return Signed(_read_kind(tag, r), r.blob())


_SIGNATURE: Codec = (lambda pair: id_bytes(pair[0]) + _blob(pair[1]),
                     lambda r: (r.text(), r.blob()))


def _write_record(rec: StateRecord) -> bytes:
    flags = (1 if rec.ack else 0) | (2 if rec.conflicting else 0) | (4 if rec.stored else 0)
    parts = [bytes((flags,))]
    if rec.ack:
        parts.append(_write_signed(rec.ack))
    if rec.conflicting:
        parts.extend(map(_write_signed, rec.conflicting))
    if rec.stored:
        parts.append(body_bytes(rec.stored))
    return b"".join(parts)


def _read_record(r: Reader) -> StateRecord:
    flags = r.u8()
    if flags > 7:
        raise CodecError("unknown state record flags")
    ack = _read_signed(TAG_PREPARE, r) if flags & 1 else None
    conflicting = tuple(_read_signed(TAG_PREPARE, r) for _ in range(2)) if flags & 2 else None
    stored = _read_kind(TAG_COMMIT, r) if flags & 4 else None
    return StateRecord(ack, conflicting, stored)


def _write_links(links: tuple[Install, ...]) -> bytes:
    return _U32.pack(len(links)) + b"".join([_blob(body_bytes(link)) for link in links])


def _read_links(r: Reader) -> tuple[Install, ...]:
    """Each link is an INSTALL body, parsed through `_parse_body`'s memo."""
    return tuple([_parse_body(TAG_INSTALL, r.blob(), r.bodies) for _ in range(r.u32())])


# One codec per field type, keyed by the annotation as written.
FIELD_CODECS: dict[str, Codec] = {
    "bytes": (_blob, Reader.blob),
    "Change": (change_bytes, _read_change),
    "View": (_write_view, _read_view),
    "frozenset[View]": (_write_seq, _read_seq),
    "tuple[Signed[Reconfig], ...]": _sorted_tuple(
        (_write_signed, lambda r: _read_signed(TAG_RECONFIG, r)),
        "reconfig proofs not canonical", key=lambda p: change_key(p.msg.change)),
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

# The body codec of each message kind, by tag.
KIND_CODECS: dict[int, Codec] = {cls.TAG: _fields_codec(cls) for cls in get_args(Message)}


# A message derives its body once and keeps it in its instance dict under
# a private name.  Outside the dataclass fields, the kept body takes no
# part in ==, hash or repr; a value with other fields
# (`dataclasses.replace`) starts with none.  A `Signed` value keeps
# nothing: its signed content is its message's body between a header and
# the author.


def body_bytes(msg: Message) -> bytes:
    """The canonical body of msg: the one it was parsed from, or else the
    one it was first encoded to."""
    body = msg.__dict__.get("_body")
    if body is None:
        body = msg.__dict__["_body"] = KIND_CODECS[msg.TAG][0](msg)
    return body


def signed_content(msg: Message, author: ProcessId) -> bytes:
    """The bytes author signs to send msg: version|tag|body-len|body|author."""
    body = body_bytes(msg)
    return b"".join((_HEAD.pack(WIRE_VERSION, msg.TAG, len(body)), body, id_bytes(author)))


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
    except ViewError as exc:  # an oversized view
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
    """Trace metadata: kind, the view's change tokens and the payload's short
    digest.  It is built once per fan-out, so its sends share the list."""
    view = getattr(msg, "view", None)
    payload = getattr(msg, "payload", None)
    meta = {"msg": KIND_NAMES[msg.TAG]}
    if view is not None:
        meta["view"] = list(view.sorted_changes)
    if payload is not None:
        meta["payload"] = short_digest(payload)
    return meta
