import dataclasses
import hashlib
import struct
import typing

import pytest
from hypothesis import given, settings, strategies as st

from dbrb.crypto import MessageCertificate, build_certificate, make_keyring, ack_payload
from dbrb import messages as codec
from dbrb.messages import (
    FIELD_CODECS,
    KIND_CODECS,
    TAG_CONVERGED,
    TAG_HISTORY,
    TAG_INSTALL,
    TAG_PROPOSE,
    TAG_REC_CONFIRM,
    TAG_STATE_UPDATE,
    SIGNED_TAGS,
    WIRE_VERSION,
    Ack,
    CodecError,
    Commit,
    Converged,
    Deliver,
    HistoryGossip,
    HistoryRequest,
    Install,
    Prepare,
    Propose,
    RecConfirm,
    Reconfig,
    ReconfigProof,
    StateRecord,
    StateUpdate,
    PrepareEvidence,
    StoredEvidence,
    Message,
    Reader,
    ViewHistory,
    _signed_content,
    body_bytes,
    decode,
    encode,
    message_meta,
    signed_content,
)
from dbrb import views as view_algebra
from dbrb.views import MAX_CHANGES, PLUS, Change, View, ViewError, plus, minus

KEYRING = make_keyring("hmac")
VERIFIER = KEYRING.verifier()
V0 = View.initial(["p1", "p2", "p3", "p4"])
V1 = View(V0.changes | {plus("p5")})
SEQ = frozenset({V1})


def u32(n):
    return struct.pack(">I", n)


def blob(b):
    return u32(len(b)) + b


def text(s):
    return bytes((len(s),)) + s.encode()


def enc(field_type, value):
    """The bytes the codec of an annotated field type writes for value."""
    return FIELD_CODECS[field_type][0](value)


def roundtrip(msg, author="p1"):
    raw = encode(msg, KEYRING.signer_for(author))
    decoded = decode(raw, VERIFIER)
    assert decoded.author == (author if msg.TAG in SIGNED_TAGS else None)
    assert decoded.msg == msg
    return decoded


def make_install(author="p1"):
    sigs = tuple(
        (pid, KEYRING.sign(pid, signed_content(Converged(SEQ, V0), pid)))
        for pid in ["p1", "p2", "p3"]
    )
    proof = ReconfigProof(plus("p5"), V0,
                          KEYRING.sign("p5", signed_content(Reconfig(plus("p5"), V0), "p5")))
    return Install(SEQ, V0, sigs, (proof,))


def make_cert():
    digest = hashlib.sha256(b"m").digest()
    sigs = {p: KEYRING.sign(p, ack_payload(digest, V0)) for p in ["p1", "p2", "p3"]}
    return build_certificate(V0, sigs)


def test_round_trip_all_kinds():
    cert = make_cert()
    stored = StoredEvidence(b"m", cert, V0)
    prep_ev = PrepareEvidence(b"m", V0, b"sig-bytes")
    record = StateRecord(ack=prep_ev, conflicting=(prep_ev, PrepareEvidence(b"m2", V0, b"s2")),
                         stored=stored)
    install = make_install()
    history = ViewHistory(V0, (install,))
    messages = [
        Reconfig(plus("p5"), V0),
        Reconfig(minus("p2"), V0),
        RecConfirm(V0),
        Propose(SEQ, V0, install.proofs),
        Converged(SEQ, V0),
        install,
        StateUpdate(V0, V1, record, install.proofs),
        Prepare(b"m", V0),
        Ack(b"m", b"ack-sig", V0),
        Commit(b"m", cert, V0),
        Deliver(b"m", V0),
        HistoryRequest(),
        HistoryGossip(history),
    ]
    for msg in messages:
        roundtrip(msg)


def test_encoding_is_deterministic():
    msg = Propose(frozenset({V0, V1}), V0)
    a = encode(msg, KEYRING.signer_for("p2"))
    b = encode(msg, KEYRING.signer_for("p2"))
    assert a == b


def test_tampered_body_rejected():
    raw = bytearray(encode(Prepare(b"m", V0), KEYRING.signer_for("p1")))
    raw[10] ^= 0xFF
    with pytest.raises(CodecError):
        decode(bytes(raw), VERIFIER)


def test_reattributed_author_rejected():
    # splice p2's name into a message signed by p1
    raw = encode(Prepare(b"m", V0), KEYRING.signer_for("p1"))
    forged = raw.replace(b"\x02p1", b"\x02p2")
    assert forged != raw
    with pytest.raises(CodecError):
        decode(forged, VERIFIER)


def test_unknown_tag_rejected():
    raw = bytearray(encode(Prepare(b"m", V0), KEYRING.signer_for("p1")))
    raw[1] = 0x77
    with pytest.raises(CodecError):
        decode(bytes(raw), VERIFIER)


def test_wire_version_checked():
    raw = bytearray(encode(Prepare(b"m", V0), KEYRING.signer_for("p1")))
    # 2: the layout before omega and targets were derived; 3: STATE-UPDATE signed
    for version in (2, 3, 9):
        raw[0] = version
        with pytest.raises(CodecError, match=f"unsupported wire version {version}"):
            decode(bytes(raw), VERIFIER)


read_view = FIELD_CODECS["View"][1]


def test_non_canonical_view_rejected():
    # two changes out of canonical order, and one change twice
    item_b = struct.pack(">B", 2) + b"pb" + b"\x2b"
    item_a = struct.pack(">B", 2) + b"pa" + b"\x2b"
    for items in (item_b + item_a, item_a + item_a):
        with pytest.raises(CodecError, match="non-canonical view encoding"):
            read_view(Reader(blob(u32(2) + items)))


def test_change_has_one_encoding():
    # len | pid | sign, as a field and inside a view
    c = minus("p2")
    assert c.canonical_bytes == enc("Change", c) == b"\x02p2\x2d"
    assert View.of([plus("p1"), c]).canonical_bytes == u32(2) + b"\x02p1\x2b" + c.canonical_bytes


def test_view_sign_byte_checked():
    with pytest.raises(CodecError, match="bad change sign byte"):
        read_view(Reader(blob(u32(1) + struct.pack(">B", 2) + b"pa" + b"\x00")))


def test_truncated_message_rejected():
    raw = encode(Commit(b"m", make_cert(), V0), KEYRING.signer_for("p1"))
    with pytest.raises(CodecError):
        decode(raw[:-3], VERIFIER)


def test_reconfig_proof_round_trip_verifies():
    install = make_install()
    proof = install.proofs[0]
    assert proof.verify(VERIFIER)
    bad = ReconfigProof(proof.change, proof.view, b"junk")
    assert not bad.verify(VERIFIER)


def test_oversized_view_decodes_as_codec_error():
    # a change set past the cap must be droppable, never a crash
    count = MAX_CHANGES + 1
    inner = u32(count) + b"".join(text(f"q{i:05d}") + b"\x2b" for i in range(count))
    with pytest.raises(CodecError):
        decode(frame(TAG_REC_CONFIRM, blob(inner)), VERIFIER)


# --- canonical encoding -------------------------------------------------------

PIDS = ["p1", "p2", "p3", "p4", "p5", "q"]
pids = st.sampled_from(PIDS)
changes = st.builds(lambda sign, pid: plus(pid) if sign else minus(pid), st.booleans(), pids)
views = st.frozensets(changes, min_size=1, max_size=6).map(View)
blobs = st.binary(max_size=8)
sig_pairs = st.lists(st.tuples(pids, blobs), max_size=3).map(tuple)

# One strategy per field type of the wire schema; records and message kinds
# are built from their fields, so none can be left out.
FIELD_STRATEGIES = {
    "bytes": blobs,
    "Change": changes,
    "View": views,
    "frozenset[View]": st.frozensets(views, max_size=3),
    "Signatures": sig_pairs,
}


def built(cls):
    return st.builds(cls, *(FIELD_STRATEGIES[f.type] for f in dataclasses.fields(cls)))


FIELD_STRATEGIES["tuple[ReconfigProof, ...]"] = st.lists(built(ReconfigProof), max_size=3).map(tuple)
FIELD_STRATEGIES["MessageCertificate"] = built(MessageCertificate)
prep_evidence = built(PrepareEvidence)
FIELD_STRATEGIES["StateRecord"] = st.builds(
    StateRecord, st.none() | prep_evidence, st.none() | st.tuples(prep_evidence, prep_evidence),
    st.none() | built(StoredEvidence))
FIELD_STRATEGIES["tuple[Install, ...]"] = st.lists(built(Install), max_size=2).map(tuple)
FIELD_STRATEGIES["ViewHistory"] = built(ViewHistory)
KINDS = typing.get_args(Message)
messages = st.one_of(*(built(cls) for cls in KINDS))


def test_strategies_cover_the_schema():
    assert FIELD_STRATEGIES.keys() == FIELD_CODECS.keys()
    assert {cls.TAG for cls in KINDS} == KIND_CODECS.keys()


def frame(tag, body, author="p1"):
    """Frame a hand-written body as `encode` does a canonical one: signed by
    author if its kind is signed, and with neither author nor signature if not."""
    if tag not in SIGNED_TAGS:
        return struct.pack(">BBI", WIRE_VERSION, tag, len(body)) + body
    content = _signed_content(tag, body, author)
    return content + blob(KEYRING.sign(author, content))


def test_link_only_frame_with_author_and_signature_rejected():
    # only a signed kind's frame carries the author and signature after the body
    for msg in (Propose(SEQ, V0), Deliver(b"m", V0), HistoryRequest()):
        assert msg.TAG not in SIGNED_TAGS
        content = _signed_content(msg.TAG, body_bytes(msg), "p1")
        with pytest.raises(CodecError, match="trailing bytes"):
            decode(content + blob(KEYRING.sign("p1", content)), VERIFIER)


def test_state_update_frame_with_author_and_signature_rejected():
    # version 3 signed a STATE-UPDATE; version 4 sends it link-only
    update = StateUpdate(V0, V1, StateRecord(), ())
    assert update.TAG not in SIGNED_TAGS
    content = _signed_content(update.TAG, body_bytes(update), "p1")
    with pytest.raises(CodecError, match="trailing bytes"):
        decode(content + blob(KEYRING.sign("p1", content)), VERIFIER)
    assert decode(content[:-len(text("p1"))], VERIFIER).msg == update


def test_signed_frame_without_author_and_signature_rejected():
    for msg in (Reconfig(plus("p5"), V0), Converged(SEQ, V0), Prepare(b"m", V0)):
        body = body_bytes(msg)
        with pytest.raises(CodecError, match="truncated message"):
            decode(struct.pack(">BBI", WIRE_VERSION, msg.TAG, len(body)) + body, VERIFIER)


@given(messages, pids)
@settings(max_examples=200, deadline=None)
def test_decoded_body_is_the_canonical_encoding(msg, author):
    # collections are drawn in any order; the body on the wire is canonical
    raw = encode(msg, KEYRING.signer_for(author))
    received = raw[6:6 + struct.unpack_from(">I", raw, 2)[0]]  # the frame's body
    decoded = decode(raw, VERIFIER)
    assert body_bytes(decoded.msg) == received
    assert body_bytes(msg) == received


@given(messages, st.data())
@settings(max_examples=200, deadline=None)
def test_any_accepted_body_is_canonical(msg, data):
    # flip one byte of a valid body and re-sign it: whatever still decodes
    # must re-encode to exactly the bytes received
    body = bytearray(body_bytes(msg))
    if body:
        i = data.draw(st.integers(0, len(body) - 1))
        body[i] = data.draw(st.integers(0, 255))
    try:
        decoded = decode(frame(msg.TAG, bytes(body)), VERIFIER)
    except CodecError:
        return
    assert body_bytes(decoded.msg) == bytes(body)


V2 = View(V1.changes | {plus("p6")})


def test_sequence_out_of_order_rejected():
    body = u32(2) + enc("View", V2) + enc("View", V1) + enc("View", V0)
    with pytest.raises(CodecError, match="sequence views not canonical"):
        decode(frame(TAG_CONVERGED, body), VERIFIER)


def test_sequence_with_repeated_view_rejected():
    body = u32(2) + enc("View", V1) + enc("View", V1) + enc("View", V0)
    with pytest.raises(CodecError, match="sequence views not canonical"):
        decode(frame(TAG_CONVERGED, body), VERIFIER)


def proof_bytes(proofs):
    # the proofs in the order given
    return u32(len(proofs)) + b"".join(
        enc("Change", p.change) + enc("View", p.view) + blob(p.signature) for p in proofs)


def install_body(sigs, proofs):
    # an INSTALL body, but with the collections in the order given
    return b"".join([
        enc("frozenset[View]", SEQ), enc("View", V0),
        u32(len(sigs)), *(text(pid) + blob(sig) for pid, sig in sigs), proof_bytes(proofs)])


def test_converged_signatures_out_of_order_rejected():
    install = make_install()
    assert decode(frame(TAG_INSTALL, install_body(install.converged_sigs, install.proofs)),
                  VERIFIER).msg == install
    body = install_body(tuple(reversed(install.converged_sigs)), install.proofs)
    with pytest.raises(CodecError, match="signatures not canonical"):
        decode(frame(TAG_INSTALL, body), VERIFIER)


def test_reconfig_proofs_out_of_order_rejected():
    make = lambda c: ReconfigProof(c, V0, KEYRING.sign(c.process, signed_content(Reconfig(c, V0), c.process)))
    proofs = (make(plus("p6")), make(plus("p5")))
    body = (enc("frozenset[View]", frozenset({View(V0.changes | {plus("p5"), plus("p6")})}))
            + enc("View", V0) + proof_bytes(proofs))
    with pytest.raises(CodecError, match="reconfig proofs not canonical"):
        decode(frame(TAG_PROPOSE, body), VERIFIER)


def test_certificate_signatures_out_of_order_rejected():
    cert = make_cert()
    body = b"".join([
        blob(b"m"), enc("View", cert.view), u32(len(cert.signatures)),
        *(text(pid) + blob(sig) for pid, sig in reversed(cert.signatures)),
        enc("View", V0)])
    with pytest.raises(CodecError, match="signatures not canonical"):
        decode(frame(Commit.TAG, body), VERIFIER)


def test_state_record_unknown_flags_rejected():
    for flags, ok in ((0, True), (8, False), (0x80, False)):
        record = bytes((flags,)) if flags else enc("StateRecord", StateRecord())
        body = (enc("View", V0) + enc("View", V1)
                + record + enc("tuple[ReconfigProof, ...]", ()))
        raw = frame(TAG_STATE_UPDATE, body)
        if ok:
            decode(raw, VERIFIER)
        else:
            with pytest.raises(CodecError, match="unknown state record flags"):
                decode(raw, VERIFIER)


# --- body memo ----------------------------------------------------------------


def test_known_install_is_not_parsed_again_as_a_history_link(monkeypatch):
    bodies = {}
    install = make_install()
    known = decode(encode(install, KEYRING.signer_for("p1")), VERIFIER, bodies).msg
    parsed = []
    write, read = KIND_CODECS[TAG_INSTALL]
    monkeypatch.setitem(KIND_CODECS, TAG_INSTALL, (write, lambda r: parsed.append(1) or read(r)))
    gossip = HistoryGossip(ViewHistory(V0, (install,)))
    decoded = decode(encode(gossip, KEYRING.signer_for("p2")), VERIFIER, bodies)
    assert decoded.msg.history.links[0] is known
    assert parsed == []
    assert (TAG_HISTORY, body_bytes(decoded.msg)) in bodies


def test_link_first_seen_in_a_history_is_known_as_an_install():
    bodies = {}
    install = make_install()
    gossip = HistoryGossip(ViewHistory(V0, (install,)))
    link = decode(encode(gossip, KEYRING.signer_for("p2")), VERIFIER, bodies).msg.history.links[0]
    assert decode(encode(install, KEYRING.signer_for("p3")), VERIFIER, bodies).msg is link


def test_rejected_raws_never_enter_the_body_memo():
    bodies = {}
    good = encode(Prepare(b"m", V0), KEYRING.signer_for("p1"))
    forged = bytearray(good)
    forged[-1] ^= 0x01
    with pytest.raises(CodecError, match="bad envelope signature"):
        decode(bytes(forged), VERIFIER, bodies)
    body = body_bytes(Prepare(b"m", V0)) + b"\x00"
    with pytest.raises(CodecError, match="trailing bytes"):
        decode(frame(Prepare.TAG, body), VERIFIER, bodies)
    assert bodies == {}
    # a body already parsed never excuses a bad envelope
    decode(good, VERIFIER, bodies)
    with pytest.raises(CodecError, match="bad envelope signature"):
        decode(bytes(forged), VERIFIER, bodies)


def mutated(body, data):
    body = bytearray(body)
    if body and data.draw(st.booleans()):
        body[data.draw(st.integers(0, len(body) - 1))] = data.draw(st.integers(0, 255))
    return bytes(body)


@given(st.lists(messages, min_size=1, max_size=4), st.data())
@settings(max_examples=150, deadline=None)
def test_memo_decode_equals_memo_free_decode(pool, data):
    # installs also travel as history links and links as installs, so the
    # stream hits the memo across kinds
    pool = list(pool)
    for msg in list(pool):
        if isinstance(msg, Install):
            pool.append(HistoryGossip(ViewHistory(msg.view, (msg,))))
        elif isinstance(msg, HistoryGossip):
            pool.extend(msg.history.links)
    bodies = {}
    for _ in range(data.draw(st.integers(1, 12))):
        msg = data.draw(st.sampled_from(pool))
        raw = frame(msg.TAG, mutated(body_bytes(msg), data), data.draw(pids))
        if data.draw(st.booleans()):
            raw = mutated(raw, data)
        try:
            expected = decode(raw, KEYRING.verifier())
        except CodecError as exc:
            with pytest.raises(CodecError) as got:
                decode(raw, VERIFIER, bodies)
            assert str(got.value) == str(exc)
            continue
        assert decode(raw, VERIFIER, bodies) == expected


def test_parsed_views_share_their_changes():
    fresh = lambda pids: View.of(Change(PLUS, p) for p in pids)  # not interned
    va = fresh(["q1", "q2", "q3", "q4"])
    vb = fresh(["q1", "q2", "q3", "q4", "q5"])
    got_a = decode(encode(RecConfirm(va), KEYRING.signer_for("q1")), VERIFIER).msg.view
    got_b = decode(encode(Reconfig(Change(PLUS, "q5"), vb), KEYRING.signer_for("q5")),
                   VERIFIER).msg
    by_token = lambda v: {c.token: c for c in v.changes}
    a, b = by_token(got_a), by_token(got_b.view)
    assert a.keys() < b.keys()
    assert all(b[t] is c and c is plus(t[1:]) for t, c in a.items())
    assert got_b.change is b["+q5"]


def test_change_table_is_capped(monkeypatch):
    monkeypatch.setattr(view_algebra, "_CHANGES_MAX", len(view_algebra._CHANGES))
    c = plus("never-seen-before")
    assert c == plus("never-seen-before") and c is not plus("never-seen-before")
    assert ("+", "never-seen-before") not in view_algebra._CHANGES


# --- bytes a value keeps ------------------------------------------------------


def fresh_body(msg):
    return KIND_CODECS[msg.TAG][0](msg)


def proofs_in(msg):
    if isinstance(msg, HistoryGossip):
        return [p for link in msg.history.links for p in link.proofs]
    return list(getattr(msg, "proofs", ())) + list(getattr(msg, "recv", ()))


def kept_body(msg):
    return vars(msg)["_body"]


@given(messages, pids)
@settings(max_examples=200, deadline=None)
def test_kept_body_is_a_fresh_encoding(msg, author):
    # a locally built value keeps what it was first encoded to, a parsed
    # value (history links included) the bytes it was parsed from
    raw = encode(msg, KEYRING.signer_for(author))
    parsed = decode(raw, KEYRING.verifier(), {}).msg
    values = [msg, parsed]
    if isinstance(msg, HistoryGossip):
        values += msg.history.links + parsed.history.links
    for value in values:
        assert kept_body(value) == fresh_body(value) == body_bytes(value)
    # a proof keeps the RECONFIG body its originator signed: the slice it
    # was parsed from, or what it was first encoded to
    for proof in proofs_in(msg) + proofs_in(parsed):
        assert kept_body(proof) == fresh_body(Reconfig(proof.change, proof.view))


def test_parsed_proof_signs_the_slice_it_was_read_from(monkeypatch):
    raw = encode(make_install(), KEYRING.signer_for("p1"))
    proof = decode(raw, KEYRING.verifier()).msg.proofs[0]
    assert kept_body(proof) in raw
    monkeypatch.setattr(Change, "canonical_bytes", property(lambda c: pytest.fail("re-encoded")))
    monkeypatch.setattr(codec, "_write_view", lambda v: pytest.fail("re-encoded"))
    assert proof.verify(VERIFIER)
    assert proof.signed_bytes() == _signed_content(Reconfig.TAG, kept_body(proof), "p5")


@given(messages, pids)
@settings(max_examples=100, deadline=None)
def test_decode_verifies_the_content_the_author_signed(msg, author):
    # exactly one check for a signed kind, and none for a link-only kind
    verifier = KEYRING.verifier()
    seen = []
    real = verifier.verify
    verifier.verify = lambda pid, payload, sig: seen.append((pid, payload)) or real(pid, payload, sig)
    decoded = decode(encode(msg, KEYRING.signer_for(author)), verifier)
    if msg.TAG in SIGNED_TAGS:
        assert seen == [(author, _signed_content(msg.TAG, body_bytes(decoded.msg), author))]
    else:
        assert seen == [] and decoded.signature == b""


def test_failed_derivations_are_never_kept():
    # a change that names a too-long process cannot encode, nor can a
    # certificate signed by one
    long_pid = "x" * 256
    msg = Reconfig(plus(long_pid), V0)
    proof = ReconfigProof(plus(long_pid), V0, b"sig")
    commit = Commit(b"m", MessageCertificate(V0, ((long_pid, b"sig"),)), V0)
    for _ in range(2):
        with pytest.raises(ViewError, match="identifier too long"):
            body_bytes(msg)
        with pytest.raises(ViewError, match="identifier too long"):
            proof.verify(VERIFIER)
        with pytest.raises(ViewError, match="identifier too long"):
            body_bytes(commit)
    assert "_body" not in vars(msg) and "_signed" not in vars(proof)
    assert "_body" not in vars(commit) and "canonical_bytes" not in vars(msg.change)


def test_kept_bytes_are_not_fields():
    install, twin = make_install(), make_install()
    body_bytes(install)
    message_meta(install)
    install.proofs[0].verify(VERIFIER)
    assert set(vars(install)) - {f.name for f in dataclasses.fields(install)} == {"_body"}
    assert "_signed" in vars(install.proofs[0]) and "_signed" not in vars(twin.proofs[0])
    assert install == twin and hash(install) == hash(twin) and repr(install) == repr(twin)
    # a value with other fields derives its own
    other = dataclasses.replace(install, converged_sigs=install.converged_sigs[:2])
    assert "_body" not in vars(other)
    assert body_bytes(other) == fresh_body(other) != body_bytes(install)


def test_history_links_are_not_encoded_again(monkeypatch):
    install = make_install()
    gossip = decode(encode(HistoryGossip(ViewHistory(V0, (install,))),
                           KEYRING.signer_for("p2")), VERIFIER, {}).msg
    monkeypatch.setitem(KIND_CODECS, TAG_INSTALL,
                        (lambda msg: pytest.fail("re-encoded"), KIND_CODECS[TAG_INSTALL][1]))
    relayed = HistoryGossip(gossip.history)
    assert body_bytes(decode(encode(relayed, KEYRING.signer_for("p3")), VERIFIER).msg) == \
        body_bytes(gossip)
