import dataclasses
import typing

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import Bench, notes_of, sends_of
from dbrb.crypto import (MessageCertificate, build_certificate, make_keyring, ack_payload,
                         verify_certificate)
from dbrb import messages as codec
from dbrb.engine import Receive
from dbrb.messages import (
    FIELD_CODECS,
    KIND_CODECS,
    TAG_CONVERGED,
    TAG_HISTORY,
    TAG_INSTALL,
    TAG_PROPOSE,
    TAG_RECONFIG,
    TAG_REC_CONFIRM,
    TAG_STATE_UPDATE,
    SIGNED_TAGS,
    WIRE_VERSION,
    Ack,
    CodecError,
    Commit,
    Converged,
    Deliver,
    HistoryRequest,
    Install,
    Prepare,
    Propose,
    RecConfirm,
    Reconfig,
    Signed,
    StateRecord,
    StateUpdate,
    Message,
    Reader,
    ViewHistory,
    body_bytes,
    decode,
    encode,
    message_meta,
    signed_content,
)
from dbrb.views import MAX_CHANGES, View, ViewError, change_bytes, plus, minus, varint

KEYRING = make_keyring("hmac")
VERIFIER = KEYRING.verifier()
V0 = View.initial(["p1", "p2", "p3", "p4"])
V1 = View(V0 | {plus("p5")})
SEQ = frozenset({V1})


def uleb(n):
    """n as a minimal unsigned LEB128 varint, written here apart from the codec."""
    out = bytearray()
    while n >= 0x80:
        out.append(n & 0x7F | 0x80)
        n >>= 7
    return bytes(out + bytes((n,)))


def blob(b):
    return uleb(len(b)) + b


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
    reconfig = Reconfig(plus("p5"), V0)
    proof = Signed(reconfig, KEYRING.sign("p5", signed_content(reconfig, "p5")))
    return Install(SEQ, V0, sigs, (proof,))


def make_cert():
    sigs = {p: KEYRING.sign(p, ack_payload(b"m", V0)) for p in ["p1", "p2", "p3"]}
    return build_certificate(V0, sigs)


def test_round_trip_all_kinds():
    cert = make_cert()
    stored = Commit(b"m", cert, V0)
    prep_ev = Signed(Prepare(b"m", V0), b"sig-bytes")
    record = StateRecord(ack=prep_ev, conflicting=(prep_ev, Signed(Prepare(b"m2", V0), b"s2")),
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
        history,
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
    # 2: the layout before omega and targets were derived; 3: STATE-UPDATE
    # signed; 4: every length and count a 4-byte integer
    for version in (2, 3, 4, 9):
        raw[0] = version
        with pytest.raises(CodecError, match=f"unsupported wire version {version}"):
            decode(bytes(raw), VERIFIER)


read_view = FIELD_CODECS["View"][1]


def test_non_canonical_view_rejected():
    # two changes out of canonical order, and one change twice
    item_b = b"\x02pb\x2b"
    item_a = b"\x02pa\x2b"
    for items in (item_b + item_a, item_a + item_a):
        with pytest.raises(CodecError, match="non-canonical view encoding"):
            read_view(Reader(blob(uleb(2) + items)))


def test_change_has_one_encoding():
    # len | pid | sign, as a field and inside a view
    c = minus("p2")
    assert change_bytes(c) == enc("Change", c) == b"\x02p2\x2d"
    assert View([plus("p1"), c]).canonical_bytes == uleb(2) + b"\x02p1\x2b" + change_bytes(c)


def test_view_sign_byte_checked():
    with pytest.raises(CodecError, match="bad change sign byte"):
        read_view(Reader(blob(uleb(1) + b"\x02pa\x00")))


def test_change_with_empty_process_id_rejected():
    # as a field and inside a view
    empty = text("") + b"\x2b"
    for tag, body in ((TAG_RECONFIG, empty + enc("View", V0)),
                      (TAG_REC_CONFIRM, blob(uleb(1) + empty))):
        with pytest.raises(CodecError, match="empty process id"):
            decode(frame(tag, body), VERIFIER)


def test_truncated_message_rejected():
    raw = encode(Commit(b"m", make_cert(), V0), KEYRING.signer_for("p1"))
    with pytest.raises(CodecError):
        decode(raw[:-3], VERIFIER)


def test_reconfig_proof_round_trip_verifies():
    install = make_install()
    proof = install.proofs[0]
    assert proof.verify(VERIFIER, "p5")
    bad = Signed(Reconfig(proof.msg.change, proof.msg.view), b"junk")
    assert not bad.verify(VERIFIER, "p5")


def test_oversized_view_decodes_as_codec_error():
    # a change set past the cap must be droppable, never a crash
    count = MAX_CHANGES + 1
    inner = uleb(count) + b"".join(text(f"q{i:05d}") + b"\x2b" for i in range(count))
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


def signed_by_anyone(cls):
    return st.builds(Signed, built(cls), blobs)


FIELD_STRATEGIES["tuple[Signed[Reconfig], ...]"] = st.lists(
    signed_by_anyone(Reconfig), max_size=3).map(tuple)
FIELD_STRATEGIES["MessageCertificate"] = built(MessageCertificate)
prep_evidence = signed_by_anyone(Prepare)
FIELD_STRATEGIES["StateRecord"] = st.builds(
    StateRecord, st.none() | prep_evidence, st.none() | st.tuples(prep_evidence, prep_evidence),
    st.none() | built(Commit))
FIELD_STRATEGIES["tuple[Install, ...]"] = st.lists(built(Install), max_size=2).map(tuple)
KINDS = typing.get_args(Message)
messages = st.one_of(*(built(cls) for cls in KINDS))


def test_strategies_cover_the_schema():
    assert FIELD_STRATEGIES.keys() == FIELD_CODECS.keys()
    assert {cls.TAG for cls in KINDS} == KIND_CODECS.keys()


def frame(tag, body, author="p1"):
    """Frame a hand-written body as `encode` does a canonical one: signed by
    author if its kind is signed, and with neither author nor signature if not."""
    head = bytes((WIRE_VERSION, tag)) + uleb(len(body))
    if tag not in SIGNED_TAGS:
        return head + body
    content = head + body + text(author)
    return content + blob(KEYRING.sign(author, content))


def frame_body(raw):
    """The body of a frame, found by reading its header apart from the codec."""
    size, shift, pos = 0, 0, 2
    while raw[pos] & 0x80:
        size |= (raw[pos] & 0x7F) << shift
        shift, pos = shift + 7, pos + 1
    size |= raw[pos] << shift
    return raw[pos + 1:pos + 1 + size]


def test_link_only_frame_with_author_and_signature_rejected():
    # only a signed kind's frame carries the author and signature after the body
    for msg in (Propose(SEQ, V0), Deliver(b"m", V0), HistoryRequest()):
        assert msg.TAG not in SIGNED_TAGS
        content = signed_content(msg, "p1")
        with pytest.raises(CodecError, match="trailing bytes"):
            decode(content + blob(KEYRING.sign("p1", content)), VERIFIER)


def test_state_update_frame_with_author_and_signature_rejected():
    # version 3 signed a STATE-UPDATE; version 4 sends it link-only
    update = StateUpdate(V0, V1, StateRecord(), ())
    assert update.TAG not in SIGNED_TAGS
    content = signed_content(update, "p1")
    with pytest.raises(CodecError, match="trailing bytes"):
        decode(content + blob(KEYRING.sign("p1", content)), VERIFIER)
    assert decode(content[:-len(text("p1"))], VERIFIER).msg == update


def test_signed_frame_without_author_and_signature_rejected():
    for msg in (Reconfig(plus("p5"), V0), Converged(SEQ, V0), Prepare(b"m", V0)):
        body = body_bytes(msg)
        with pytest.raises(CodecError, match="truncated message"):
            decode(bytes((WIRE_VERSION, msg.TAG)) + uleb(len(body)) + body, VERIFIER)


@given(messages, pids)
@settings(max_examples=200, deadline=None)
def test_decoded_body_is_the_canonical_encoding(msg, author):
    # collections are drawn in any order; the body on the wire is canonical
    raw = encode(msg, KEYRING.signer_for(author))
    received = frame_body(raw)
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


# --- varints -----------------------------------------------------------------


@given(st.integers(0, 2**32 - 1))
@example(0)
@example(0x7F)
@example(0x80)
@example(0x3FFF)
@example(0x4000)
@example(2**32 - 1)
def test_every_u32_value_round_trips_as_a_minimal_varint(n):
    raw = varint(n)
    assert raw == uleb(n) and len(raw) == max(1, -(-n.bit_length() // 7))
    r = Reader(raw + b"\x00")
    assert r.varint() == n and r.pos == len(raw)


# bytes at the edges of a varint's groups, so that overlong and over-range
# encodings are drawn often
EDGE_BYTES = st.sampled_from([0x00, 0x01, 0x0F, 0x10, 0x7F, 0x80, 0x81, 0x8F, 0x90, 0xFF])


@given(st.lists(EDGE_BYTES, max_size=7).map(bytes) | st.binary(max_size=7))
def test_a_varint_is_read_only_in_its_canonical_encoding(raw):
    r = Reader(raw)
    try:
        n = r.varint()
    except CodecError:
        return
    assert raw[:r.pos] == varint(n)


def overlong(n):
    """n's varint with one more byte: the last one continues into a zero."""
    raw = uleb(n)
    return raw[:-1] + bytes((raw[-1] | 0x80, 0))


def over_five_bytes(n):
    """n's 7-bit groups padded with continued zeros to six bytes."""
    raw = bytes(b | 0x80 for b in uleb(n))
    return raw + b"\x80" * (5 - len(raw)) + b"\x00"


# a defect -> (the bytes it puts in place of a varint of n that the rest
# follows, the error decode raises); a truncated frame ends in the varint
VARINT_DEFECTS = {
    "overlong": (lambda n, rest: overlong(n) + rest, "non-canonical varint"),
    "truncated": (lambda n, rest: bytes((uleb(n)[0] | 0x80,)), "truncated message"),
    "over five bytes": (lambda n, rest: over_five_bytes(n) + rest, "varint out of range"),
    "over 2**32 - 1": (lambda n, rest: uleb(n + 2**32) + rest, "varint out of range"),
}

# a place -> (the value of its varint, the bytes after it, the frame of
# the varint and those bytes)
DELIVER_BODY = enc("bytes", b"m") + enc("View", V0)
VARINT_PLACES = {
    "header body length": (len(DELIVER_BODY), DELIVER_BODY,
                           lambda b: bytes((WIRE_VERSION, Deliver.TAG)) + b),
    "blob prefix": (1, b"m" + enc("View", V0), lambda b: frame(Deliver.TAG, b)),
    "sequence count": (1, enc("View", V1) + enc("View", V0)
                       + enc("tuple[Signed[Reconfig], ...]", ()),
                       lambda b: frame(TAG_PROPOSE, b)),
    "view change count": (len(V0), V0.canonical_bytes[1:],
                          lambda b: frame(TAG_REC_CONFIRM, blob(b))),
}


@pytest.mark.parametrize("place", VARINT_PLACES)
@pytest.mark.parametrize("defect", VARINT_DEFECTS)
def test_non_canonical_varint_rejected(defect, place):
    n, rest, build = VARINT_PLACES[place]
    assert decode(build(uleb(n) + rest), VERIFIER).msg.view == V0
    write, error = VARINT_DEFECTS[defect]
    with pytest.raises(CodecError, match=error):
        decode(build(write(n, rest)), VERIFIER)


def test_reframed_install_never_reaches_rm_received():
    # the same INSTALL with an overlong body length: were it accepted, it
    # would be a new frame to the dedup by frame, and relayed again
    bench = Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])
    raw = encode(make_install(), KEYRING.signer_for("p1"))
    body = frame_body(raw)
    reframed = raw[:2] + overlong(len(body)) + body
    node = bench.nodes["p2"]
    assert sends_of(node.step(Receive("p1", raw)), "INSTALL")
    actions = node.step(Receive("p3", reframed))
    assert node.rm_received == {raw}
    assert not sends_of(actions, "INSTALL")
    assert [n.detail for n in notes_of(actions, "Drop")] == [
        "undecodable message: non-canonical varint"]


V2 = View(V1 | {plus("p6")})


def test_sequence_out_of_order_rejected():
    body = uleb(2) + enc("View", V2) + enc("View", V1) + enc("View", V0)
    with pytest.raises(CodecError, match="sequence views not canonical"):
        decode(frame(TAG_CONVERGED, body), VERIFIER)


def test_sequence_with_repeated_view_rejected():
    body = uleb(2) + enc("View", V1) + enc("View", V1) + enc("View", V0)
    with pytest.raises(CodecError, match="sequence views not canonical"):
        decode(frame(TAG_CONVERGED, body), VERIFIER)


def proof_bytes(proofs):
    # the proofs in the order given
    return uleb(len(proofs)) + b"".join(
        enc("Change", p.msg.change) + enc("View", p.msg.view) + blob(p.signature) for p in proofs)


def install_body(sigs, proofs):
    # an INSTALL body, but with the collections in the order given
    return b"".join([
        enc("frozenset[View]", SEQ), enc("View", V0),
        uleb(len(sigs)), *(text(pid) + blob(sig) for pid, sig in sigs), proof_bytes(proofs)])


def test_converged_signatures_out_of_order_rejected():
    install = make_install()
    assert decode(frame(TAG_INSTALL, install_body(install.converged_sigs, install.proofs)),
                  VERIFIER).msg == install
    body = install_body(tuple(reversed(install.converged_sigs)), install.proofs)
    with pytest.raises(CodecError, match="signatures not canonical"):
        decode(frame(TAG_INSTALL, body), VERIFIER)


def test_reconfig_proofs_out_of_order_rejected():
    def make(c):
        return Signed(Reconfig(c, V0), KEYRING.sign(c[1:], signed_content(Reconfig(c, V0), c[1:])))

    proofs = (make(plus("p6")), make(plus("p5")))
    body = (enc("frozenset[View]", frozenset({View(V0 | {plus("p5"), plus("p6")})}))
            + enc("View", V0) + proof_bytes(proofs))
    with pytest.raises(CodecError, match="reconfig proofs not canonical"):
        decode(frame(TAG_PROPOSE, body), VERIFIER)


def test_certificate_signatures_out_of_order_rejected():
    cert = make_cert()
    body = b"".join([
        blob(b"m"), enc("View", cert.view), uleb(len(cert.signatures)),
        *(text(pid) + blob(sig) for pid, sig in reversed(cert.signatures)),
        enc("View", V0)])
    with pytest.raises(CodecError, match="signatures not canonical"):
        decode(frame(Commit.TAG, body), VERIFIER)


def test_state_record_unknown_flags_rejected():
    for flags, ok in ((0, True), (8, False), (0x80, False)):
        record = bytes((flags,)) if flags else enc("StateRecord", StateRecord())
        body = (enc("View", V0) + enc("View", V1)
                + record + enc("tuple[Signed[Reconfig], ...]", ()))
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
    gossip = ViewHistory(V0, (install,))
    decoded = decode(encode(gossip, KEYRING.signer_for("p2")), VERIFIER, bodies)
    assert decoded.msg.links[0] is known
    assert parsed == []
    assert (TAG_HISTORY, body_bytes(decoded.msg)) in bodies


def test_link_first_seen_in_a_history_is_known_as_an_install():
    bodies = {}
    install = make_install()
    gossip = ViewHistory(V0, (install,))
    link = decode(encode(gossip, KEYRING.signer_for("p2")), VERIFIER, bodies).msg.links[0]
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
            pool.append(ViewHistory(msg.view, (msg,)))
        elif isinstance(msg, ViewHistory):
            pool.extend(msg.links)
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
    # a parsed view is the set of its change tokens, so views parsed from
    # two frames compare as sets, with each other and with a parsed change
    va = View.initial(["q1", "q2", "q3", "q4"])
    got_a = decode(encode(RecConfirm(va), KEYRING.signer_for("q1")), VERIFIER).msg.view
    got_b = decode(encode(Reconfig(plus("q5"), View(va | {plus("q5")})),
                          KEYRING.signer_for("q5")), VERIFIER).msg
    assert got_a == {"+q1", "+q2", "+q3", "+q4"} and got_a < got_b.view
    assert got_b.change == "+q5" and got_b.view - got_a == {got_b.change}


# --- bytes a value keeps ------------------------------------------------------


def fresh_body(msg):
    return KIND_CODECS[msg.TAG][0](msg)


def embedded(msg):
    """The messages inside msg's body other than history links: reconfig
    proofs (in links too), and a state record's ack evidence and COMMIT."""
    if isinstance(msg, ViewHistory):
        return [x for link in msg.links for x in embedded(link)]
    found = [p.msg for p in getattr(msg, "proofs", ()) + getattr(msg, "recv", ())]
    rec = getattr(msg, "record", None)
    if rec is not None:
        found += [e.msg for e in (rec.ack, *(rec.conflicting or ())) if e]
        found += [rec.stored] if rec.stored else []
    return found


def kept_body(msg):
    return vars(msg)["_body"]


@given(messages, pids)
@settings(max_examples=200, deadline=None)
def test_kept_body_is_a_fresh_encoding(msg, author):
    # a locally built value keeps what it was first encoded to, a parsed
    # value (history links included) the bytes it was parsed from
    raw = encode(msg, KEYRING.signer_for(author))
    parsed = decode(raw, KEYRING.verifier(), {}).msg
    # a message inside a body keeps the body it was read from or first
    # encoded to, as a reconfig proof keeps the RECONFIG body its author
    # signed; it comes first, as a fresh encoding of the message around it
    # would derive its body
    values = embedded(msg) + embedded(parsed) + [msg, parsed]
    if isinstance(msg, ViewHistory):
        values += msg.links + parsed.links
    for value in values:
        assert kept_body(value) == fresh_body(value) == body_bytes(value)


def update_with_evidence():
    prepare = Prepare(b"m", V0)
    ack = Signed(prepare, KEYRING.sign("p1", signed_content(prepare, "p1")))
    return StateUpdate(V0, V1, StateRecord(ack=ack, stored=Commit(b"m", make_cert(), V0)), ())


# an embedded value -> (the message it is sent in, where it sits there, its
# check): a reconfig proof in an INSTALL, and the ack evidence and the
# stored COMMIT in a STATE-UPDATE
EMBEDDED = {
    "proof": (make_install, lambda msg: msg.proofs[0],
              lambda proof, verifier: proof.verify(verifier, "p5")),
    "ack": (update_with_evidence, lambda msg: msg.record.ack,
            lambda ack, verifier: ack.verify(verifier, "p1")),
    "stored": (update_with_evidence, lambda msg: msg.record.stored,
               lambda commit, verifier: verify_certificate(commit.cert, commit.payload, verifier)),
}


@pytest.mark.parametrize("kind", EMBEDDED)
def test_parsed_proof_signs_the_slice_it_was_read_from(monkeypatch, kind):
    make, pick, check = EMBEDDED[kind]
    raw = encode(make(), KEYRING.signer_for("p2"))
    value = pick(decode(raw, KEYRING.verifier()).msg)
    msg = value.msg if isinstance(value, Signed) else value
    assert kept_body(msg) in raw

    def fail(*args):
        pytest.fail("re-encoded")

    monkeypatch.setattr(codec, "change_bytes", fail)
    monkeypatch.setattr(codec, "_write_view", fail)
    for tag, (_, read) in list(KIND_CODECS.items()):
        monkeypatch.setitem(KIND_CODECS, tag, (fail, read))
    assert check(value, KEYRING.verifier())
    assert body_bytes(msg) is kept_body(msg)


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
        assert seen == [(author, signed_content(decoded.msg, author))]
    else:
        assert seen == [] and decoded.signature == b""


def test_failed_derivations_are_never_kept():
    # a change that names a too-long process cannot encode, nor can a
    # certificate signed by one
    long_pid = "x" * 256
    msg = Reconfig(plus(long_pid), V0)
    proof = Signed(Reconfig(plus(long_pid), V0), b"sig")
    commit = Commit(b"m", MessageCertificate(V0, ((long_pid, b"sig"),)), V0)
    for _ in range(2):
        with pytest.raises(ViewError, match="identifier too long"):
            body_bytes(msg)
        with pytest.raises(ViewError, match="identifier too long"):
            proof.verify(VERIFIER, long_pid)
        with pytest.raises(ViewError, match="identifier too long"):
            body_bytes(commit)
    assert "_body" not in vars(msg) and "_body" not in vars(proof.msg)
    assert set(vars(proof)) == {"msg", "signature"}  # a signed value keeps nothing
    assert "_body" not in vars(commit)


def test_kept_bytes_are_not_fields():
    install, twin = make_install(), make_install()
    body_bytes(install)
    message_meta(install)
    install.proofs[0].verify(VERIFIER, "p5")
    assert set(vars(install)) - {f.name for f in dataclasses.fields(install)} == {"_body"}
    # a signed value keeps nothing; its message keeps the body it was signed over
    assert set(vars(install.proofs[0])) == {"msg", "signature"}
    assert set(vars(install.proofs[0].msg)) - {"change", "view"} == {"_body"}
    assert install == twin and hash(install) == hash(twin) and repr(install) == repr(twin)
    # a value with other fields derives its own
    other = dataclasses.replace(install, converged_sigs=install.converged_sigs[:2])
    assert "_body" not in vars(other)
    assert body_bytes(other) == fresh_body(other) != body_bytes(install)


def test_history_links_are_not_encoded_again(monkeypatch):
    install = make_install()
    gossip = decode(encode(ViewHistory(V0, (install,)),
                           KEYRING.signer_for("p2")), VERIFIER, {}).msg
    monkeypatch.setitem(KIND_CODECS, TAG_INSTALL,
                        (lambda msg: pytest.fail("re-encoded"), KIND_CODECS[TAG_INSTALL][1]))
    relayed = ViewHistory(gossip.root, gossip.links)
    assert body_bytes(decode(encode(relayed, KEYRING.signer_for("p3")), VERIFIER).msg) == \
        body_bytes(gossip)
