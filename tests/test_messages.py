import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from dbrb.crypto import MessageCertificate, build_certificate, make_keyring, ack_payload
from dbrb.messages import (
    TAG_CONVERGED,
    TAG_HISTORY,
    TAG_INSTALL,
    TAG_PROPOSE,
    TAG_STATE_UPDATE,
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
    ViewHistory,
    Writer,
    _signed_content,
    body_bytes,
    converged_signed_bytes,
    decode,
    encode,
    reconfig_signed_bytes,
    write_pids,
    write_proof,
    write_proofs,
    write_seq,
    write_state_record,
    write_view,
)
from dbrb.views import View, plus, minus

KEYRING = make_keyring("hmac")
VERIFIER = KEYRING.verifier()
V0 = View.initial(["p1", "p2", "p3", "p4"])
V1 = View(V0.changes | {plus("p5")})
SEQ = frozenset({V1})


def roundtrip(msg, author="p1"):
    raw = encode(msg, KEYRING.signer_for(author))
    decoded = decode(raw, VERIFIER)
    assert decoded.author == author
    assert decoded.msg == msg
    return decoded


def make_install(author="p1"):
    sigs = tuple(
        (pid, KEYRING.sign(pid, converged_signed_bytes(SEQ, V0, pid)))
        for pid in ["p1", "p2", "p3"]
    )
    proof = ReconfigProof(plus("p5"), V0,
                          KEYRING.sign("p5", reconfig_signed_bytes(plus("p5"), V0, "p5")))
    return Install(tuple(sorted(V0.member_set | V1.member_set)), V1, SEQ, V0, sigs, (proof,))


def make_cert():
    digest = hashlib.sha256(b"m").digest()
    sigs = {p: KEYRING.sign(p, ack_payload(digest, V0)) for p in ["p1", "p2", "p3"]}
    return build_certificate(digest, V0, sigs)


def test_round_trip_all_kinds():
    cert = make_cert()
    stored = StoredEvidence(b"m", cert, V0, V0)
    prep_ev = PrepareEvidence(b"m", V0, b"sig-bytes")
    record = StateRecord(ack=prep_ev, conflicting=(prep_ev, PrepareEvidence(b"m2", V0, b"s2")),
                         stored=stored)
    install = make_install()
    history = ViewHistory((V0, V1), (install,))
    messages = [
        Reconfig(plus("p5"), V0),
        Reconfig(minus("p2"), V0),
        RecConfirm(V0),
        Propose(SEQ, V0, install.proofs),
        Converged(SEQ, V0),
        install,
        StateUpdate(install.psi, V0, V1, record, install.proofs),
        Prepare(b"m", V0),
        Ack(b"m", b"ack-sig", V0),
        Commit(b"m", cert, V0, V0),
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
    raw[0] = 9
    with pytest.raises(CodecError):
        decode(bytes(raw), VERIFIER)


def test_non_canonical_view_rejected():
    from dbrb.messages import Reader, Writer, read_view
    import struct

    # two changes out of canonical order
    item_b = struct.pack(">B", 2) + b"pb" + b"\x2b"
    item_a = struct.pack(">B", 2) + b"pa" + b"\x2b"
    blob = struct.pack(">I", 2) + item_b + item_a
    w = Writer()
    w.blob(blob)
    with pytest.raises(CodecError):
        read_view(Reader(w.getvalue()))


def test_truncated_message_rejected():
    raw = encode(Commit(b"m", make_cert(), V0, V0), KEYRING.signer_for("p1"))
    with pytest.raises(CodecError):
        decode(raw[:-3], VERIFIER)


def test_reconfig_proof_round_trip_verifies():
    install = make_install()
    proof = install.proofs[0]
    assert proof.verify(VERIFIER)
    bad = ReconfigProof(proof.change, proof.view, b"junk")
    assert not bad.verify(VERIFIER)


def test_history_arity_enforced():
    with pytest.raises(CodecError):
        ViewHistory((V0, V1), ())


def test_oversized_view_decodes_as_codec_error():
    # a change set past the cap must be droppable, never a crash
    import struct
    from dbrb.views import MAX_CHANGES
    from dbrb.messages import Writer, _signed_content, TAG_REC_CONFIRM

    inner = Writer()
    count = MAX_CHANGES + 1
    inner.u32(count)
    for i in range(count):
        pid = f"q{i:05d}".encode()
        inner.raw(struct.pack(">B", len(pid)))
        inner.raw(pid)
        inner.raw(b"\x2b")
    body_w = Writer()
    body_w.blob(inner.getvalue())
    body = body_w.getvalue()
    content = _signed_content(TAG_REC_CONFIRM, body, "p1")
    sig = KEYRING.sign("p1", content)
    out = Writer()
    out.raw(content)
    out.blob(sig)
    with pytest.raises(CodecError):
        decode(out.getvalue(), VERIFIER)


# --- canonical encoding -------------------------------------------------------

PIDS = ["p1", "p2", "p3", "p4", "p5", "q"]
pids = st.sampled_from(PIDS)
changes = st.builds(lambda sign, pid: plus(pid) if sign else minus(pid), st.booleans(), pids)
views = st.frozensets(changes, min_size=1, max_size=6).map(View)
seqs = st.frozensets(views, max_size=3)
blobs = st.binary(max_size=8)
proofs = st.lists(st.builds(ReconfigProof, changes, views, blobs), max_size=3).map(tuple)
sig_pairs = st.lists(st.tuples(pids, blobs), max_size=3).map(tuple)
pid_tuples = st.lists(pids, max_size=4).map(tuple)
certs = st.builds(MessageCertificate, blobs, views, sig_pairs)
prep_evidence = st.builds(PrepareEvidence, blobs, views, blobs)
records = st.builds(StateRecord, st.none() | prep_evidence,
                    st.none() | st.tuples(prep_evidence, prep_evidence),
                    st.none() | st.builds(StoredEvidence, blobs, certs, views, views))
installs = st.builds(Install, pid_tuples, views, seqs, views, sig_pairs, proofs)
histories = st.builds(lambda v0, links: ViewHistory((v0,) + tuple(l.omega for l in links),
                                                    tuple(links)),
                      views, st.lists(installs, max_size=2))
messages = st.one_of(
    st.builds(Reconfig, changes, views),
    st.builds(RecConfirm, views),
    st.builds(Propose, seqs, views, proofs),
    st.builds(Converged, seqs, views),
    installs,
    st.builds(StateUpdate, pid_tuples, views, views, records, proofs),
    st.builds(Prepare, blobs, views),
    st.builds(Ack, blobs, blobs, views),
    st.builds(Commit, blobs, certs, views, views),
    st.builds(Deliver, blobs, views),
    st.just(HistoryRequest()),
    st.builds(HistoryGossip, histories),
)


def frame(tag, body, author="p1"):
    """Sign and frame a hand-written body, as `encode` does a canonical one."""
    content = _signed_content(tag, body, author)
    w = Writer()
    w.raw(content)
    w.blob(KEYRING.sign(author, content))
    return w.getvalue()


@given(messages, pids)
@settings(max_examples=200, deadline=None)
def test_decoded_body_is_the_canonical_encoding(msg, author):
    # collections are drawn in any order; the body on the wire is canonical
    decoded = decode(encode(msg, KEYRING.signer_for(author)), VERIFIER)
    assert body_bytes(decoded.msg) == decoded.body
    assert body_bytes(msg) == decoded.body


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
    assert body_bytes(decoded.msg) == decoded.body == bytes(body)


V2 = View(V1.changes | {plus("p6")})


def test_sequence_out_of_order_rejected():
    w = Writer()
    w.u32(2)
    write_view(w, V2)
    write_view(w, V1)
    write_view(w, V0)
    with pytest.raises(CodecError, match="sequence views not canonical"):
        decode(frame(TAG_CONVERGED, w.getvalue()), VERIFIER)


def test_sequence_with_repeated_view_rejected():
    w = Writer()
    w.u32(2)
    write_view(w, V1)
    write_view(w, V1)
    write_view(w, V0)
    with pytest.raises(CodecError, match="sequence views not canonical"):
        decode(frame(TAG_CONVERGED, w.getvalue()), VERIFIER)


def write_install_body(w, psi, sigs, proofs):
    # Install.write_body, but with the collections in the order given
    w.u32(len(psi))
    for pid in psi:
        w.text(pid)
    write_view(w, V1)
    write_seq(w, SEQ)
    write_view(w, V0)
    w.u32(len(sigs))
    for pid, sig in sigs:
        w.text(pid)
        w.blob(sig)
    w.u32(len(proofs))
    for p in proofs:
        write_proof(w, p)


def test_target_set_out_of_order_rejected():
    install = make_install()
    w = Writer()
    write_install_body(w, tuple(reversed(install.psi)), install.converged_sigs, install.proofs)
    with pytest.raises(CodecError, match="process ids not canonical"):
        decode(frame(TAG_INSTALL, w.getvalue()), VERIFIER)


def test_converged_signatures_out_of_order_rejected():
    install = make_install()
    w = Writer()
    write_install_body(w, install.psi, tuple(reversed(install.converged_sigs)), install.proofs)
    with pytest.raises(CodecError, match="converged signatures not canonical"):
        decode(frame(TAG_INSTALL, w.getvalue()), VERIFIER)


def test_reconfig_proofs_out_of_order_rejected():
    make = lambda c: ReconfigProof(c, V0, KEYRING.sign(c.process, reconfig_signed_bytes(c, V0, c.process)))
    proofs = (make(plus("p6")), make(plus("p5")))
    w = Writer()
    write_seq(w, frozenset({View(V0.changes | {plus("p5"), plus("p6")})}))
    write_view(w, V0)
    w.u32(len(proofs))
    for p in proofs:
        write_proof(w, p)
    with pytest.raises(CodecError, match="reconfig proofs not canonical"):
        decode(frame(TAG_PROPOSE, w.getvalue()), VERIFIER)


def test_state_record_unknown_flags_rejected():
    install = make_install()
    for flags, ok in ((0, True), (8, False), (0x80, False)):
        w = Writer()
        write_pids(w, install.psi)
        write_view(w, V0)
        write_view(w, V1)
        if flags:
            w.u8(flags)
        else:
            write_state_record(w, StateRecord())
        write_proofs(w, ())
        raw = frame(TAG_STATE_UPDATE, w.getvalue())
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
    real = Install.read_body.__func__
    monkeypatch.setattr(Install, "read_body",
                        classmethod(lambda cls, r: parsed.append(1) or real(cls, r)))
    gossip = HistoryGossip(ViewHistory((V0, V1), (install,)))
    decoded = decode(encode(gossip, KEYRING.signer_for("p2")), VERIFIER, bodies)
    assert decoded.msg.history.links[0] is known
    assert parsed == []
    assert (TAG_HISTORY, decoded.body) in bodies


def test_link_first_seen_in_a_history_is_known_as_an_install():
    bodies = {}
    install = make_install()
    gossip = HistoryGossip(ViewHistory((V0, V1), (install,)))
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
            pool.append(HistoryGossip(ViewHistory((msg.view, msg.omega), (msg,))))
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
