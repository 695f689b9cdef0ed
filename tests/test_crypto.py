"""Signature schemes and the certificate acceptance oracle.

The oracle builds certificates by brute force: every subset of candidate
signers, signed for real through the scheme under test, and checks that
verification accepts exactly the subsets the quorum rule allows.
"""

import dataclasses
import struct
from itertools import combinations

import pytest

from conftest import reconfig_proofs
from dbrb.crypto import (
    ack_payload,
    build_certificate,
    make_keyring,
    verify_certificate,
)
from dbrb.discovery import verify_install_proof
from dbrb.messages import FIELD_CODECS, Converged, Install, body_bytes, signed_content
from dbrb.views import View, minus, plus

MEMBERS = ["p1", "p2", "p3", "p4"]
V0 = View.initial(MEMBERS)
PAYLOAD = b"certified payload"


@pytest.fixture(params=["hmac", "ed25519"])
def keyring(request):
    return make_keyring(request.param)


def test_sign_verify_round_trip(keyring):
    sig = keyring.sign("p1", b"blob")
    assert keyring.verify("p1", b"blob", sig)
    assert not keyring.verify("p2", b"blob", sig)
    assert not keyring.verify("p1", b"other", sig)


def test_signing_is_deterministic(keyring):
    assert keyring.sign("p1", b"x") == keyring.sign("p1", b"x")


def test_hmac_signatures_are_pinned():
    # known answers: a change to how HMAC signs must not change its bytes
    keyring = make_keyring("hmac")
    assert keyring.sign("p1", b"blob").hex() == \
        "d71ab6573096a7d51d3b1264a31e3cabdc55c5043858f7c2913a0aeffcb2a183"
    assert keyring.sign("q7", b"").hex() == \
        "fb9e2cdc0d68a7b64dd32d9671060c14b1971a88a22e8360376993bfdafefad4"
    assert keyring.sign("p2", bytes(range(256))).hex() == \
        "592c006aa5309ee63af8982fbdc0b3c6c36ecd8dda44b9364496756341f82076"
    assert keyring.verify("p1", b"blob", keyring.sign("p1", b"blob"))
    assert not keyring.verify("p1", b"blob", keyring.sign("p2", b"blob"))


def sign_ack(keyring, pid, payload, view):
    return keyring.sign(pid, ack_payload(payload, view))


def make_cert(keyring, signers, payload=PAYLOAD, view=V0):
    sigs = {pid: sign_ack(keyring, pid, payload, view) for pid in signers}
    return build_certificate(view, sigs)


def test_three_member_signatures_verify(keyring):
    cert = make_cert(keyring, ["p1", "p2", "p3"])
    assert verify_certificate(cert, PAYLOAD, keyring.verifier())


def test_certificate_oracle_exact_threshold(keyring):
    # every subset of members: accepted iff it reaches the quorum size (3 of 4)
    verifier = keyring.verifier()
    for size in range(len(MEMBERS) + 1):
        for subset in combinations(MEMBERS, size):
            cert = make_cert(keyring, subset)
            expected = len(subset) >= V0.quorum_size
            assert verify_certificate(cert, PAYLOAD, verifier) == expected, subset


def test_rejects_wrong_payload(keyring):
    verifier = keyring.verifier()
    cert = make_cert(keyring, ["p1", "p2", "p3"])
    assert not verify_certificate(cert, b"different payload", verifier)

    # one signature computed over a different payload
    sigs = {pid: sign_ack(keyring, pid, PAYLOAD, V0) for pid in ["p1", "p2"]}
    sigs["p3"] = sign_ack(keyring, "p3", b"other", V0)
    mixed = build_certificate(V0, sigs)
    assert not verify_certificate(mixed, PAYLOAD, verifier)


def test_rejects_non_member_signer(keyring):
    verifier = keyring.verifier()
    sigs = {pid: sign_ack(keyring, pid, PAYLOAD, V0) for pid in ["p1", "p2"]}
    sigs["px"] = sign_ack(keyring, "px", PAYLOAD, V0)
    cert = build_certificate(V0, sigs)
    assert not verify_certificate(cert, PAYLOAD, verifier)


def test_rejects_view_mismatch(keyring):
    # signed in V0, relabelled to a view with the same members: the view a
    # certificate names must be the one its signatures cover
    verifier = keyring.verifier()
    other = View(V0 | {plus("p5"), minus("p5")})
    assert other.member_set == V0.member_set
    cert = make_cert(keyring, ["p1", "p2", "p3"])
    assert verify_certificate(cert, PAYLOAD, verifier)
    assert not verify_certificate(dataclasses.replace(cert, view=other), PAYLOAD, verifier)


def test_rejects_signatures_bound_to_other_view(keyring):
    # quorum of signatures, but over (payload, v1) while claiming v0
    verifier = keyring.verifier()
    v1 = View(V0 | {plus("p5")})
    sigs = {pid: sign_ack(keyring, pid, PAYLOAD, v1) for pid in ["p1", "p2", "p3"]}
    cert = build_certificate(V0, sigs)
    assert not verify_certificate(cert, PAYLOAD, verifier)


def test_rejects_duplicate_signers(keyring):
    verifier = keyring.verifier()
    sig = sign_ack(keyring, "p1", PAYLOAD, V0)
    cert = build_certificate(V0, {"p1": sig})
    dup = type(cert)(cert.view, (("p1", sig), ("p1", sig), ("p1", sig)))
    assert not verify_certificate(dup, PAYLOAD, verifier)


def test_verification_is_pure(keyring):
    verifier = keyring.verifier()
    cert = make_cert(keyring, ["p1", "p2", "p3"])
    results = [verify_certificate(cert, PAYLOAD, verifier) for _ in range(3)]
    assert results == [True, True, True]


def cert_bytes(cert):
    return FIELD_CODECS["MessageCertificate"][0](cert)


def test_certificate_serialization_layout(keyring):
    cert = make_cert(keyring, ["p3", "p1", "p2"])
    blob = cert_bytes(cert)
    assert blob == cert_bytes(make_cert(keyring, ["p1", "p2", "p3"]))
    view_block = struct.pack(">I", len(V0.canonical_bytes)) + V0.canonical_bytes
    assert blob.startswith(view_block)  # no digest: the payload travels beside it
    # signer identities appear in sorted order after the view block
    tail = blob[len(view_block):]
    assert tail.find(b"p1") < tail.find(b"p2") < tail.find(b"p3")


def test_verifier_remembers_only_successes(keyring):
    verifier = keyring.verifier()
    good = keyring.sign("p1", b"blob")
    bad = keyring.sign("p2", b"blob")
    assert not verifier.verify("p1", b"blob", bad)
    assert verifier.verify("p1", b"blob", good)
    # same (pid, payload) after a good check: a wrong signature still fails
    assert not verifier.verify("p1", b"blob", bad)
    assert verifier.verify("p1", b"blob", good)
    assert verifier._verified == {("p1", b"blob", good)}


def test_verifier_memo_is_per_instance(keyring):
    calls = []
    real = keyring.verify

    def counting(pid, payload, sig):
        calls.append(pid)
        return real(pid, payload, sig)

    keyring.verify = counting
    sig = keyring.sign("p1", b"blob")
    first, second = keyring.verifier(), keyring.verifier()
    assert first.verify("p1", b"blob", sig) and first.verify("p1", b"blob", sig)
    assert calls == ["p1"]
    # a second verifier never relies on a check the first one made
    assert second.verify("p1", b"blob", sig)
    assert calls == ["p1", "p1"]


def test_signer_signs_each_content_once(keyring):
    calls = []
    real = keyring.sign
    keyring.sign = lambda pid, payload: calls.append(payload) or real(pid, payload)
    signer = keyring.signer_for("p1")
    first = signer.sign(b"blob")
    assert signer.sign(b"blob") == first == real("p1", b"blob")
    assert calls == [b"blob"]
    assert signer.sign(b"other") != first
    assert calls == [b"blob", b"other"]


def make_install(keyring):
    v1 = View(V0 | {plus("p5")})
    seq = frozenset({v1})
    sigs = tuple((pid, keyring.sign(pid, signed_content(Converged(seq, V0), pid)))
                 for pid in ("p1", "p2", "p3"))
    return Install(seq, V0, sigs, reconfig_proofs(keyring, seq, V0))


def counting_verifier(keyring, calls):
    verifier = keyring.verifier()
    real = verifier.verify
    verifier.verify = lambda pid, payload, sig: calls.append(pid) or real(pid, payload, sig)
    return verifier


def test_failed_install_proof_is_never_remembered(keyring):
    calls = []
    verifier = counting_verifier(keyring, calls)
    good = make_install(keyring)
    sigs = list(good.converged_sigs)
    sigs[0] = (sigs[0][0], b"garbage")
    bad = Install(good.seq, good.view, tuple(sigs), good.proofs)
    assert not verify_install_proof(bad, verifier)
    assert verifier.proved == set()
    assert verify_install_proof(good, verifier)
    assert verifier.proved == {body_bytes(good)}
    # a proved install is accepted without a signature check; a failed one
    # is checked in full every time
    del calls[:]
    assert verify_install_proof(good, verifier)
    assert calls == []
    assert not verify_install_proof(bad, verifier)
    assert calls and verifier.proved == {body_bytes(good)}


def test_proved_installs_are_per_verifier(keyring):
    install = make_install(keyring)
    first_calls, second_calls = [], []
    first = counting_verifier(keyring, first_calls)
    second = counting_verifier(keyring, second_calls)
    assert verify_install_proof(install, first)
    assert second.proved == set()
    # a second engine never relies on the proof the first one checked: the
    # three converged signatures, then p5's own reconfiguration request
    assert verify_install_proof(install, second)
    assert second_calls == first_calls == ["p1", "p2", "p3", "p5"]
