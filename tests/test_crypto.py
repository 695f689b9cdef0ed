"""Signature schemes and the certificate acceptance oracle.

The oracle builds certificates by brute force: every subset of candidate
signers, signed for real through the scheme under test, and checks that
verification accepts exactly the subsets the quorum rule allows.
"""

import hashlib
import struct
from itertools import combinations

import pytest

from dbrb.crypto import (
    ack_payload,
    build_certificate,
    make_keyring,
    verify_certificate,
)
from dbrb.discovery import verify_install_proof
from dbrb.messages import Install, Writer, converged_signed_bytes, write_cert
from dbrb.views import View, plus

MEMBERS = ["p1", "p2", "p3", "p4"]
V0 = View.initial(MEMBERS)
PAYLOAD = b"certified payload"
DIGEST = hashlib.sha256(PAYLOAD).digest()


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


def sign_ack(keyring, pid, payload, view):
    return keyring.sign(pid, ack_payload(hashlib.sha256(payload).digest(), view))


def make_cert(keyring, signers, payload=PAYLOAD, view=V0):
    sigs = {pid: sign_ack(keyring, pid, payload, view) for pid in signers}
    return build_certificate(hashlib.sha256(payload).digest(), view, sigs)


def test_three_member_signatures_verify(keyring):
    cert = make_cert(keyring, ["p1", "p2", "p3"])
    assert verify_certificate(cert, V0, PAYLOAD, keyring.verifier())


def test_certificate_oracle_exact_threshold(keyring):
    # every subset of members: accepted iff it reaches the quorum size (3 of 4)
    verifier = keyring.verifier()
    for size in range(len(MEMBERS) + 1):
        for subset in combinations(MEMBERS, size):
            cert = make_cert(keyring, subset)
            expected = len(subset) >= V0.quorum_size
            assert verify_certificate(cert, V0, PAYLOAD, verifier) == expected, subset


def test_rejects_wrong_payload(keyring):
    verifier = keyring.verifier()
    cert = make_cert(keyring, ["p1", "p2", "p3"])
    assert not verify_certificate(cert, V0, b"different payload", verifier)

    # one signature computed over a different payload
    sigs = {pid: sign_ack(keyring, pid, PAYLOAD, V0) for pid in ["p1", "p2"]}
    sigs["p3"] = sign_ack(keyring, "p3", b"other", V0)
    mixed = build_certificate(DIGEST, V0, sigs)
    assert not verify_certificate(mixed, V0, PAYLOAD, verifier)


def test_rejects_non_member_signer(keyring):
    verifier = keyring.verifier()
    sigs = {pid: sign_ack(keyring, pid, PAYLOAD, V0) for pid in ["p1", "p2"]}
    sigs["px"] = sign_ack(keyring, "px", PAYLOAD, V0)
    cert = build_certificate(DIGEST, V0, sigs)
    assert not verify_certificate(cert, V0, PAYLOAD, verifier)


def test_rejects_view_mismatch(keyring):
    verifier = keyring.verifier()
    other = View(V0.changes | {plus("p5")})
    cert = make_cert(keyring, ["p1", "p2", "p3"])
    assert not verify_certificate(cert, other, PAYLOAD, verifier)


def test_rejects_signatures_bound_to_other_view(keyring):
    # quorum of signatures, but over (payload, v1) while claiming v0
    verifier = keyring.verifier()
    v1 = View(V0.changes | {plus("p5")})
    sigs = {pid: sign_ack(keyring, pid, PAYLOAD, v1) for pid in ["p1", "p2", "p3"]}
    cert = build_certificate(DIGEST, V0, sigs)
    assert not verify_certificate(cert, V0, PAYLOAD, verifier)


def test_rejects_duplicate_signers(keyring):
    verifier = keyring.verifier()
    sig = sign_ack(keyring, "p1", PAYLOAD, V0)
    cert = build_certificate(DIGEST, V0, {"p1": sig})
    dup = type(cert)(cert.message_digest, cert.view,
                     (("p1", sig), ("p1", sig), ("p1", sig)))
    assert not verify_certificate(dup, V0, PAYLOAD, verifier)


def test_verification_is_pure(keyring):
    verifier = keyring.verifier()
    cert = make_cert(keyring, ["p1", "p2", "p3"])
    results = [verify_certificate(cert, V0, PAYLOAD, verifier) for _ in range(3)]
    assert results == [True, True, True]


def cert_bytes(cert):
    w = Writer()
    write_cert(w, cert)
    return w.getvalue()


def test_certificate_serialization_layout(keyring):
    cert = make_cert(keyring, ["p3", "p1", "p2"])
    blob = cert_bytes(cert)
    assert blob == cert_bytes(make_cert(keyring, ["p1", "p2", "p3"]))
    view_block = struct.pack(">I", len(V0.canonical_bytes)) + V0.canonical_bytes
    assert blob.startswith(struct.pack(">I", len(DIGEST)) + DIGEST + view_block)
    # signer identities appear in sorted order after the view block
    tail = blob[4 + len(DIGEST) + len(view_block):]
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


def make_install(keyring):
    v1 = View(V0.changes | {plus("p5")})
    seq = frozenset({v1})
    sigs = tuple((pid, keyring.sign(pid, converged_signed_bytes(seq, V0, pid)))
                 for pid in ("p1", "p2", "p3"))
    return Install(tuple(sorted(V0.member_set | v1.member_set)), v1, seq, V0, sigs, ())


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
    bad = Install(good.psi, good.omega, good.seq, good.view, tuple(sigs), ())
    assert not verify_install_proof(bad, verifier)
    assert verifier.proved == set()
    assert verify_install_proof(good, verifier)
    assert verifier.proved == {good}
    # a proved install is accepted without a signature check; a failed one
    # is checked in full every time
    del calls[:]
    assert verify_install_proof(good, verifier)
    assert calls == []
    assert not verify_install_proof(bad, verifier)
    assert calls and verifier.proved == {good}


def test_proved_installs_are_per_verifier(keyring):
    install = make_install(keyring)
    first_calls, second_calls = [], []
    first = counting_verifier(keyring, first_calls)
    second = counting_verifier(keyring, second_calls)
    assert verify_install_proof(install, first)
    assert second.proved == set()
    # a second engine never relies on the proof the first one checked
    assert verify_install_proof(install, second)
    assert second_calls == first_calls == ["p1", "p2", "p3"]
