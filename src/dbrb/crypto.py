"""Signing backends and quorum message certificates.

Two interchangeable schemes: an HMAC scheme for fast deterministic test
runs, and Ed25519 for end-to-end realism.  Both are deterministic so a
rerun of the same scenario and seed produces byte-identical traces.

A node only ever holds a Signer bound to its own identity.  Each engine
(every node and every adversary) verifies through its own memoizing
Verifier, so no engine relies on a check another engine made; the key
material behind them is shared.  Adversary code gets the same split, so
it cannot sign for anyone else.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Callable

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .views import ProcessId, View, payload_digest


class Keyring:
    """Deterministic per-process key material for one scheme."""

    def sign(self, pid: ProcessId, payload: bytes) -> bytes:
        raise NotImplementedError

    def verify(self, pid: ProcessId, payload: bytes, sig: bytes) -> bool:
        raise NotImplementedError

    def signer_for(self, pid: ProcessId) -> "Signer":
        return Signer(self, pid)

    def verifier(self) -> "Verifier":
        return Verifier(self)


class HmacKeyring(Keyring):
    """Keyed-digest scheme: unforgeable without the per-process secret."""

    def __init__(self) -> None:
        self._secrets: dict[ProcessId, bytes] = {}

    def _secret(self, pid: ProcessId) -> bytes:
        s = self._secrets.get(pid)
        if s is None:
            s = hashlib.sha256(b"dbrb-hmac-key:" + pid.encode()).digest()
            self._secrets[pid] = s
        return s

    def sign(self, pid: ProcessId, payload: bytes) -> bytes:
        return hmac.digest(self._secret(pid), payload, "sha256")

    def verify(self, pid: ProcessId, payload: bytes, sig: bytes) -> bool:
        return hmac.compare_digest(self.sign(pid, payload), sig)


class Ed25519Keyring(Keyring):
    def __init__(self) -> None:
        self._priv: dict[ProcessId, Ed25519PrivateKey] = {}
        self._pub: dict[ProcessId, Ed25519PublicKey] = {}

    def _private(self, pid: ProcessId) -> Ed25519PrivateKey:
        key = self._priv.get(pid)
        if key is None:
            seed = hashlib.sha256(b"dbrb-ed25519-key:" + pid.encode()).digest()
            key = Ed25519PrivateKey.from_private_bytes(seed)
            self._priv[pid] = key
            self._pub[pid] = key.public_key()
        return key

    def _public(self, pid: ProcessId) -> Ed25519PublicKey:
        if pid not in self._pub:
            self._private(pid)
        return self._pub[pid]

    def sign(self, pid: ProcessId, payload: bytes) -> bytes:
        return self._private(pid).sign(payload)

    def verify(self, pid: ProcessId, payload: bytes, sig: bytes) -> bool:
        try:
            self._public(pid).verify(sig, payload)
            return True
        except InvalidSignature:
            return False


def make_keyring(scheme: str) -> Keyring:
    if scheme == "hmac":
        return HmacKeyring()
    if scheme == "ed25519":
        return Ed25519Keyring()
    raise ValueError(f"unknown crypto scheme: {scheme}")


class Signer:
    """Signing handle for exactly one process identity.

    Both schemes are deterministic, so a content signed again gets the
    same signature; each is computed once and remembered, as `Verifier`
    remembers its checks.
    """

    def __init__(self, keyring: Keyring, pid: ProcessId) -> None:
        self._keyring = keyring
        self.pid = pid
        self._signed: dict[bytes, bytes] = {}

    def sign(self, payload: bytes) -> bytes:
        sig = self._signed.get(payload)
        if sig is None:
            sig = self._signed[payload] = self._keyring.sign(self.pid, payload)
        return sig


class Verifier:
    """Signature verification over any process identity, for one engine.

    Successful checks are remembered, so a signature relayed to the same
    engine again costs a set lookup.  A failed check is never remembered.
    `proved` holds keys of values whose whole proof (structure plus a
    quorum of signatures) held for this engine; the check that owns such a
    proof adds a key after it succeeds, never after it fails.
    """

    def __init__(self, keyring: Keyring) -> None:
        self._keyring = keyring
        self._verified: set[tuple[ProcessId, bytes, bytes]] = set()
        self.proved: set = set()

    def verify(self, pid: ProcessId, payload: bytes, sig: bytes) -> bool:
        key = (pid, payload, sig)
        if key in self._verified:
            return True
        if not self._keyring.verify(pid, payload, sig):
            return False
        self._verified.add(key)
        return True


def ack_payload(payload: bytes, view: View) -> bytes:
    """Bytes covered by an acknowledgment signature: sha256(m) || canonical(view)."""
    return payload_digest(payload) + view.canonical_bytes


# (signer, signature) pairs, ordered by signer.
Signatures = tuple[tuple[ProcessId, bytes], ...]


@dataclass(frozen=True)
class MessageCertificate:
    """Quorum of member acknowledgment signatures over one (payload, view)
    pair.  The payload is not in it: a certificate travels with its payload."""

    view: View
    signatures: Signatures


def build_certificate(view: View, signatures: dict[ProcessId, bytes]) -> MessageCertificate:
    return MessageCertificate(view, tuple(sorted(signatures.items())))


def quorum_signed(view: View, signatures: Signatures, content: Callable[[ProcessId], bytes],
                  verifier: Verifier) -> bool:
    """A quorum of view's members signed: distinct signers, a non-empty
    membership, every signer a member, and at least `view.quorum_size` of
    them; then each signature holds over `content(signer)`, in list order.
    Returns False on any malformation, a view with no members included."""
    signers = [pid for pid, _ in signatures]
    members = view.member_set
    if (len(signers) != len(set(signers)) or not members
            or not members.issuperset(signers) or len(signers) < view.quorum_size):
        return False
    return all(verifier.verify(pid, content(pid), sig) for pid, sig in signatures)


def verify_certificate(cert: MessageCertificate, payload: bytes, verifier: Verifier) -> bool:
    """Full check that cert certifies payload in `cert.view`: a quorum of
    its members each signed `ack_payload(payload, cert.view)`."""
    signed = ack_payload(payload, cert.view)
    return quorum_signed(cert.view, cert.signatures, lambda _: signed, verifier)
