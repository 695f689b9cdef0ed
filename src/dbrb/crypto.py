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

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .views import ProcessId, View


class Keyring:
    """Deterministic per-process key material for one scheme."""

    name = "base"

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

    name = "hmac"

    def __init__(self) -> None:
        self._secrets: dict[ProcessId, bytes] = {}

    def _secret(self, pid: ProcessId) -> bytes:
        s = self._secrets.get(pid)
        if s is None:
            s = hashlib.sha256(b"dbrb-hmac-key:" + pid.encode()).digest()
            self._secrets[pid] = s
        return s

    def sign(self, pid: ProcessId, payload: bytes) -> bytes:
        return hmac.new(self._secret(pid), payload, hashlib.sha256).digest()

    def verify(self, pid: ProcessId, payload: bytes, sig: bytes) -> bool:
        return hmac.compare_digest(self.sign(pid, payload), sig)


class Ed25519Keyring(Keyring):
    name = "ed25519"

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


def make_keyring(name: str) -> Keyring:
    if name == "hmac":
        return HmacKeyring()
    if name == "ed25519":
        return Ed25519Keyring()
    raise ValueError(f"unknown crypto scheme: {name}")


class Signer:
    """Signing handle for exactly one process identity."""

    def __init__(self, keyring: Keyring, pid: ProcessId) -> None:
        self._keyring = keyring
        self.pid = pid

    def sign(self, payload: bytes) -> bytes:
        return self._keyring.sign(self.pid, payload)


class Verifier:
    """Signature verification over any process identity, for one engine.

    Successful checks are remembered, so a signature relayed to the same
    engine again costs a set lookup.  A failed check is never remembered.
    `proved` holds values whose whole proof (structure plus a quorum of
    signatures) held for this engine; the check that owns such a proof
    adds a value after it succeeds, never after it fails.
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


def ack_payload(message_digest: bytes, view: View) -> bytes:
    """Bytes covered by an acknowledgment signature: digest(m) || canonical(view)."""
    return message_digest + view.canonical_bytes


@dataclass(frozen=True)
class MessageCertificate:
    """Quorum of member acknowledgment signatures over one (payload, view) pair."""

    message_digest: bytes
    view: View
    signatures: tuple[tuple[ProcessId, bytes], ...]


def build_certificate(message_digest: bytes, view: View,
                      signatures: dict[ProcessId, bytes]) -> MessageCertificate:
    return MessageCertificate(
        message_digest=message_digest,
        view=view,
        signatures=tuple(sorted(signatures.items())),
    )


def verify_certificate(cert: MessageCertificate, v_cer: View, payload: bytes,
                       verifier: Verifier) -> bool:
    """Full certificate check; returns False on any malformation."""
    if cert.view != v_cer:
        return False
    if cert.message_digest != hashlib.sha256(payload).digest():
        return False
    signers = [pid for pid, _ in cert.signatures]
    if len(signers) != len(set(signers)):
        return False
    member_set = v_cer.member_set
    if not member_set:
        return False
    if any(pid not in member_set for pid in signers):
        return False
    if len(signers) < v_cer.quorum_size:
        return False
    signed = ack_payload(cert.message_digest, v_cer)
    return all(verifier.verify(pid, signed, sig) for pid, sig in cert.signatures)
