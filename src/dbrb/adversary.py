"""Byzantine node behaviors for the simulator.

Each strategy is its own engine over the same event/action interface as
the correct node, holding only its own signing key.  Strategies never
verify what they send; they simply cannot forge other processes' keys.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from .crypto import MessageCertificate, Signer, Verifier, ack_payload, build_certificate
from .engine import InvokeBroadcast, Receive, Send
from .messages import (
    Ack,
    CodecError,
    Commit,
    Install,
    Message,
    Prepare,
    decode,
    encode,
    message_meta,
)
from .views import Tally, View, seq_sort_key


class AdversaryBase:
    """Shared plumbing: view tracking and signed sends."""

    def __init__(self, pid: str, initial_view: View, signer: Signer,
                 verifier: Verifier, rng: random.Random,
                 params: Optional[dict] = None) -> None:
        self.pid = pid
        self.signer = signer
        self.verifier = verifier
        self.rng = rng
        self.params = params or {}
        self.views = [initial_view]
        self._outputs: list = []

    def _period(self, default: int) -> int:  # act on every period-th message
        period = int(self.params.get("period", default))
        if period < 1:
            raise ValueError(f"period must be at least 1, not {period}")
        return period

    @property
    def latest_view(self) -> View:
        return max(self.views, key=seq_sort_key)

    def _send_all(self, targets, msg) -> None:
        """Send msg to each target other than self; it is encoded and signed once."""
        targets = [q for q in targets if q != self.pid]
        if targets:
            raw, meta = encode(msg, self.signer), message_meta(msg)
            self._outputs.extend(Send(q, raw, meta) for q in targets)

    def _track_views(self, msg) -> None:
        if isinstance(msg, Install):  # omega is in seq; unproved, it is not derived
            for v in {msg.view} | msg.seq:
                if v not in self.views:
                    self.views.append(v)

    def step(self, event) -> list:
        self._outputs = []
        if isinstance(event, Receive):
            try:
                decoded = decode(event.raw, self.verifier)
            except CodecError:
                decoded = None
            if decoded is not None:
                if decoded.author is None:  # a link-only kind speaks for its link sender
                    decoded = replace(decoded, author=event.sender)
                self._track_views(decoded.msg)
                self.on_message(event, decoded)
        elif isinstance(event, InvokeBroadcast):
            self.on_broadcast(event.payload)
        out, self._outputs = self._outputs, []
        return out

    def on_message(self, event: Receive, decoded) -> None:
        pass

    def on_broadcast(self, payload: bytes) -> None:
        pass


class SilentNode(AdversaryBase):
    """Drops every duty on the floor."""

    def step(self, event) -> list:
        return []


class EquivocatingSender(AdversaryBase):
    """Sends one payload to half the view and a second one to the other half,
    then chases certificates for both."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.payloads: list[bytes] = []
        self.acks = Tally()  # (view, payload): ack signatures
        self.certs: dict[bytes, MessageCertificate] = {}

    def _halves(self, view: View) -> tuple[list[str], list[str]]:
        members = list(view.members)
        return members[0::2], members[1::2]

    def _self_ack(self, payload: bytes, view: View) -> None:
        if self.pid in view.member_set:
            sig = self.signer.sign(ack_payload(payload, view))
            self.acks.add(view, payload, self.pid, sig)

    def _spray_prepares(self, view: View) -> None:
        halves = self._halves(view)
        for payload, half in zip(self.payloads, halves):
            self._send_all(half, Prepare(payload, view))
            self._self_ack(payload, view)

    def on_broadcast(self, payload: bytes) -> None:
        self.payloads = [payload, payload + b"/equivocation"]
        self._spray_prepares(self.latest_view)

    def on_message(self, event: Receive, decoded) -> None:
        msg = decoded.msg
        if isinstance(msg, Ack):
            if self.verifier.verify(decoded.author,
                                    ack_payload(msg.payload, msg.view), msg.signature):
                self.acks.add(msg.view, msg.payload, decoded.author, msg.signature)
            self._chase_certificates()
        elif isinstance(msg, Install) and self.payloads:
            self._spray_prepares(self.latest_view)
            for payload, cert in sorted(self.certs.items()):
                self._send_all(self.latest_view.members,
                               Commit(payload, cert, self.latest_view))

    def _chase_certificates(self) -> None:
        for (view, payload), sigs in self.acks.quorums():
            if payload in self.certs:
                continue
            cert = build_certificate(view, sigs)
            self.certs[payload] = cert
            self._send_all(view.members, Commit(payload, cert, view))


class CertificateForger(AdversaryBase):
    """Periodically emits commits whose certificates cannot verify."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.period = self._period(3)
        self.seen = 0

    def on_message(self, event: Receive, decoded) -> None:
        self.seen += 1
        if self.seen % self.period:
            return
        view = self.latest_view
        payload = b"forged/" + self.seen.to_bytes(4, "big")
        fake_sigs = {q: self.rng.randbytes(32) for q in view.members[:view.quorum_size]}
        cert = build_certificate(view, fake_sigs)
        self._send_all(view.members, Commit(payload, cert, view))


class StaleReplayer(AdversaryBase):
    """Records traffic and re-injects old messages, stale views included."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.period = self._period(2)
        self.recorded: list[tuple[bytes, Message]] = []
        self.peers: list[str] = list(self.views[0].members)
        self.seen = 0

    def on_message(self, event: Receive, decoded) -> None:
        self.recorded.append((event.raw, decoded.msg))
        if decoded.author not in self.peers:
            self.peers.append(decoded.author)
        self.seen += 1
        if self.seen % self.period or not self.recorded:
            return
        raw, msg = self.recorded[self.rng.randrange(len(self.recorded))]
        target = self.peers[self.rng.randrange(len(self.peers))]
        if target != self.pid:
            self._outputs.append(Send(target, raw, message_meta(msg)))


STRATEGIES = {
    "silent": SilentNode,
    "equivocate_sender": EquivocatingSender,
    "forge_certificate": CertificateForger,
    "replay_stale_view": StaleReplayer,
}


def make_adversary(strategy: str, *args, **kwargs) -> AdversaryBase:
    cls = STRATEGIES.get(strategy)
    if cls is None:
        raise ValueError(f"unknown byzantine strategy: {strategy}")
    return cls(*args, **kwargs)
