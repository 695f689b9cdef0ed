"""Static Byzantine reliable multicast for install and state-update traffic.

Receivers relay a fresh message to the whole target set before acting on
it, which gives agreement: once any correct member delivers, every
correct member that has not left eventually delivers too.  Duplicate
suppression is by digest over the target set and the full payload.
"""

from __future__ import annotations

import hashlib

from .messages import Decoded, Install, StateUpdate, message_meta
from .discovery import verify_install_proof


def _rm_key(decoded: Decoded) -> bytes:
    # Installs are author-agnostic (the converged quorum speaks for them);
    # a state update is identified by its originator as well as its body.
    # The received body is canonical (`decode` rejects any other), so equal
    # messages always hash equal.
    msg = decoded.msg
    tail = decoded.author.encode() if isinstance(msg, StateUpdate) else b""
    return hashlib.sha256(bytes([msg.TAG]) + decoded.body + tail).digest()


class RMulticastMixin:
    def _r_multicast(self, msg) -> None:
        self._send_all(sorted(set(msg.psi)), msg)

    def _rm_receive(self, decoded: Decoded, raw: bytes) -> None:
        msg = decoded.msg
        if self.pid not in msg.psi:
            self._note("Drop", msg_kind=decoded.kind, detail="not in target set")
            return
        key = _rm_key(decoded)
        if key in self.rm_received:
            return
        if isinstance(msg, Install):
            if not verify_install_proof(msg, self.verifier):
                self._note("Drop", msg_kind=decoded.kind, detail="invalid install proof")
                return
            if not self._is_trusted(msg.view):
                # Replaced view unknown yet; park until a history arrives.
                if all(k != key for k, _, _ in self.rm_pending):
                    self.rm_pending.append((key, msg, raw))
                return
        elif isinstance(msg, StateUpdate):
            if decoded.author not in msg.view.member_set:
                self._note("Drop", msg_kind=decoded.kind, detail="sender not in replaced view")
                return
        else:  # pragma: no cover - only the two kinds are wired up
            self._note("Drop", msg_kind=decoded.kind, detail="unsupported multicast type")
            return
        self._rm_deliver(key, msg, decoded.author, raw)

    def _rm_deliver(self, key: bytes, msg, author: str, raw: bytes) -> None:
        self.rm_received.add(key)
        meta = message_meta(msg)
        for q in sorted(set(msg.psi)):
            if q != self.pid:
                self._send_raw(q, raw, meta)
        if isinstance(msg, Install):
            self._handle_install(msg)
        else:
            self._record_state_update(author, msg)

    def _rm_pending_scan(self) -> bool:
        if self.halted or not self.rm_pending:
            return False
        changed = False
        still = []
        for key, msg, raw in self.rm_pending:
            if key in self.rm_received:
                continue
            if self._is_trusted(msg.view):
                # Author identity is irrelevant for installs (quorum-proofed).
                self._rm_deliver(key, msg, "", raw)
                changed = True
            else:
                still.append((key, msg, raw))
        self.rm_pending = still
        return changed
