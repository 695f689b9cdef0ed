"""Static Byzantine reliable multicast for install and state-update traffic.

Receivers relay a fresh message to the whole target set before acting on
it, which gives agreement: once any correct member delivers, every
correct member that has not left eventually delivers too.  Duplicate
suppression is by the kind, canonical body and, for state updates,
author of each message.
"""

from __future__ import annotations

from .messages import Decoded, Install, StateUpdate, message_meta
from .discovery import verify_install_proof


def _rm_key(decoded: Decoded) -> tuple[int, bytes, str]:
    # An install's frame names no author (the converged quorum speaks for
    # it); a state update is identified by its signer as well as its body.
    # The received body is canonical (`decode` rejects any other), so equal
    # messages always have equal keys.
    return (decoded.msg.TAG, decoded.body, decoded.author or "")


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
                    self._wrote("rm_pending")
                return
        elif isinstance(msg, StateUpdate):
            if decoded.author not in msg.view.member_set:
                self._note("Drop", msg_kind=decoded.kind, detail="sender not in replaced view")
                return
        else:  # pragma: no cover - only the two kinds are wired up
            self._note("Drop", msg_kind=decoded.kind, detail="unsupported multicast type")
            return
        self._rm_deliver(key, msg, decoded.author, raw)

    def _rm_deliver(self, key: tuple, msg, author: str, raw: bytes) -> None:
        self.rm_received.add(key)
        meta = message_meta(msg)
        for q in sorted(set(msg.psi)):
            if q != self.pid:
                self._send_raw(q, raw, meta)
        if isinstance(msg, Install):
            self._handle_install(msg)
        else:
            self._record_state_update(author, msg)

    def _rm_pending_scan(self) -> None:
        """Deliver each parked install whose replaced view is now trusted.

        No parked copy is of a message already received, so neither this
        scan nor `_rm_deliver` looks for one.  A copy is parked only while
        its replaced view is untrusted, and no install of an untrusted view
        is delivered.  The trust growth that admits the view wakes this
        scan, which reads `trusted_hist`, so it delivers the parked copy
        within that same step, before any other copy can reach
        `_rm_receive`.
        """
        if not self.rm_pending:
            return
        still = []
        for key, msg, raw in self.rm_pending:
            if self._is_trusted(msg.view):
                # Author identity is irrelevant for installs (quorum-proofed).
                self._rm_deliver(key, msg, "", raw)
            else:
                still.append((key, msg, raw))
        self.rm_pending = still
