"""Static Byzantine reliable multicast for install and state-update traffic.

The target set of a message is not sent: it is the members of its replaced
view and of its omega (`rm_targets`), which every receiver derives alike,
so no sender picks its own relay targets.  Receivers relay a fresh message
to the whole target set before acting on it, which gives agreement: once
any correct member delivers, every correct member that has not left
eventually delivers too.  Duplicate suppression is by the kind, canonical
body and, for state updates, author of each message.
"""

from __future__ import annotations

from .messages import Decoded, Install, StateUpdate, message_meta
from .discovery import verify_install_proof
from .views import ProcessId


def rm_targets(msg: Install | StateUpdate) -> list[ProcessId]:
    """The sorted members of msg's replaced view and of its omega.  An
    install's omega is derived from its sequence, so read this only once
    the install proof holds."""
    return sorted(msg.view.member_set | msg.omega.member_set)


def _rm_key(decoded: Decoded) -> tuple[int, bytes, str]:
    # An install's frame names no author (the converged quorum speaks for
    # it); a state update is identified by its signer as well as its body.
    # The received body is canonical (`decode` rejects any other), so equal
    # messages always have equal keys.
    return (decoded.msg.TAG, decoded.body, decoded.author or "")


class RMulticastMixin:
    def _r_multicast(self, msg) -> None:
        self._send_all(rm_targets(msg), msg)

    def _rm_receive(self, decoded: Decoded, raw: bytes) -> None:
        """Check and deliver an install or a state update, the only kinds
        the engine routes here.

        A received message passed every check below, and equal bodies
        have equal targets, so a copy of it is dropped first, quietly.
        """
        msg = decoded.msg
        key = _rm_key(decoded)
        if key in self.rm_received:
            return
        is_install = isinstance(msg, Install)
        if is_install and not verify_install_proof(msg, self.verifier):
            self._note("Drop", msg_kind=decoded.kind, detail="invalid install proof")
            return
        if self.pid not in rm_targets(msg):
            self._note("Drop", msg_kind=decoded.kind, detail="not in target set")
            return
        if is_install:
            if not self._is_trusted(msg.view):
                # Replaced view unknown yet; park until a history arrives.
                if all(k != key for k, _, _ in self.rm_pending):
                    self.rm_pending.append((key, msg, raw))
                    self._wrote("rm_pending")
                return
        elif decoded.author not in msg.view.member_set:  # a state update
            self._note("Drop", msg_kind=decoded.kind, detail="sender not in replaced view")
            return
        self._rm_deliver(key, msg, decoded.author, raw)

    def _rm_deliver(self, key: tuple, msg, author: str, raw: bytes) -> None:
        self.rm_received.add(key)
        meta = message_meta(msg)
        for q in rm_targets(msg):
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
