"""Broadcast machine: prepare/ack/commit/deliver plus certificate reuse.

The acknowledgment fence (allowed_ack) only ever tightens: from "any
message" to one specific payload, and from there to "no message" once
conflicting sender signatures surface.  That lattice, propagated through
state transfer, is what blocks an equivocating sender across views.
"""

from __future__ import annotations

import hashlib

from .crypto import ack_payload, build_certificate, verify_certificate
from .membership import ContractError
from .messages import (
    Ack,
    Commit,
    Deliver,
    Prepare,
    PrepareEvidence,
    StateRecord,
    StoredEvidence,
)
from .views import short_digest

ALLOW_ANY = "any"
ALLOW_NONE = "none"


class BroadcastMixin:
    def _set_allowed(self, value) -> None:
        current = self.allowed_ack
        if current == value:
            return
        if current == ALLOW_NONE:
            raise AssertionError("allowed_ack may not leave the closed state")
        if isinstance(current, bytes) and isinstance(value, bytes):
            raise AssertionError("allowed_ack may not switch payloads")
        if isinstance(current, bytes) and value == ALLOW_ANY:
            raise AssertionError("allowed_ack may not widen")
        self.allowed_ack = value

    # -- operations ------------------------------------------------------------

    def _invoke_broadcast(self, payload: bytes) -> None:
        if self.pid != self.sender_id:
            raise ContractError("only the designated sender may broadcast")
        if not self.joined or self.leave_invoked:
            raise ContractError("broadcast requires a participant")
        if self.broadcast_invoked:
            raise ContractError("single broadcast instance per run")
        self.broadcast_invoked = True
        self.bpayload = payload
        if self.installed.get(self.cv, False):
            self._disseminate(Prepare(payload, self.cv))

    def _disseminate(self, msg) -> None:
        self._send_all(msg.view.members, msg)

    # -- handlers ---------------------------------------------------------------

    def _handle_prepare(self, author: str, msg: Prepare, signature: bytes) -> None:
        if self.suspended:
            self._note("Drop", msg_kind="PREPARE", detail="processing suspended")
            return
        if author != self.sender_id or author not in msg.view.member_set:
            self._note("Drop", msg_kind="PREPARE", detail="not from the sender")
            return
        if msg.view != self.cv:
            self._note("Drop", msg_kind="PREPARE", view=msg.view.short,
                       detail=f"view mismatch cv={self.cv.short}")
            return
        if self.allowed_ack == ALLOW_ANY or self.allowed_ack == msg.payload:
            self._set_allowed(msg.payload)
            if self.state_record.ack is None:
                self.state_record = StateRecord(
                    ack=PrepareEvidence(msg.payload, msg.view, signature),
                    conflicting=self.state_record.conflicting,
                    stored=self.state_record.stored,
                )
            digest = hashlib.sha256(msg.payload).digest()
            sig = self.signer.sign(ack_payload(digest, self.cv))
            self._send(author, Ack(msg.payload, sig, self.cv))
        else:
            self._note("Drop", msg_kind="PREPARE", detail="ack fence closed")

    def _handle_ack(self, author: str, msg: Ack) -> None:
        if self.pid != self.sender_id:
            self._note("Drop", msg_kind="ACK", detail="not the sender")
            return
        v = msg.view
        if author not in v.member_set or (author, v) in self.acks:
            return
        digest = hashlib.sha256(msg.payload).digest()
        if not self.verifier.verify(author, ack_payload(digest, v), msg.signature):
            self._note("Flag", msg_kind="ACK", detail="bad ack signature")
            return
        self.acks[(author, v)] = msg.payload
        self.ack_sigs[(author, v)] = msg.signature
        self.ack_counts.setdefault((v, msg.payload), set()).add(author)

    def _cert_scan(self) -> bool:
        if self.halted or self.cer is not None or self.pid != self.sender_id:
            return False
        for (v, payload), senders in self.ack_counts.items():
            if not self._is_valid_view(v) or len(senders) < v.quorum_size:
                continue
            digest = hashlib.sha256(payload).digest()
            sigs = {q: self.ack_sigs[(q, v)] for q in sorted(senders)}
            self.cer = build_certificate(digest, v, sigs)
            self.v_cer = v
            self._note("StateNote", view=v.short, payload=short_digest(payload),
                       detail="certificate", views={"v_cer": v})
            if self.installed.get(self.cv, False):
                self._disseminate(Commit(payload, self.cer, self.v_cer, self.cv))
            return True
        return False

    def _handle_commit(self, author: str, msg: Commit) -> None:
        if self.suspended:
            self._note("Drop", msg_kind="COMMIT", detail="processing suspended")
            return
        if msg.view != self.cv:
            self._note("Drop", msg_kind="COMMIT", view=msg.view.short,
                       detail=f"view mismatch cv={self.cv.short}")
            return
        if not self._is_valid_view(msg.v_cer):
            if len(self.pending_commits) < 256:
                self.pending_commits.append((author, msg))
            return
        self._commit_checked(author, msg)

    def _commit_checked(self, author: str, msg: Commit) -> None:
        if not verify_certificate(msg.cert, msg.v_cer, msg.payload, self.verifier):
            self._note("Drop", msg_kind="COMMIT", detail="invalid certificate")
            return
        self._note("StateNote", view=msg.v_cer.short,
                   payload=short_digest(msg.payload),
                   detail="commit-accepted", views={"v_cer": msg.v_cer})
        if not self.stored:
            self.stored = True
            self.stored_value = StoredEvidence(msg.payload, msg.cert, msg.v_cer, msg.view)
            if self.state_record.stored is None:
                self.state_record = StateRecord(
                    ack=self.state_record.ack,
                    conflicting=self.state_record.conflicting,
                    stored=self.stored_value,
                )
            self._disseminate(Commit(msg.payload, msg.cert, msg.v_cer, self.cv))
        self._send(author, Deliver(msg.payload, self.cv))

    def _pending_commit_scan(self) -> bool:
        if self.halted or not self.pending_commits:
            return False
        changed = False
        still = []
        for author, msg in self.pending_commits:
            if msg.view != self.cv:
                continue  # guard no longer holds; drop quietly
            if self._is_valid_view(msg.v_cer):
                self._commit_checked(author, msg)
                changed = True
            else:
                still.append((author, msg))
        self.pending_commits = still
        return changed

    def _handle_deliver(self, author: str, msg: Deliver) -> None:
        v = msg.view
        if author not in v.member_set or (author, v) in self.delivers:
            return
        self.delivers[(author, v)] = msg.payload
        self.deliver_counts.setdefault((v, msg.payload), set()).add(author)

    def _deliver_scan(self) -> bool:
        if self.halted or self.delivered:
            return False
        for (v, payload), senders in self.deliver_counts.items():
            if not self._is_valid_view(v) or len(senders) < v.quorum_size:
                continue
            self.delivered = True
            self.can_leave = True
            self._callback("Delivered", payload)
            return True
        return False

    # -- state transfer and view-change re-dissemination ------------------------

    def _state_transfer(self, records: list[StateRecord]) -> None:
        acked: dict[bytes, PrepareEvidence] = {}
        for rec in records:
            if rec.ack is not None:
                acked.setdefault(rec.ack.payload, rec.ack)
        conflict_pairs = [rec.conflicting for rec in records if rec.conflicting]
        if len(acked) == 1:
            payload, evidence = next(iter(acked.items()))
            if self.allowed_ack == ALLOW_ANY or self.allowed_ack == payload:
                self._set_allowed(payload)
                if self.state_record.ack is None:
                    self.state_record = StateRecord(
                        ack=evidence,
                        conflicting=self.state_record.conflicting,
                        stored=self.state_record.stored,
                    )
        elif len(acked) >= 2:
            first, second = list(acked.values())[:2]
            self._set_allowed(ALLOW_NONE)
            self.state_record = StateRecord(
                ack=None,
                conflicting=self.state_record.conflicting or (first, second),
                stored=self.state_record.stored,
            )
        elif conflict_pairs:
            self._set_allowed(ALLOW_NONE)
            self.state_record = StateRecord(
                ack=None,
                conflicting=self.state_record.conflicting or conflict_pairs[0],
                stored=self.state_record.stored,
            )
        if not self.stored:
            for rec in records:
                if rec.stored is None:
                    continue
                if self._is_valid_view(rec.stored.v_cer):
                    self._adopt_stored(rec.stored)
                    break
                if len(self.pending_store) < 256:
                    self.pending_store.append(rec.stored)

    def _adopt_stored(self, evidence: StoredEvidence) -> None:
        self.stored = True
        self.stored_value = evidence
        if self.state_record.stored is None:
            self.state_record = StateRecord(
                ack=self.state_record.ack,
                conflicting=self.state_record.conflicting,
                stored=evidence,
            )

    def _pending_store_scan(self) -> bool:
        if self.halted or not self.pending_store:
            return False
        changed = False
        still = []
        for evidence in self.pending_store:
            if self.stored:
                break
            if self._is_valid_view(evidence.v_cer):
                self._adopt_stored(evidence)
                if self.installed.get(self.cv, False) and not self.can_leave:
                    ev = self.stored_value
                    self._disseminate(Commit(ev.payload, ev.cert, ev.v_cer, self.cv))
                changed = True
            else:
                still.append(evidence)
        self.pending_store = [] if self.stored else still
        return changed

    def _new_view(self) -> None:
        """Re-disseminate whatever this node is responsible for in a fresh view."""
        if self.pid == self.sender_id:
            if self.broadcast_invoked and self.cer is None:
                self._disseminate(Prepare(self.bpayload, self.cv))
            elif self.cer is not None and not self.can_leave:
                self._disseminate(Commit(self.bpayload, self.cer, self.v_cer, self.cv))
        elif self.stored and not self.can_leave:
            ev = self.stored_value
            self._disseminate(Commit(ev.payload, ev.cert, ev.v_cer, self.cv))
