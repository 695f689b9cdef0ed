"""Broadcast machine: prepare/ack/commit/deliver plus certificate reuse.

The sender's certificate is its stored COMMIT, as for every holder, and
`_store` is the one path that stores a COMMIT and commits it in the view.

The acknowledgment fence is read from the state record (`_may_ack`), and
it only ever tightens: from "any message" while the record holds neither
an ack nor a conflicting pair, to the acked payload once it holds an ack,
and to "no message" once conflicting sender signatures surface.  That
lattice, propagated through state transfer, is what blocks an
equivocating sender across views.
"""

from __future__ import annotations

from dataclasses import replace

from .crypto import ack_payload, build_certificate, verify_certificate
from .membership import ContractError, Phase
from .messages import (
    Ack,
    Commit,
    Deliver,
    Prepare,
    Signed,
    StateRecord,
)
from .views import short_digest

# COMMITs parked at once per link sender, ready ones included, since every
# COMMIT waits here for `_pending_commit_scan`, later in its step.  A correct
# author has at most one parked at a time in the packaged scenarios, and a
# Byzantine sender at most seven; the bound keeps a member that sends COMMITs
# for made-up newer views from crowding out the COMMITs of the others.
PENDING_COMMITS_PER_AUTHOR = 16


class BroadcastMixin:
    def _may_ack(self, payload: bytes) -> bool:
        """The ack fence: open until the record holds an ack, then open only
        to its payload, and closed once it holds a conflicting pair."""
        rec = self.state_record
        return rec.conflicting is None and (rec.ack is None or rec.ack.msg.payload == payload)

    # -- operations ------------------------------------------------------------

    def _invoke_broadcast(self, payload: bytes) -> None:
        if self.pid != self.sender_id:
            raise ContractError("only the designated sender may broadcast")
        if self.phase is not Phase.MEMBER:
            raise ContractError("broadcast requires a participant")
        if self.bpayload is not None:
            raise ContractError("single broadcast instance per run")
        self.bpayload = payload
        self._wrote("bpayload")
        if self.cv == self.installed:
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
            self._note("Drop", msg_kind="PREPARE", view=msg.view, detail="view mismatch",
                       views={"cv": self.cv})
            return
        if self._may_ack(msg.payload):
            if self.state_record.ack is None:
                self.state_record = replace(self.state_record, ack=Signed(msg, signature))
                self._wrote("state_record")
            sig = self.signer.sign(ack_payload(msg.payload, self.cv))
            self._send(author, Ack(msg.payload, sig, self.cv))
        else:
            self._note("Drop", msg_kind="PREPARE", detail="ack fence closed")

    def _handle_ack(self, author: str, msg: Ack) -> None:
        if self.pid != self.sender_id:
            self._note("Drop", msg_kind="ACK", detail="not the sender")
            return
        v = msg.view
        if author not in v.member_set or self.acks.voted(author, v):
            return
        if not self.verifier.verify(author, ack_payload(msg.payload, v), msg.signature):
            self._note("Flag", msg_kind="ACK", detail="bad ack signature")
            return
        self.acks.add(v, msg.payload, author, msg.signature)
        self._wrote("acks")

    def _cert_scan(self) -> None:
        if self.state_record.stored is not None or self.pid != self.sender_id:
            return
        for (v, payload), sigs in self.acks.quorums():
            if self._is_valid_view(v):
                self._note("StateNote", view=v, payload=short_digest(payload),
                           detail="certificate")
                self._store(Commit(payload, build_certificate(v, sigs), self.cv))
                return

    def _commit_ready(self, msg: Commit) -> bool:
        """The COMMIT can be checked now: it is for this node's installed,
        unsuspended view, and its certificate's view is valid."""
        return msg.view == self.cv and not self.suspended and self._is_valid_view(msg.cert.view)

    def _commit_may_wait(self, msg: Commit) -> bool:
        """The COMMIT may become ready: it is for this node's view or a newer
        one, and the node has not left.  A peer that installs a view first
        commits in it while this node is still suspended, and re-sends only
        on its next install, so such a COMMIT is parked, not dropped."""
        return self.phase < Phase.LEAVER_LOOP and (
            msg.view == self.cv or self.cv < msg.view)

    def _handle_commit(self, author: str, msg: Commit) -> None:
        if not self._commit_may_wait(msg):
            left = self.phase >= Phase.LEAVER_LOOP
            self._note("Drop", msg_kind="COMMIT", view=msg.view,
                       detail="left the view" if left else "view mismatch",
                       views=None if left else {"cv": self.cv})
        elif sum(a == author for a, _ in self.pending_commits) < PENDING_COMMITS_PER_AUTHOR:
            self.pending_commits.append((author, msg))
            self._wrote("pending_commits")

    def _commit_checked(self, author: str, msg: Commit) -> None:
        if not verify_certificate(msg.cert, msg.payload, self.verifier):
            self._note("Drop", msg_kind="COMMIT", detail="invalid certificate")
            return
        v_cer = msg.cert.view
        self._note("StateNote", view=v_cer, payload=short_digest(msg.payload),
                   detail="commit-accepted")
        if self.state_record.stored is None:
            self._store(msg)
        self._send(author, Deliver(msg.payload, self.cv))

    def _pending_commit_scan(self) -> None:
        if not self.pending_commits:
            return
        still = []
        for author, msg in self.pending_commits:
            if self._commit_ready(msg):
                self._commit_checked(author, msg)
            elif self._commit_may_wait(msg):
                still.append((author, msg))
            # else: overtaken by a newer view, or the node left; drop quietly
        self.pending_commits = still

    def _handle_deliver(self, author: str, msg: Deliver) -> None:
        v = msg.view
        if not self.delivers.voted(author, v) and self.delivers.add(v, msg.payload, author):
            self._wrote("delivers")

    def _deliver_scan(self) -> None:
        if self.delivered:
            return
        for (v, payload), _ in self.delivers.quorums():
            if self._is_valid_view(v):
                self.delivered = True
                self._wrote("delivered")
                self._callback("Delivered", payload)
                return

    # -- state transfer and view-change re-dissemination ------------------------

    def _state_transfer(self, records: list[StateRecord]) -> None:
        acked: dict[bytes, Signed[Prepare]] = {}
        for rec in records:
            if rec.ack is not None:
                acked.setdefault(rec.ack.msg.payload, rec.ack)
        conflict_pairs = [rec.conflicting for rec in records if rec.conflicting]
        if len(acked) == 1:
            payload, evidence = next(iter(acked.items()))
            if self._may_ack(payload) and self.state_record.ack is None:
                self.state_record = replace(self.state_record, ack=evidence)
        elif len(acked) >= 2:
            first, second = list(acked.values())[:2]
            self.state_record = replace(
                self.state_record, ack=None,
                conflicting=self.state_record.conflicting or (first, second))
        elif conflict_pairs:
            self.state_record = replace(
                self.state_record, ack=None,
                conflicting=self.state_record.conflicting or conflict_pairs[0])
        self._wrote("state_record")
        if self.state_record.stored is None:
            for rec in records:
                if rec.stored is None:
                    continue
                if self._is_valid_view(rec.stored.cert.view):
                    self._adopt_stored(rec.stored)
                    break
                if len(self.pending_store) < 256:
                    self.pending_store.append(rec.stored)
                    self._wrote("pending_store")

    def _adopt_stored(self, msg: Commit) -> None:
        """Store the first accepted COMMIT; callers check none is stored."""
        self.state_record = replace(self.state_record, stored=msg)
        self._wrote("state_record")

    def _store(self, msg: Commit) -> None:
        """Store a certified COMMIT and commit it in this node's view.

        Both guards hold at a COMMIT accepted within the f bound: it is
        checked only in an unsuspended `cv`, which is therefore installed,
        and correct members DELIVER only to a node that sent them a COMMIT,
        which it does only after storing one.  One stored between views is
        committed by `_new_view`, as is the state transfer's `_adopt_stored`.
        """
        self._adopt_stored(msg)
        if self.cv == self.installed and not self.delivered:
            self._disseminate(Commit(msg.payload, msg.cert, self.cv))

    def _pending_store_scan(self) -> None:
        for evidence in self.pending_store:
            if self.state_record.stored is None and self._is_valid_view(evidence.cert.view):
                self._store(evidence)
        if self.state_record.stored is not None:
            self.pending_store = []

    def _new_view(self) -> None:
        """Re-disseminate whatever this node is responsible for in a fresh view."""
        ev = self.state_record.stored
        if ev is not None:
            if not self.delivered:
                self._disseminate(Commit(ev.payload, ev.cert, self.cv))
        elif self.pid == self.sender_id and self.bpayload is not None:
            self._disseminate(Prepare(self.bpayload, self.cv))
