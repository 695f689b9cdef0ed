"""Reconfiguration state machine: join/leave, propose/converge, view install.

All handlers are pure against the owning node's state: guards that the
pseudo-blocking pseudocode expresses as waits (state-update quorums,
proposal echoes arriving before the install that unlocks them) live in
explicit buffers that the engine re-polls after every input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crypto import verify_certificate
from .messages import (
    Commit,
    Converged,
    Install,
    Propose,
    RecConfirm,
    Reconfig,
    ReconfigProof,
    HistoryRequest,
    StateRecord,
    StateUpdate,
    prepare_signed_bytes,
)
from .views import (
    Change,
    View,
    comparable,
    is_sequence,
    least_recent,
    minus,
    most_recent,
    plus,
    seq_key,
)


class ContractError(RuntimeError):
    """An operation was invoked outside its allowed lifecycle."""


@dataclass
class PendingInstall:
    omega: View
    seq: frozenset[View]
    view: View
    key: bytes


@dataclass
class BufferedPropose:
    seq: frozenset[View]
    view: View


_EMPTY_SEQ_KEY = seq_key(frozenset())


class MembershipMixin:
    # -- operations ----------------------------------------------------------

    def _invoke_join(self) -> None:
        if self.joined or self.join_invoked:
            raise ContractError("join may be invoked at most once")
        self.join_invoked = True
        self._flood(HistoryRequest())

    def _invoke_leave(self) -> None:
        if not self.joined:
            raise ContractError("leave requires a participant")
        if self.leave_invoked:
            raise ContractError("leave already invoked")
        self.leave_invoked = True
        self.rec_confirms.clear()

    def _send_reconfig(self, change: Change, target: View) -> None:
        self._send_all(target.members, Reconfig(change, target))

    def _join_kick(self) -> bool:
        if self.halted or self.joined or not self.join_invoked:
            return False
        if self.join_confirmed or not self.got_history:
            return False
        target = self._best_view()
        if self.last_reconfig_target == target:
            return False
        self.last_reconfig_target = target
        self._send_reconfig(plus(self.pid), target)
        return True

    def _leave_kick(self) -> bool:
        """Emit the leave request once the totality gate allows it."""
        if self.halted or not self.leave_invoked or self.leave_reconfig_sent:
            return False
        gate = self.delivered or (self.pid == self.sender_id and self.broadcast_invoked)
        if gate and not self.can_leave:
            return False
        self.leave_reconfig_sent = True
        self._send_reconfig(minus(self.pid), self.cv)
        return True

    def _leave_resend_on_install(self) -> None:
        if (self.leave_reconfig_sent and not self.leave_confirmed
                and not self.halted and not self.leaver_loop):
            self._send_reconfig(minus(self.pid), self.cv)

    # -- reconfig / rec-confirm ----------------------------------------------

    def _handle_reconfig(self, author: str, msg: Reconfig, signature: bytes) -> None:
        if self.suspended:
            self._note("Drop", msg_kind="RECONFIG", detail="processing suspended")
            return
        if author != msg.change.process:
            self._note("Flag", msg_kind="RECONFIG", detail="change not signed by subject")
            return
        change, v = msg.change, msg.view
        if v != self.cv:
            self._note("Drop", msg_kind="RECONFIG", detail="stale view")
            return
        if change in v.changes:
            self._note("Drop", msg_kind="RECONFIG", detail="change already applied")
            return
        if change.sign == "-" and plus(change.process) not in v.changes:
            self._note("Drop", msg_kind="RECONFIG", detail="leave without prior join")
            return
        proof = ReconfigProof(change, v, signature)
        self.pool.setdefault(change, proof)
        if change not in self.recv:
            self.recv[change] = proof
        self._send(author, RecConfirm(self.cv))

    def _handle_rec_confirm(self, author: str, msg: RecConfirm) -> None:
        if author in msg.view.member_set:
            self.rec_confirms.setdefault(msg.view, set()).add(author)

    def _confirm_scan(self) -> bool:
        changed = False
        for v, senders in self.rec_confirms.items():
            if len(senders) >= v.quorum_size:
                if self.join_invoked and not self.joined and not self.join_confirmed:
                    self.join_confirmed = True
                    changed = True
                if self.leave_reconfig_sent and not self.leave_confirmed:
                    self.leave_confirmed = True
                    changed = True
        return changed

    # -- propose -------------------------------------------------------------

    def _maybe_propose(self) -> bool:
        if self.halted or not self.recv or not self.installed.get(self.cv, False):
            return False
        if self.seqs.get(self.cv):
            return False
        effective = {c for c in self.recv if c not in self.cv.changes}
        if not effective:
            return False
        proposal = View(self.cv.changes | effective)
        self._set_seq(self.cv, frozenset({proposal}))
        self._emit_propose(self.cv)
        return True

    def _propose_proofs(self, seq: frozenset[View], v: View) -> tuple[ReconfigProof, ...]:
        needed: set[Change] = set()
        for w in seq:
            needed |= w.changes - v.changes
        missing = [c for c in needed if c not in self.pool]
        if missing:
            raise AssertionError(f"proof pool missing changes: {sorted(c.token for c in missing)}")
        return tuple(self.pool[c] for c in sorted(needed, key=lambda c: (c.process, c.sign)))

    def _set_seq(self, v: View, seq: frozenset[View]) -> None:
        """The one way seqs[v] changes: its key is computed here, once."""
        self.seqs[v] = seq
        self.seq_keys[v] = seq_key(seq)

    def _emit_propose(self, v: View) -> None:
        seq = self.seqs[v]
        self._send_all(v.members, Propose(seq, v, self._propose_proofs(seq, v)))

    def _handle_propose(self, author: str, msg: Propose) -> None:
        v = msg.view
        if author not in v.member_set:
            self._note("Drop", msg_kind="PROPOSE", detail="sender not a member")
            return
        if self.pid not in v.member_set:
            self._note("Drop", msg_kind="PROPOSE", detail="not a member of the view")
            return
        if not is_sequence(msg.seq) or not msg.seq:
            self._note("Flag", msg_kind="PROPOSE", detail="proposal is not a sequence")
            return
        if not all(v.changes < w.changes for w in msg.seq):
            self._note("Flag", msg_kind="PROPOSE", detail="proposal not above its view")
            return
        needed: set[Change] = set()
        for w in msg.seq:
            needed |= w.changes - v.changes
        offered = {p.change: p for p in msg.proofs}
        for change in sorted(needed, key=lambda c: (c.process, c.sign)):
            if change in self.pool:
                continue
            proof = offered.get(change)
            if proof is None or not proof.verify(self.verifier):
                self._note("Drop", msg_kind="PROPOSE",
                           detail=f"missing reconfig proof for {change.token}")
                return
            self.pool[change] = proof
        k = seq_key(msg.seq)
        self.seq_store[k] = msg.seq
        self.propose_votes.setdefault(v, {}).setdefault(author, set()).add(k)
        self.propose_buffer.append(BufferedPropose(msg.seq, v))

    def _accepts(self, seq: frozenset[View], v: View) -> bool:
        entries = self.formats.get(v)
        if not entries:
            return False
        return _EMPTY_SEQ_KEY in entries or seq_key(seq) in entries

    def _known_views(self, v: View) -> set[View]:
        known = set(self.seqs.get(v, frozenset()))
        known.add(self.cv)
        known.update(w for w, flag in self.installed.items() if flag)
        return known

    def _propose_buffer_scan(self) -> bool:
        if self.halted or not self.propose_buffer:
            return False
        changed = False
        still: list[BufferedPropose] = []
        for item in self.propose_buffer:
            seq, v = item.seq, item.view
            if not self._accepts(seq, v):
                still.append(item)  # may unlock once an install fills FORMAT
                continue
            if not all(self.cv.changes < w.changes for w in seq):
                continue
            if not (seq - self._known_views(v)):
                continue  # nothing new in it; drop to stop echo storms
            local = self.seqs.get(v, frozenset())
            if any(not comparable(a, b) for a in seq for b in local):
                merged = most_recent(seq).union(most_recent(local))
                self._set_seq(v, frozenset(self.lcseqs.get(v, frozenset()) | {merged}))
            else:
                self._set_seq(v, local | seq)
            if not is_sequence(self.seqs[v]):
                raise AssertionError("proposal merge broke sequence invariant")
            self._emit_propose(v)
            changed = True
        self.propose_buffer = still
        return changed

    def _propose_quorum_scan(self) -> bool:
        if self.halted:
            return False
        changed = False
        for v, votes in self.propose_votes.items():
            seq = self.seqs.get(v)
            if not seq:
                continue
            k = self.seq_keys[v]
            if (v, k) in self.converged_sent:
                continue
            backers = [q for q in votes if q in v.member_set and k in votes[q]]
            if len(backers) >= v.quorum_size:
                self.lcseqs[v] = seq
                self.converged_sent.add((v, k))
                self._send_all(v.members, Converged(seq, v))
                changed = True
        return changed

    # -- converged / install emission ------------------------------------------

    def _handle_converged(self, author: str, msg: Converged, signature: bytes) -> None:
        v = msg.view
        if author not in v.member_set:
            self._note("Drop", msg_kind="CONVERGED", detail="sender not a member")
            return
        k = seq_key(msg.seq)
        self.seq_store[k] = msg.seq
        self.converged_votes.setdefault((v, k), {}).setdefault(author, signature)

    def _converged_quorum_scan(self) -> bool:
        if self.halted:
            return False
        changed = False
        for (v, k), votes in self.converged_votes.items():
            if (v, k) in self.install_sent:
                continue
            if self.pid not in v.member_set:
                continue
            backers = sorted(q for q in votes if q in v.member_set)
            if len(backers) < v.quorum_size:
                continue
            seq = self.seq_store[k]
            if not seq or not is_sequence(seq) or not all(v.changes < w.changes for w in seq):
                self._note("Flag", detail="converged quorum on malformed sequence")
                self.install_sent.add((v, k))
                continue
            needed: set[Change] = set()
            for w in seq:
                needed |= w.changes - v.changes
            if any(c not in self.pool for c in needed):
                continue  # wait for the reconfig proofs to arrive
            omega = least_recent(seq)
            psi = tuple(sorted(v.member_set | omega.member_set))
            conv_sigs = tuple((q, votes[q]) for q in backers[:v.quorum_size])
            proofs = tuple(self.pool[c]
                           for c in sorted(needed, key=lambda c: (c.process, c.sign)))
            install = Install(psi, omega, seq, v, conv_sigs, proofs)
            self.install_sent.add((v, k))
            self._note("StateNote", detail="converged-on", views={"v": v, "seq": seq})
            self._r_multicast(install)
            changed = True
        return changed

    # -- install handling --------------------------------------------------------

    def _state_of(self, v: View) -> StateRecord:
        """The local broadcast state restricted to views inside v."""
        rec = self.state_record
        ack = rec.ack if rec.ack and rec.ack.view.changes <= v.changes else None
        conflicting = None
        if rec.conflicting:
            a, b = rec.conflicting
            if a.view.changes <= v.changes and b.view.changes <= v.changes:
                conflicting = rec.conflicting
        stored = None
        if rec.stored and rec.stored.assoc_view.changes <= v.changes:
            stored = rec.stored
        return StateRecord(ack, conflicting, stored)

    def _handle_install(self, msg: Install) -> None:
        omega, seq, v = msg.omega, msg.seq, msg.view
        self._note("StateNote", view=omega.short, detail="install-accepted",
                   views={"omega": omega, "v": v, "seq": seq})
        self._absorb_install(msg)
        for proof in msg.proofs:
            if proof.change not in self.pool and proof.verify(self.verifier):
                self.pool[proof.change] = proof
        self.formats.setdefault(omega, {})[seq_key(seq - {omega})] = seq - {omega}
        if self.pid in v.member_set:
            if self.cv.changes < omega.changes and not self.suspended:
                self.suspended = True
                self._note("StateNote", detail="suspend")
            self._r_multicast(StateUpdate(
                psi=tuple(sorted(v.member_set | omega.member_set)),
                view=v,
                omega=omega,
                record=self._state_of(v),
                recv=tuple(self.recv[c]
                           for c in sorted(self.recv, key=lambda c: (c.process, c.sign))),
            ))
        if self.cv.changes < omega.changes:
            key = seq_key(seq)
            if not any(p.omega == omega and p.view == v and p.key == key
                       for p in self.pending_installs):
                self.pending_installs.append(PendingInstall(omega, seq, v, key))

    def _record_state_update(self, author: str, msg: StateUpdate) -> None:
        per_view = self.state_updates.setdefault(msg.view, {})
        if author in per_view:
            return
        if not self._verify_state_update(msg):
            self._note("Flag", msg_kind="STATE-UPDATE", detail="invalid embedded evidence")
            return
        for proof in msg.recv:
            self.pool.setdefault(proof.change, proof)
        per_view[author] = msg

    def _verify_state_update(self, msg: StateUpdate) -> bool:
        v = msg.view
        rec = msg.record
        if rec.ack:
            ev = rec.ack
            if not ev.view.changes <= v.changes:
                return False
            if not self.verifier.verify(self.sender_id,
                                        prepare_signed_bytes(ev.payload, ev.view, self.sender_id),
                                        ev.signature):
                return False
        if rec.conflicting:
            a, b = rec.conflicting
            if a.payload == b.payload:
                return False
            for ev in (a, b):
                if not ev.view.changes <= v.changes:
                    return False
                if not self.verifier.verify(self.sender_id,
                                            prepare_signed_bytes(ev.payload, ev.view, self.sender_id),
                                            ev.signature):
                    return False
        if rec.stored:
            ev = rec.stored
            if not ev.assoc_view.changes <= v.changes:
                return False
            if not ev.v_cer.changes <= ev.assoc_view.changes:
                return False
            if not verify_certificate(ev.cert, ev.v_cer, ev.payload, self.verifier):
                return False
        return all(p.verify(self.verifier) for p in msg.recv)

    def _pending_install_scan(self) -> bool:
        if self.halted or not self.pending_installs:
            return False
        changed = False
        still: list[PendingInstall] = []
        for pending in self.pending_installs:
            if not (self.cv.changes < pending.omega.changes):
                continue  # overtaken by a newer install
            updates = self.state_updates.get(pending.view, {})
            senders = [q for q in updates if q in pending.view.member_set]
            if len(senders) < pending.view.quorum_size:
                still.append(pending)
                continue
            self._complete_install(pending, [updates[q] for q in senders])
            changed = True
            if self.halted:
                break
        self.pending_installs = still if not self.halted else []
        return changed

    def _complete_install(self, pending: PendingInstall, updates: list[StateUpdate]) -> None:
        omega, seq, v = pending.omega, pending.seq, pending.view
        requests: dict[Change, ReconfigProof] = {}
        for upd in updates:
            for proof in upd.recv:
                requests.setdefault(proof.change, proof)
        for change in sorted(requests, key=lambda c: (c.process, c.sign)):
            if change not in omega.changes and change not in self.recv:
                self.recv[change] = requests[change]
        self.installed[omega] = False
        self._state_transfer([upd.record for upd in updates])
        if self.pid in omega.member_set:
            self.cv = omega
            self._note("StateNote", view=omega.short, detail="cv", views={"cv": omega})
            if self.pid not in v.member_set and not self.joined:
                self.joined = True
                self._callback("JoinComplete", None)
            newer = frozenset(w for w in seq if self.cv.changes < w.changes)
            if newer:
                if not self.seqs.get(self.cv) and all(self.cv.changes < w.changes for w in newer):
                    self._set_seq(self.cv, newer)
                    self._emit_propose(self.cv)
            else:
                self.installed[self.cv] = True
                if self.suspended:
                    self.suspended = False
                    self._note("StateNote", detail="resume")
                self._note("Install", view=self.cv.short, views={"cv": self.cv})
                self._new_view()
                self._leave_resend_on_install()
        else:
            # Leaving: keep relaying the stored message until a deliver
            # quorum confirms totality, then shut down.
            if self.stored and not self.can_leave:
                self.leaver_loop = True
                self._note("StateNote", detail="leaver-loop")
                self._flood(HistoryRequest())
                self._leaver_commit()
            else:
                self._finish_leave()

    def _finish_leave(self) -> None:
        self.leaver_loop = False
        self.halted = True
        self._callback("LeaveComplete", None)
        self._halt()

    def _leaver_commit(self) -> None:
        ev = self.stored_value
        best = self._best_view()
        if len(best.changes) > len(self.cv.changes):
            self.cv = best
        self._send_all(self.cv.members, Commit(ev.payload, ev.cert, ev.v_cer, self.cv))

    def _leaver_loop_kick(self) -> bool:
        if not self.leaver_loop or self.halted:
            return False
        if self.can_leave:
            self._finish_leave()
            return True
        if len(self._best_view().changes) > len(self.cv.changes):
            self._leaver_commit()
            return True
        return False
