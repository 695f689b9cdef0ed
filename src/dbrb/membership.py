"""Reconfiguration state machine: join/leave, propose/converge, view install.

All handlers are pure against the owning node's state: guards that the
pseudo-blocking pseudocode expresses as waits (state-update quorums,
proposal echoes arriving before the install that unlocks them) live in
explicit buffers, each re-checked by a scan.  Every write to state a scan
reads names the field it wrote (`_wrote`), which wakes the scans that the
engine's `SCANS` table declares as its readers.
"""

from __future__ import annotations

from enum import IntEnum

from .crypto import verify_certificate
from .messages import (
    Commit,
    Converged,
    Install,
    Prepare,
    Propose,
    RecConfirm,
    Reconfig,
    HistoryRequest,
    Signed,
    StateRecord,
    StateUpdate,
    rm_targets,
)
from .views import (
    MINUS,
    Change,
    Tally,
    View,
    change_key,
    comparable,
    is_sequence,
    minus,
    most_recent,
    plus,
)


class ContractError(RuntimeError):
    """An operation was invoked outside its allowed lifecycle."""


class Phase(IntEnum):
    """A process's lifecycle.  Join and leave are one-shot, and a process
    leaves a view only through the leave request it sends in LEAVE_SENT, so
    the phase only moves forward, though it may skip some."""

    DORMANT = 0          # join not yet invoked
    JOINING = 1          # join invoked; sends its join request
    JOIN_CONFIRMED = 2   # a quorum confirmed the join request
    MEMBER = 3           # joined (or an initial member)
    LEAVING = 4          # leave invoked; the request waits for the totality gate
    LEAVE_SENT = 5       # leave request sent; re-sent on each install
    LEAVE_CONFIRMED = 6  # a quorum confirmed the leave request
    LEAVER_LOOP = 7      # out of the view, relaying its stored message
    HALTED = 8           # leave complete; takes no more events


def added_changes(seq: frozenset[View], v: View) -> list[Change]:
    """The changes the views of `seq` add to `v`, in (process, sign) order."""
    needed: set[Change] = set()
    for w in seq:
        needed |= w - v
    return sorted(needed, key=change_key)


class MembershipMixin:
    # -- operations ----------------------------------------------------------

    def _set_phase(self, phase: Phase) -> None:
        """The one way `phase` changes, so every scan that reads it re-runs."""
        self.phase = phase
        self._wrote("phase")

    def _invoke_join(self) -> None:
        if self.phase is not Phase.DORMANT:
            raise ContractError("join may be invoked at most once")
        self._set_phase(Phase.JOINING)
        self._flood(HistoryRequest())

    def _invoke_leave(self) -> None:
        if self.phase < Phase.MEMBER:
            raise ContractError("leave requires a participant")
        if self.phase > Phase.MEMBER:
            raise ContractError("leave already invoked")
        self._set_phase(Phase.LEAVING)
        self.rec_confirms = Tally()
        self._wrote("rec_confirms")

    def _send_reconfig(self, change: Change, target: View) -> None:
        self._send_all(target.members, Reconfig(change, target))

    def _join_kick(self) -> None:
        if self.phase is not Phase.JOINING or not self.got_history:
            return
        target = self._best_view()
        if self.last_reconfig_target == target:
            return
        self.last_reconfig_target = target
        self._send_reconfig(plus(self.pid), target)

    def _leave_kick(self) -> None:
        """Emit the leave request once the totality gate allows it: a sender
        that has broadcast leaves only after it delivered."""
        if self.phase is not Phase.LEAVING:
            return
        if self.pid == self.sender_id and self.bpayload is not None and not self.delivered:
            return
        self._set_phase(Phase.LEAVE_SENT)
        self._send_reconfig(minus(self.pid), self.cv)

    def _leave_resend_on_install(self) -> None:
        if self.phase is Phase.LEAVE_SENT:
            self._send_reconfig(minus(self.pid), self.cv)

    # -- reconfig / rec-confirm ----------------------------------------------

    def _handle_reconfig(self, author: str, msg: Reconfig, signature: bytes) -> None:
        if self.suspended:
            self._note("Drop", msg_kind="RECONFIG", detail="processing suspended")
            return
        if author != msg.change[1:]:
            self._note("Flag", msg_kind="RECONFIG", detail="change not signed by subject")
            return
        change, v = msg.change, msg.view
        if v != self.cv:
            self._note("Drop", msg_kind="RECONFIG", detail="stale view")
            return
        if change in v:
            self._note("Drop", msg_kind="RECONFIG", detail="change already applied")
            return
        if change[0] == MINUS and plus(change[1:]) not in v:
            self._note("Drop", msg_kind="RECONFIG", detail="leave without prior join")
            return
        proof = Signed(msg, signature)
        self.pool.setdefault(change, proof)
        if change not in self.recv:
            self.recv[change] = proof
        self._wrote("pool", "recv")
        self._send(author, RecConfirm(self.cv))

    def _handle_rec_confirm(self, author: str, msg: RecConfirm) -> None:
        if self.rec_confirms.add(msg.view, None, author):
            self._wrote("rec_confirms")

    def _confirm_scan(self) -> None:
        if self.phase in (Phase.JOINING, Phase.LEAVE_SENT) and any(self.rec_confirms.quorums()):
            self._set_phase(Phase(self.phase + 1))  # JOIN_CONFIRMED or LEAVE_CONFIRMED

    # -- propose -------------------------------------------------------------

    def _maybe_propose(self) -> None:
        if not self.recv or self.cv != self.installed:
            return
        if self.seqs.get(self.cv):
            return
        effective = {c for c in self.recv if c not in self.cv}
        if not effective:
            return
        proposal = View(self.cv | effective)
        self._set_seq(self.cv, frozenset({proposal}))
        self._emit_propose(self.cv)

    def _propose_proofs(self, seq: frozenset[View], v: View) -> tuple[Signed[Reconfig], ...]:
        needed = added_changes(seq, v)
        missing = [c for c in needed if c not in self.pool]
        if missing:
            raise AssertionError(f"proof pool missing changes: {sorted(missing)}")
        return tuple(self.pool[c] for c in needed)

    def _set_seq(self, v: View, seq: frozenset[View]) -> None:
        """The one way seqs[v] changes, so every scan that reads it re-runs."""
        self.seqs[v] = seq
        self._wrote("seqs")

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
        if not all(v < w for w in msg.seq):
            self._note("Flag", msg_kind="PROPOSE", detail="proposal not above its view")
            return
        offered = {p.msg.change: p for p in msg.proofs}
        for change in added_changes(msg.seq, v):
            if change in self.pool:
                continue
            proof = offered.get(change)
            if proof is None or not proof.verify(self.verifier, change[1:]):
                self._note("Drop", msg_kind="PROPOSE",
                           detail=f"missing reconfig proof for {change}")
                return
            self.pool[change] = proof
            self._wrote("pool")
        self.propose_votes.add(v, msg.seq, author)
        self.propose_buffer.append(msg)
        self._wrote("propose_votes", "propose_buffer")

    def _accepts(self, seq: frozenset[View], v: View) -> bool:
        entries = self.formats.get(v)
        if not entries:
            return False
        return frozenset() in entries or seq in entries

    def _propose_buffer_scan(self) -> None:
        if not self.propose_buffer:
            return
        still: list[Propose] = []
        for item in self.propose_buffer:
            seq, v = item.seq, item.view
            if not all(self.cv < w for w in seq):
                continue  # never acts: within the f bound cv only grows by inclusion
            if not self._accepts(seq, v):
                still.append(item)  # may unlock once an install fills FORMAT
                continue
            local = self.seqs.get(v, frozenset())
            if seq <= local:
                continue  # nothing new in it; drop to stop echo storms
            if any(not comparable(a, b) for a in seq for b in local):
                merged = View(most_recent(seq) | most_recent(local))
                self._set_seq(v, frozenset(self.lcseqs.get(v, frozenset()) | {merged}))
            else:
                self._set_seq(v, local | seq)
            if not is_sequence(self.seqs[v]):
                raise AssertionError("proposal merge broke sequence invariant")
            self._emit_propose(v)
        self.propose_buffer = still

    def _propose_quorum_scan(self) -> None:
        # CONVERGED goes once per (v, seq).  seqs[v] always contains lcseqs[v]
        # (a union grows it, the conflict merge keeps lcseqs[v], the first
        # proposals set it only while unset), so every earlier converged
        # sequence is a strict subset of seqs[v]: only lcseqs[v] can equal it.
        for v in dict.fromkeys(w for w, _ in self.propose_votes.votes):  # in first-vote order
            seq = self.seqs.get(v)
            if seq and seq != self.lcseqs.get(v) and self.propose_votes.quorum(v, seq):
                self.lcseqs[v] = seq
                self._wrote("lcseqs")
                self._send_all(v.members, Converged(seq, v))

    # -- converged / install emission ------------------------------------------

    def _handle_converged(self, author: str, msg: Converged, signature: bytes) -> None:
        v = msg.view
        if author not in v.member_set:
            self._note("Drop", msg_kind="CONVERGED", detail="sender not a member")
            return
        self.converged_votes.add(v, msg.seq, author, signature)
        self._wrote("converged_votes")

    def _converged_quorum_scan(self) -> None:
        for (v, seq), votes in self.converged_votes.quorums():
            if (v, seq) in self.install_sent or self.pid not in v.member_set:
                continue
            if not seq or not is_sequence(seq) or not all(v < w for w in seq):
                self._note("Flag", detail="converged quorum on malformed sequence")
                self.install_sent.add((v, seq))
                continue
            needed = added_changes(seq, v)
            if any(c not in self.pool for c in needed):
                continue  # wait for the reconfig proofs to arrive
            conv_sigs = tuple((q, votes[q]) for q in sorted(votes)[:v.quorum_size])
            install = Install(seq, v, conv_sigs, tuple(self.pool[c] for c in needed))
            self.install_sent.add((v, seq))
            self._note("StateNote", detail="converged-on", views={"v": v, "seq": seq})
            self._send_all(rm_targets(install), install)

    # -- install handling --------------------------------------------------------

    def _state_of(self, v: View) -> StateRecord:
        """The local broadcast state restricted to views inside v."""
        rec = self.state_record
        ack = rec.ack if rec.ack and rec.ack.msg.view <= v else None
        conflicting = None
        if rec.conflicting:
            a, b = rec.conflicting
            if a.msg.view <= v and b.msg.view <= v:
                conflicting = rec.conflicting
        stored = None
        if rec.stored and rec.stored.view <= v:
            stored = rec.stored
        return StateRecord(ack, conflicting, stored)

    def _handle_install(self, msg: Install) -> None:
        omega, seq, v = msg.omega, msg.seq, msg.view
        self._note("StateNote", view=omega, detail="install-accepted",
                   views={"v": v, "seq": seq})
        self._absorb_install(msg)
        for proof in msg.proofs:  # verified with the install proof
            self.pool.setdefault(proof.msg.change, proof)
        self.formats.setdefault(omega, set()).add(seq - {omega})
        self._wrote("pool", "formats")
        if self.pid in v.member_set:
            if self.cv < omega and not self.suspended:
                self.suspended = True
                self._wrote("suspended")
                self._note("StateNote", detail="suspend")
            update = StateUpdate(
                view=v,
                omega=omega,
                record=self._state_of(v),
                recv=tuple(self.recv[c] for c in sorted(self.recv, key=change_key)
                           if c not in omega),  # see `rmulticast`
            )
            self._send_all(rm_targets(update), update)
        # one pending install per (view, seq): variants differ only in signatures
        if self.cv < omega and all(
                (p.view, p.seq) != (v, seq) for p in self.pending_installs):
            self.pending_installs.append(msg)
            self._wrote("pending_installs")

    def _handle_state_update(self, author: str, msg: StateUpdate) -> None:
        """Record the first update each member of the replaced view sends.

        An update is link-only: its author sends it straight to every
        target, no one relays it (see `rmulticast`), and it counts for the
        process that sent it over the link.
        """
        if self.pid not in rm_targets(msg):
            self._note("Drop", msg_kind="STATE-UPDATE", detail="not in target set")
            return
        if author not in msg.view.member_set:
            self._note("Drop", msg_kind="STATE-UPDATE", detail="sender not in replaced view")
            return
        if self.state_updates.voted(author, msg.view):
            return
        if not self._verify_state_update(msg):
            self._note("Flag", msg_kind="STATE-UPDATE", detail="invalid embedded evidence")
            return
        for proof in msg.recv:
            if proof.msg.change not in self.pool:
                self.pool[proof.msg.change] = proof
                self._wrote("pool")
        self.state_updates.add(msg.view, None, author, msg)
        self._wrote("state_updates")

    def _sender_prepared(self, ev: Signed[Prepare], v: View) -> bool:
        """ev is a prepare the sender signed in a view no later than v."""
        return ev.msg.view <= v and ev.verify(self.verifier, self.sender_id)

    def _verify_state_update(self, msg: StateUpdate) -> bool:
        v = msg.view
        rec = msg.record
        if rec.ack and not self._sender_prepared(rec.ack, v):
            return False
        if rec.conflicting:
            a, b = rec.conflicting
            if a.msg.payload == b.msg.payload:
                return False
            if not (self._sender_prepared(a, v) and self._sender_prepared(b, v)):
                return False
        if rec.stored:
            stored = rec.stored
            if not stored.view <= v:
                return False
            if not stored.cert.view <= stored.view:
                return False
            if not verify_certificate(stored.cert, stored.payload, self.verifier):
                return False
        return all(p.verify(self.verifier, p.msg.change[1:]) for p in msg.recv)

    def _pending_install_scan(self) -> None:
        if not self.pending_installs:
            return
        still: list[Install] = []
        for pending in self.pending_installs:
            if not (self.cv < pending.omega):
                continue  # overtaken by a newer install
            updates = self.state_updates.quorum(pending.view, None)
            if updates is None:
                still.append(pending)
                continue
            self._complete_install(pending, list(updates.values()))
            if self.phase is Phase.HALTED:
                self.pending_installs = []
                return
        self.pending_installs = still

    def _complete_install(self, pending: Install, updates: list[StateUpdate]) -> None:
        omega, seq, v = pending.omega, pending.seq, pending.view
        requests: dict[Change, Signed[Reconfig]] = {}
        for upd in updates:
            for proof in upd.recv:
                requests.setdefault(proof.msg.change, proof)
        for change in sorted(requests, key=change_key):
            if change not in omega and change not in self.recv:
                self.recv[change] = requests[change]
                self._wrote("recv")
        self._state_transfer([upd.record for upd in updates])
        if self.pid in omega.member_set:
            self.cv = omega
            self._wrote("cv")
            self._note("StateNote", view=omega, detail="cv")
            if self.phase < Phase.MEMBER:
                self._set_phase(Phase.MEMBER)
                self._callback("JoinComplete", None)
            newer = frozenset(w for w in seq if self.cv < w)
            if newer:
                if not self.seqs.get(self.cv) and all(self.cv < w for w in newer):
                    self._set_seq(self.cv, newer)
                    self._emit_propose(self.cv)
            else:
                self.installed = self.cv
                self._wrote("installed")
                if self.suspended:
                    self.suspended = False
                    self._wrote("suspended")
                    self._note("StateNote", detail="resume")
                self._note("Install", view=self.cv)
                self._new_view()
                self._leave_resend_on_install()
        else:
            # Leaving: keep relaying the stored message until a deliver
            # quorum confirms totality, then shut down.
            if self.state_record.stored is not None and not self.delivered:
                self._set_phase(Phase.LEAVER_LOOP)
                self._note("StateNote", detail="leaver-loop")
                self._flood(HistoryRequest())
                self._leaver_commit()
            else:
                self._finish_leave()

    def _finish_leave(self) -> None:
        self._set_phase(Phase.HALTED)
        self._callback("LeaveComplete", None)

    def _leaver_commit(self) -> None:
        ev = self.state_record.stored
        best = self._best_view()
        if len(best) > len(self.cv):
            self.cv = best
            self._wrote("cv")
        self._send_all(self.cv.members, Commit(ev.payload, ev.cert, self.cv))

    def _leaver_loop_kick(self) -> None:
        if self.phase is not Phase.LEAVER_LOOP:
            return
        if self.delivered:
            self._finish_leave()
        elif len(self._best_view()) > len(self.cv):
            self._leaver_commit()
