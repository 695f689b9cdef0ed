"""Static Byzantine reliable multicast for install traffic.

The target set of an install is not sent: it is the members of its
replaced view and of its omega (`rm_targets`), which every receiver
derives alike, so no sender picks its own relay targets.  Receivers relay
a fresh install to the whole target set before acting on it, which gives
agreement: once any correct member delivers, every correct member that
has not left eventually delivers too.  Totality needs that echo, since
one correct member's install must reach members its author never sent to
(the author may be Byzantine).  Duplicates are suppressed by frame: an
install's frame is link-only, a function of its body, and `decode`
accepts only canonical bodies, so equal installs have equal frames.

A state update is not multicast: its author sends it once, straight to
each target, and it counts for the link sender (`_handle_state_update`).
An echo would add nothing:

- A correct member of the replaced view sends its own update to every
  target in one step, when it accepts the install (which the install's
  echo makes every correct member do), and links neither lose nor forge
  messages.  So each correct target gets every correct member's update
  with no relay, and those alone make the quorum it waits for: at most
  `(n-1)//3` of the n members are Byzantine, and the quorum is n minus
  that.
- A relay goes to the same `rm_targets` as the update, so it never
  reaches a target the author missed.  A target that drops the original,
  because it has halted or is not a target, drops the relay too.
- The `state_updates` tally keeps each author's first update per replaced
  view (`Tally.voted`), so even with relays two receivers can take
  different updates from one Byzantine author.
  The echo gave no agreement on what a Byzantine member reported, and
  the install step does not need it: it waits for a quorum of updates,
  and what it must learn (a message acked or stored by a quorum of the
  replaced view) reaches it through a correct member in the two quorums'
  intersection, whatever the Byzantine members report.

An update carries only the reconfig proofs of changes outside its
install's omega (`_handle_install`).  A target reads them in two places:

- `_complete_install` moves into `recv` only the changes outside omega,
  so a proof of a change in omega was skipped there anyway.  Omega
  contains the replaced view, so this also leaves out every change the
  replaced view already holds.
- `_handle_state_update` puts each proof into `pool`, from which a node
  builds the proofs of its PROPOSEs and INSTALLs.  The install itself
  carries a proof for each change in omega minus the replaced view, and
  every target accepts that install by reliable multicast, which puts its
  proofs into `pool`.  So a proof left out matters only when the update
  overtakes both that install and every PROPOSE that carried the proof;
  then the target waits for them, which delays its own install but never
  loses it.

Receivers still accept, and verify, any proof a Byzantine member attaches.
"""

from __future__ import annotations

from .messages import Install, message_meta, rm_targets
from .discovery import verify_install_proof


class RMulticastMixin:
    def _rm_receive(self, msg: Install, raw: bytes) -> None:
        """Check an install, the only kind the engine routes here, and park
        it for `_rm_pending_scan`, which relays and accepts it.

        A received install passed every check below, and equal frames have
        equal targets, so a copy of it is dropped first, quietly.
        """
        if raw in self.rm_received:
            return
        if not verify_install_proof(msg, self.verifier):
            self._note("Drop", msg_kind="INSTALL", detail="invalid install proof")
            return
        if self.pid not in rm_targets(msg):
            self._note("Drop", msg_kind="INSTALL", detail="not in target set")
            return
        self.rm_received.add(raw)
        self.rm_pending.append((msg, raw))
        self._wrote("rm_pending")

    def _rm_pending_scan(self) -> None:
        """Relay and accept each parked install whose replaced view is trusted.

        A frame is parked at most once, because `_rm_receive` marks it
        received as it parks it, so this scan needs no check for copies.
        An install whose replaced view is untrusted waits here until a
        history, or an install this node accepts, extends trust to that
        view; the growth wakes this scan, which reads `trusted_hist`.  An
        install accepted in one pass may trust the view another parked
        install replaces, so the scan passes again while a pass accepted
        something: that install is taken up in the same call, before any
        other scan acts on the view in between.
        """
        accepted = True
        while self.rm_pending and accepted:
            still = []
            for msg, raw in self.rm_pending:
                if self._is_trusted(msg.view):
                    meta = message_meta(msg)
                    for q in rm_targets(msg):
                        if q != self.pid:
                            self._send_raw(q, raw, meta)
                    self._handle_install(msg)
                else:
                    still.append((msg, raw))
            accepted = len(still) < len(self.rm_pending)
            self.rm_pending = still
