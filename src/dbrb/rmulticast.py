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
- `state_updates` keeps each author's first update, so even with relays
  two receivers can take different updates from one Byzantine author.
  The echo gave no agreement on what a Byzantine member reported, and
  the install step does not need it: it waits for a quorum of updates,
  and what it must learn (a message acked or stored by a quorum of the
  replaced view) reaches it through a correct member in the two quorums'
  intersection, whatever the Byzantine members report.
"""

from __future__ import annotations

from .messages import Install, message_meta, rm_targets
from .discovery import verify_install_proof


class RMulticastMixin:
    def _rm_receive(self, msg: Install, raw: bytes) -> None:
        """Check and deliver an install, the only kind the engine routes
        here.

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
        if not self._is_trusted(msg.view):
            # Replaced view unknown yet; park until a history arrives.
            if all(r != raw for _, r in self.rm_pending):
                self.rm_pending.append((msg, raw))
                self._wrote("rm_pending")
            return
        self._rm_deliver(msg, raw)

    def _rm_deliver(self, msg: Install, raw: bytes) -> None:
        self.rm_received.add(raw)
        meta = message_meta(msg)
        for q in rm_targets(msg):
            if q != self.pid:
                self._send_raw(q, raw, meta)
        self._handle_install(msg)

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
        for msg, raw in self.rm_pending:
            if self._is_trusted(msg.view):
                self._rm_deliver(msg, raw)
            else:
                still.append((msg, raw))
        self.rm_pending = still
