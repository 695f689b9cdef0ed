"""View discovery: verified view histories and the per-node trust store.

A view history is an alternating chain v0, m0, v1, m1, ... vn where each
link is an install message whose target is the next view and which
carries a quorum of converged signatures from the replaced view.  A node
trusts exactly the views reachable through such verified chains (plus
the auxiliary views named inside install sequences, which may carry
certificates but are never install targets themselves).
"""

from __future__ import annotations

from .crypto import Verifier
from .messages import HistoryGossip, Install, ViewHistory, converged_signed_bytes
from .views import View, comparable, is_sequence, least_recent


def verify_install_proof(install: Install, verifier: Verifier) -> bool:
    """Check an install message's structural and quorum validity.

    The result depends on the install's value alone, so an install this
    engine's verifier has proved before is accepted at once.
    """
    if install in verifier.proved:
        return True
    if not _install_proof_holds(install, verifier):
        return False
    verifier.proved.add(install)
    return True


def _install_proof_holds(install: Install, verifier: Verifier) -> bool:
    if not install.seq or not is_sequence(install.seq):
        return False
    try:
        if least_recent(install.seq) != install.omega:
            return False
    except Exception:
        return False
    if not all(install.view.changes < w.changes for w in install.seq):
        return False
    expected_psi = tuple(sorted(install.view.member_set | install.omega.member_set))
    if tuple(sorted(install.psi)) != expected_psi:
        return False
    signers = [pid for pid, _ in install.converged_sigs]
    if len(signers) != len(set(signers)):
        return False
    members = install.view.member_set
    if any(pid not in members for pid in signers):
        return False
    if len(signers) < install.view.quorum_size:
        return False
    signed = {pid: converged_signed_bytes(install.seq, install.view, pid)
              for pid in signers}
    return all(verifier.verify(pid, signed[pid], sig)
               for pid, sig in install.converged_sigs)


def verify_history(history: ViewHistory, initial: View, verifier: Verifier) -> bool:
    if history.views[0] != initial:
        return False
    for i, link in enumerate(history.links):
        if link.view != history.views[i]:
            return False
        if link.omega != history.views[i + 1]:
            return False
        if not verify_install_proof(link, verifier):
            return False
    return True


class DiscoveryMixin:
    """Trust store; mixed into the node engine.

    Uses node state: trusted_hist (view -> history), trusted_aux,
    initial_view, verifier, plus the emit helpers.
    """

    def _is_trusted(self, view: View) -> bool:
        return view in self.trusted_hist

    def _is_valid_view(self, view: View) -> bool:
        return view in self.trusted_hist or view in self.trusted_aux

    def _best_view(self) -> View:
        return max(self.trusted_hist, key=lambda v: (len(v.changes), v.canonical_bytes))

    def _best_history(self) -> ViewHistory:
        return self.trusted_hist[self._best_view()]

    def _trust_views(self, history: ViewHistory) -> bool:
        """Record every prefix of a verified history; returns True on growth."""
        grew = False
        for i, view in enumerate(history.views):
            for existing in self.trusted_hist:
                if not comparable(existing, view):
                    self._note("Flag", detail=f"diverging verified histories: "
                                              f"{existing.short} vs {view.short}")
            if view not in self.trusted_hist:
                prefix = ViewHistory(history.views[:i + 1], history.links[:i])
                self.trusted_hist[view] = prefix
                grew = True
        for link in history.links:
            for aux in link.seq:
                if aux not in self.trusted_aux and aux not in self.trusted_hist:
                    self.trusted_aux.add(aux)
                    grew = True
        return grew

    def _extend_trust(self, history: ViewHistory) -> bool:
        if not verify_history(history, self.initial_view, self.verifier):
            self._note("Drop", detail="unverifiable view history")
            return False
        return self._trust_views(history)

    def _absorb_install(self, install: Install) -> bool:
        """Extend the trust chain through a validated install message."""
        grew = False
        base = self.trusted_hist.get(install.view)
        if base is not None and install.omega not in self.trusted_hist:
            self.trusted_hist[install.omega] = base.extended(install)
            grew = True
        for aux in install.seq:
            if aux not in self.trusted_aux and aux not in self.trusted_hist:
                self.trusted_aux.add(aux)
                grew = True
        return grew

    def _handle_history_request(self, author: str) -> None:
        if self.joined and not self.halted:
            self._send(author, HistoryGossip(self._best_history()))

    def _handle_history(self, gossip: HistoryGossip) -> None:
        self._extend_trust(gossip.history)

    def _gossip_kick(self) -> bool:
        """Push the best history to the universe whenever it grows."""
        if self.halted or not (self.joined or self.join_invoked):
            return False
        best = self._best_view()
        if self.last_gossiped == best:
            return False
        self.last_gossiped = best
        self._flood(HistoryGossip(self.trusted_hist[best]))
        return True
