"""View discovery: verified view histories and the per-node trust store.

A view history is an alternating chain v0, m0, v1, m1, ... vn where each
link is an install message whose target is the next view and which
carries a quorum of converged signatures from the replaced view.  A node
trusts exactly the views reachable through such verified chains (plus
the auxiliary views named inside install sequences, which may carry
certificates but are never install targets themselves).
"""

from __future__ import annotations

from .crypto import Verifier, quorum_signed
from .messages import (
    Converged,
    Install,
    ViewHistory,
    body_bytes,
    signed_content,
)
from .membership import Phase, added_changes
from .views import View, comparable, is_sequence, seq_sort_key


def verify_install_proof(install: Install, verifier: Verifier) -> bool:
    """Check an install message's structure, its converged quorum, and a
    verifying reconfiguration proof for each change its sequence adds.

    The proofs let every receiver propose the rest of the sequence once the
    install completes.  The result depends on the install's canonical body
    alone, so an install whose body this engine's verifier has proved before
    is accepted at once.
    """
    body = body_bytes(install)
    if body in verifier.proved:
        return True
    if not _install_proof_holds(install, verifier):
        return False
    verifier.proved.add(body)
    return True


def _install_proof_holds(install: Install, verifier: Verifier) -> bool:
    if not install.seq or not is_sequence(install.seq):
        return False  # else `install.omega` is defined from here on
    if not all(install.view < w for w in install.seq):
        return False
    if [p.msg.change for p in install.proofs] != added_changes(install.seq, install.view):
        return False
    # one CONVERGED body; each signer's content only appends the author
    converged = Converged(install.seq, install.view)
    return (quorum_signed(install.view, install.converged_sigs,
                          lambda pid: signed_content(converged, pid), verifier)
            and all(p.verify(verifier, p.msg.change[1:]) for p in install.proofs))


def verify_history(history: ViewHistory, initial: View, verifier: Verifier) -> bool:
    """Check the chain from `initial`: each link replaces the view the chain
    has reached, and its proof holds; only then is its omega the next view."""
    view = history.root
    if view != initial:
        return False
    for link in history.links:
        if link.view != view or not verify_install_proof(link, verifier):
            return False
        view = link.omega
    return True


class DiscoveryMixin:
    """Trust store; mixed into the node engine.

    Uses node state: trusted_hist (view -> the HISTORY message that proves
    it, sent as it is), trusted_aux, got_history (a verified history came
    in), initial_view, verifier, plus the emit helpers.
    """

    def _is_trusted(self, view: View) -> bool:
        return view in self.trusted_hist

    def _is_valid_view(self, view: View) -> bool:
        return view in self.trusted_hist or view in self.trusted_aux

    def _best_view(self) -> View:
        return max(self.trusted_hist, key=seq_sort_key)

    def _best_history(self) -> ViewHistory:
        return self.trusted_hist[self._best_view()]

    def _add_trusted(self, view: View, history: ViewHistory) -> None:
        """Trust a new view, flagging each trusted view it diverges from.

        Every view but the initial one enters the trust store here, so each
        pair of trusted views is compared once, when the later one is added.
        """
        for existing in self.trusted_hist:
            if not comparable(existing, view):
                self._note("Flag", view=view, detail="diverging verified histories",
                           views={"trusted": existing})
        self.trusted_hist[view] = history
        self._wrote("trusted_hist")

    def _trust_aux(self, install: Install) -> None:
        """Accept the views of a proved install's sequence as auxiliary."""
        for aux in install.seq:
            if aux not in self.trusted_aux and aux not in self.trusted_hist:
                self.trusted_aux.add(aux)
                self._wrote("trusted_aux")

    def _trust_views(self, history: ViewHistory) -> None:
        """Record every prefix of a verified history; its root, the initial
        view, is always trusted."""
        for i, link in enumerate(history.links):
            if link.omega not in self.trusted_hist:
                self._add_trusted(link.omega, ViewHistory(history.root, history.links[:i + 1]))
        for link in history.links:
            self._trust_aux(link)

    def _absorb_install(self, install: Install) -> None:
        """Extend the trust chain through a validated install message."""
        base = self.trusted_hist.get(install.view)
        if base is not None and install.omega not in self.trusted_hist:
            self._add_trusted(install.omega, base.extended(install))
        self._trust_aux(install)

    def _handle_history_request(self, author: str) -> None:
        if self.phase >= Phase.MEMBER:
            self._send(author, self._best_history())

    def _handle_history(self, history: ViewHistory) -> None:
        if not verify_history(history, self.initial_view, self.verifier):
            self._note("Drop", detail="unverifiable view history")
            return
        self.got_history = True
        self._wrote("got_history")
        self._trust_views(history)

    def _gossip_kick(self) -> None:
        """Push the best history to the universe whenever it grows."""
        if self.phase is Phase.DORMANT:
            return
        best = self._best_view()
        if self.last_gossiped == best:
            return
        self.last_gossiped = best
        self._flood(self.trusted_hist[best])
