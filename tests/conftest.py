import pytest

from dbrb.crypto import make_keyring
from dbrb.engine import Node, Receive
from dbrb.membership import added_changes
from dbrb.messages import Reconfig, ReconfigProof, encode, message_meta, signed_content
from dbrb.views import View


class Bench:
    """Hand-driven cluster: craft messages as any author, feed them to nodes."""

    def __init__(self, members, sender="p1", crypto="hmac", universe=None):
        self.keyring = make_keyring(crypto)
        self.verifier = self.keyring.verifier()
        self.initial_view = View.initial(members)
        self.sender = sender
        self.nodes = {}
        for pid in universe or members:
            self.add_node(pid, initial_member=pid in members)

    def add_node(self, pid, initial_member=False):
        # each node verifies through its own memo, as in the simulator
        self.nodes[pid] = Node(pid, self.initial_view, self.sender,
                               self.keyring.signer_for(pid), self.keyring.verifier(),
                               initial_member=initial_member)
        return self.nodes[pid]

    def raw(self, author, msg):
        return encode(msg, self.keyring.signer_for(author))

    def deliver(self, to, author, msg):
        """Encode msg as author and step the target node."""
        return self.nodes[to].step(Receive(author, self.raw(author, msg),
                                           message_meta(msg)))


def reconfig_proofs(keyring, seq, view):
    """One proof, signed by its subject, for each change seq adds to view."""
    return tuple(ReconfigProof(c, view, keyring.sign(c.process,
                                                     signed_content(Reconfig(c, view), c.process)))
                 for c in added_changes(seq, view))


@pytest.fixture
def bench4():
    return Bench(["p1", "p2", "p3", "p4"], universe=["p1", "p2", "p3", "p4", "p5"])


def sends_of(actions, kind=None):
    from dbrb.engine import Send

    out = [a for a in actions if isinstance(a, Send)]
    if kind is not None:
        out = [a for a in out if a.meta.get("msg") == kind]
    return out


def callbacks_of(actions):
    from dbrb.engine import Callback

    return [a for a in actions if isinstance(a, Callback)]


def notes_of(actions, kind=None):
    from dbrb.engine import Note

    out = [a for a in actions if isinstance(a, Note)]
    if kind is not None:
        out = [a for a in out if a.kind == kind]
    return out
