import hashlib
import json

import pytest

from dbrb.crypto import make_keyring
from dbrb.engine import Node, Receive
from dbrb.membership import Phase, added_changes
from dbrb.messages import Reconfig, ReconfigProof, encode, signed_content
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
            self.add_node(pid)

    def add_node(self, pid):
        # each node verifies through its own memo, as in the simulator
        self.nodes[pid] = Node(pid, self.initial_view, self.sender,
                               self.keyring.signer_for(pid), self.keyring.verifier())
        return self.nodes[pid]

    def raw(self, author, msg):
        return encode(msg, self.keyring.signer_for(author))

    def deliver(self, to, author, msg, via=None):
        """Encode msg as author and step the target node with it, sent over
        the link from `via` (author by default)."""
        return self.nodes[to].step(Receive(via or author, self.raw(author, msg)))


_DIGEST_SKIP = ("signer", "verifier", "_outputs", "_decoded", "_bodies", "_dirty")


def state_digest(node):
    """Platform-stable digest over every mutable state field of a node.

    Every value encodes to JSON lists and strings; set members and dict
    entries are ordered by their JSON text, which any two encodings have.
    """
    def enc(x):
        if isinstance(x, bytes):
            return x.hex()
        if isinstance(x, View):
            return x.canonical_bytes.hex()
        if isinstance(x, Phase):
            return x.name
        if isinstance(x, (set, frozenset)):
            return sorted((enc(e) for e in x), key=json.dumps)
        if isinstance(x, (list, tuple)):
            return [enc(e) for e in x]
        if isinstance(x, dict):
            return sorted(([enc(k), enc(v)] for k, v in x.items()), key=json.dumps)
        if hasattr(x, "__dataclass_fields__"):
            return [[f, enc(getattr(x, f))] for f in sorted(x.__dataclass_fields__)]
        return repr(x)

    payload = {k: enc(v) for k, v in node.__dict__.items() if k not in _DIGEST_SKIP}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


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
