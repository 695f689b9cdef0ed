"""Per-process protocol engine: one input event in, a list of actions out.

The engine performs no IO, reads no clock, and draws no randomness, so a
given (state, event) pair always yields the same successor state and
action list.  Quorum waits from the pseudo-blocking protocol description
live in buffers that `step` re-polls to a fixpoint after every event.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Optional

from .broadcast import ALLOW_ANY, BroadcastMixin
from .crypto import Signer, Verifier
from .discovery import DiscoveryMixin
from .membership import _EMPTY_SEQ_KEY, MembershipMixin
from .messages import (
    Ack,
    CodecError,
    Commit,
    Converged,
    Decoded,
    Deliver,
    HistoryGossip,
    HistoryRequest,
    Install,
    Message,
    Prepare,
    Propose,
    RecConfirm,
    Reconfig,
    StateRecord,
    StateUpdate,
    ViewHistory,
    decode,
    encode,
    message_meta,
)
from .rmulticast import RMulticastMixin
from .views import ProcessId, View


class HaltedError(RuntimeError):
    """An event was fed to a node that already completed its leave."""


# -- input events -------------------------------------------------------------


@dataclass(frozen=True)
class InvokeJoin:
    pass


@dataclass(frozen=True)
class InvokeLeave:
    pass


@dataclass(frozen=True)
class InvokeBroadcast:
    payload: bytes


@dataclass(frozen=True)
class Receive:
    sender: ProcessId
    raw: bytes
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DiscoveryReply:
    history: ViewHistory


InputEvent = InvokeJoin | InvokeLeave | InvokeBroadcast | Receive | DiscoveryReply


# -- output actions -----------------------------------------------------------


@dataclass(frozen=True)
class Send:
    to: ProcessId
    raw: bytes
    meta: dict


@dataclass(frozen=True)
class Flood:
    raw: bytes
    meta: dict


@dataclass(frozen=True)
class Callback:
    kind: str  # Delivered | JoinComplete | LeaveComplete
    payload: Optional[bytes]


@dataclass(frozen=True)
class Halt:
    pass


@dataclass(frozen=True)
class Note:
    kind: str  # Install | StateNote | Drop | Flag
    msg_kind: Optional[str]
    view: Optional[str]
    payload: Optional[str]
    detail: Optional[str]
    views: Optional[dict]  # name -> View, or a frozenset of Views for a sequence


OutputAction = Send | Flood | Callback | Halt | Note


class Node(DiscoveryMixin, RMulticastMixin, MembershipMixin, BroadcastMixin):
    def __init__(self, pid: ProcessId, initial_view: View, sender_id: ProcessId,
                 signer: Signer, verifier: Verifier, initial_member: bool) -> None:
        self.pid = pid
        self.initial_view = initial_view
        self.sender_id = sender_id
        self.signer = signer
        self.verifier = verifier
        self.initial_member = initial_member

        # membership state
        self.cv = initial_view
        self.installed: dict[View, bool] = {initial_view: True} if initial_member else {}
        self.recv: dict = {}
        self.seqs: dict[View, frozenset[View]] = {}
        self.seq_keys: dict[View, bytes] = {}  # seq_key(seqs[v]), set with it
        self.lcseqs: dict[View, frozenset[View]] = {}
        self.formats: dict[View, dict[bytes, frozenset[View]]] = {}
        if initial_member:
            self.formats[initial_view] = {_EMPTY_SEQ_KEY: frozenset()}
        self.pool: dict = {}
        self.suspended = not initial_member
        self.joined = initial_member
        self.join_invoked = False
        self.join_confirmed = False
        self.got_history = False
        self.last_reconfig_target: Optional[View] = None
        self.leave_invoked = False
        self.leave_reconfig_sent = False
        self.leave_confirmed = False
        self.leaver_loop = False
        self.halted = False
        self.rec_confirms: dict[View, set[ProcessId]] = {}
        self.propose_votes: dict = {}
        self.seq_store: dict[bytes, frozenset[View]] = {}
        self.converged_votes: dict = {}
        self.converged_sent: set = set()
        self.install_sent: set = set()
        self.propose_buffer: list = []
        self.pending_installs: list = []
        self.state_updates: dict[View, dict[ProcessId, StateUpdate]] = {}

        # reliable multicast state
        self.rm_received: set[bytes] = set()
        self.rm_pending: list = []

        # discovery state
        self.trusted_hist: dict[View, ViewHistory] = {initial_view: ViewHistory((initial_view,))}
        self.trusted_aux: set[View] = set()
        self.last_gossiped: View = initial_view

        # broadcast state
        self.broadcast_invoked = False
        self.bpayload: Optional[bytes] = None
        self.cer = None
        self.v_cer: Optional[View] = None
        self.allowed_ack = ALLOW_ANY
        self.stored = False
        self.stored_value = None
        self.can_leave = False
        self.delivered = False
        self.acks: dict = {}
        self.ack_sigs: dict = {}
        self.ack_counts: dict = {}
        self.delivers: dict = {}
        self.deliver_counts: dict = {}
        self.state_record = StateRecord()
        self.pending_commits: list = []
        self.pending_store: list = []

        self._outputs: list[OutputAction] = []
        # raw -> Decoded for every message that decoded, and (tag, body) ->
        # message for every body that parsed; neither is protocol state
        self._decoded: dict[bytes, Decoded] = {}
        self._bodies: dict[tuple[int, bytes], Message] = {}

    # -- emit helpers -----------------------------------------------------------

    def _encode(self, msg) -> bytes:
        return encode(msg, self.signer)

    def _assert_may_send(self) -> None:
        if self.halted:
            raise AssertionError("halted node attempted to send")
        if not (self.joined or self.join_invoked):
            raise AssertionError("dormant node attempted to send")

    def _send_raw(self, to: ProcessId, raw: bytes, meta: dict) -> None:
        self._assert_may_send()
        self._outputs.append(Send(to, raw, dict(meta)))

    def _send_all(self, targets, msg) -> None:
        """Send msg to each target in order; it is encoded and signed once."""
        raw, meta = self._encode(msg), message_meta(msg)
        for q in targets:
            self._send_raw(q, raw, meta)

    def _send(self, to: ProcessId, msg) -> None:
        self._send_all((to,), msg)

    def _flood(self, msg) -> None:
        self._assert_may_send()
        self._outputs.append(Flood(self._encode(msg), message_meta(msg)))

    def _callback(self, kind: str, payload: Optional[bytes]) -> None:
        self._outputs.append(Callback(kind, payload))

    def _halt(self) -> None:
        self._outputs.append(Halt())

    def _note(self, kind: str, msg_kind: str | None = None, view: str | None = None,
              payload: str | None = None, detail: str | None = None,
              views: dict | None = None) -> None:
        self._outputs.append(Note(kind, msg_kind, view, payload, detail, views))

    # -- event entry point -------------------------------------------------------

    def step(self, event: InputEvent) -> list[OutputAction]:
        if self.halted:
            raise HaltedError(f"{self.pid} is halted")
        self._outputs = []
        if isinstance(event, InvokeJoin):
            self._invoke_join()
        elif isinstance(event, InvokeLeave):
            self._invoke_leave()
        elif isinstance(event, InvokeBroadcast):
            self._invoke_broadcast(event.payload)
        elif isinstance(event, DiscoveryReply):
            self.got_history = True
            self._extend_trust(event.history)
        elif isinstance(event, Receive):
            self._receive(event)
        else:  # pragma: no cover
            raise TypeError(f"unknown event {event!r}")
        self._repoll()
        out, self._outputs = self._outputs, []
        return out

    def _receive(self, event: Receive) -> None:
        # Echoes and gossip deliver the same bytes many times, and members
        # sign the same bodies; decoding is a pure function of the bytes, so
        # each distinct message is decoded once and each body parsed once.
        decoded = self._decoded.get(event.raw)
        if decoded is None:
            try:
                decoded = decode(event.raw, self.verifier, self._bodies)
            except CodecError as exc:
                self._note("Drop", detail=f"undecodable message: {exc}")
                return
            self._decoded[event.raw] = decoded
        if not self.joined and not self.join_invoked:
            return  # dormant until the join operation starts
        msg, author = decoded.msg, decoded.author
        if isinstance(msg, Reconfig):
            self._handle_reconfig(author, msg, decoded.signature)
        elif isinstance(msg, RecConfirm):
            self._handle_rec_confirm(author, msg)
        elif isinstance(msg, Propose):
            self._handle_propose(author, msg)
        elif isinstance(msg, Converged):
            self._handle_converged(author, msg, decoded.signature)
        elif isinstance(msg, (Install, StateUpdate)):
            self._rm_receive(decoded, event.raw)
        elif isinstance(msg, Prepare):
            self._handle_prepare(author, msg, decoded.signature)
        elif isinstance(msg, Ack):
            self._handle_ack(author, msg)
        elif isinstance(msg, Commit):
            self._handle_commit(author, msg)
        elif isinstance(msg, Deliver):
            self._handle_deliver(author, msg)
        elif isinstance(msg, HistoryRequest):
            self._handle_history_request(author)
        elif isinstance(msg, HistoryGossip):
            self.got_history = True
            self._handle_history(msg)
        else:  # pragma: no cover
            self._note("Drop", detail="unroutable message kind")

    def _repoll(self) -> None:
        for _ in range(256):
            changed = False
            if self.halted:
                return
            changed |= self._rm_pending_scan()
            changed |= self._pending_commit_scan()
            changed |= self._pending_store_scan()
            changed |= self._propose_buffer_scan()
            changed |= self._propose_quorum_scan()
            changed |= self._converged_quorum_scan()
            changed |= self._pending_install_scan()
            changed |= self._maybe_propose()
            changed |= self._cert_scan()
            changed |= self._deliver_scan()
            changed |= self._confirm_scan()
            changed |= self._join_kick()
            changed |= self._leave_kick()
            changed |= self._leaver_loop_kick()
            changed |= self._gossip_kick()
            if not changed:
                return
        raise AssertionError("repoll did not reach a fixpoint")

    _DIGEST_SKIP = ("signer", "verifier", "_outputs", "_decoded", "_bodies", "seq_keys")

    def state_digest(self) -> str:
        """Platform-stable digest over every mutable state field."""
        def enc(x):
            if isinstance(x, bytes):
                return x.hex()
            if isinstance(x, View):
                return x.canonical_bytes.hex()
            if isinstance(x, (set, frozenset)):
                return sorted(enc(e) for e in x)
            if isinstance(x, (list, tuple)):
                return [enc(e) for e in x]
            if isinstance(x, dict):
                return sorted((enc(k), enc(v)) for k, v in x.items())
            if hasattr(x, "__dataclass_fields__"):
                return {f: enc(getattr(x, f)) for f in sorted(x.__dataclass_fields__)}
            return repr(x)

        payload = {k: enc(v) for k, v in self.__dict__.items()
                   if k not in self._DIGEST_SKIP}
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
