"""Per-process protocol engine: one input event in, a list of actions out.

The engine performs no IO, reads no clock, and draws no randomness, so a
given (state, event) pair always yields the same successor state and
action list.  Quorum waits from the pseudo-blocking protocol description
live in buffers, each re-checked by one scan method.  A handler that
writes state a scan reads wakes that scan (`_wake`), and `step` runs only
the woken scans (`_repoll`) before it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .broadcast import BroadcastMixin
from .crypto import Signer, Verifier
from .discovery import DiscoveryMixin
from .membership import MembershipMixin, Phase
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
from .wake import (
    ALL,
    CERT,
    CONFIRM,
    CONVERGED_QUORUM,
    DELIVER,
    GOSSIP,
    JOIN,
    LEAVE,
    LEAVER_LOOP,
    MAYBE_PROPOSE,
    PENDING_COMMIT,
    PENDING_INSTALL,
    PENDING_STORE,
    PROPOSE_BUFFER,
    PROPOSE_QUORUM,
    RM_PENDING,
)


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


InputEvent = InvokeJoin | InvokeLeave | InvokeBroadcast | Receive


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

# Tested on every step and send, where a global is cheaper than `Phase.HALTED`.
_DORMANT, _HALTED = Phase.DORMANT, Phase.HALTED

# The scans `_repoll` runs, in the order it runs them, each with its wake bit.
_SCANS = (
    (RM_PENDING, "_rm_pending_scan"),
    (PENDING_COMMIT, "_pending_commit_scan"),
    (PENDING_STORE, "_pending_store_scan"),
    (PROPOSE_BUFFER, "_propose_buffer_scan"),
    (PROPOSE_QUORUM, "_propose_quorum_scan"),
    (CONVERGED_QUORUM, "_converged_quorum_scan"),
    (PENDING_INSTALL, "_pending_install_scan"),
    (MAYBE_PROPOSE, "_maybe_propose"),
    (CERT, "_cert_scan"),
    (DELIVER, "_deliver_scan"),
    (CONFIRM, "_confirm_scan"),
    (JOIN, "_join_kick"),
    (LEAVE, "_leave_kick"),
    (LEAVER_LOOP, "_leaver_loop_kick"),
    (GOSSIP, "_gossip_kick"),
)


class Node(DiscoveryMixin, RMulticastMixin, MembershipMixin, BroadcastMixin):
    def __init__(self, pid: ProcessId, initial_view: View, sender_id: ProcessId,
                 signer: Signer, verifier: Verifier, initial_member: bool) -> None:
        self.pid = pid
        self.initial_view = initial_view
        self.sender_id = sender_id
        self.signer = signer
        self.verifier = verifier

        # membership state
        self.cv = initial_view
        self.installed: set[View] = {initial_view} if initial_member else set()
        self.recv: dict = {}
        self.seqs: dict[View, frozenset[View]] = {}
        self.lcseqs: dict[View, frozenset[View]] = {}
        self.formats: dict[View, set[frozenset[View]]] = {}
        if initial_member:
            self.formats[initial_view] = {frozenset()}
        self.pool: dict = {}
        self.suspended = not initial_member
        self.phase = Phase.MEMBER if initial_member else Phase.DORMANT
        self.got_history = False
        self.last_reconfig_target: Optional[View] = None
        self.rec_confirms: dict[View, set[ProcessId]] = {}
        self.propose_votes: dict = {}
        self.converged_votes: dict = {}
        self.converged_sent: set = set()
        self.install_sent: set = set()
        self.propose_buffer: list = []
        self.pending_installs: list = []
        self.state_updates: dict[View, dict[ProcessId, StateUpdate]] = {}

        # reliable multicast state
        self.rm_received: set[tuple[int, bytes, str]] = set()
        self.rm_pending: list = []

        # discovery state
        self.trusted_hist: dict[View, ViewHistory] = {initial_view: ViewHistory((initial_view,))}
        self.trusted_aux: set[View] = set()
        self.last_gossiped: View = initial_view

        # broadcast state
        self.bpayload: Optional[bytes] = None
        self.cer = None
        self.delivered = False
        self.ack_sigs: dict = {}
        self.ack_counts: dict = {}
        self.delivers: set = set()
        self.deliver_counts: dict = {}
        self.state_record = StateRecord()
        self.pending_commits: list = []
        self.pending_store: list = []

        self._outputs: list[OutputAction] = []
        # one bit per scan that may have been unblocked since it last ran
        self._dirty = ALL
        # raw -> Decoded for every message that decoded, and (tag, body) ->
        # message for every body that parsed; neither is protocol state
        self._decoded: dict[bytes, Decoded] = {}
        self._bodies: dict[tuple[int, bytes], Message] = {}

    def _wake(self, bits: int) -> None:
        """Mark the scans that read state this handler just wrote."""
        self._dirty |= bits

    # -- emit helpers -----------------------------------------------------------

    def _encode(self, msg) -> bytes:
        return encode(msg, self.signer)

    def _assert_may_send(self) -> None:
        if self.phase is _HALTED:
            raise AssertionError("halted node attempted to send")
        if self.phase is _DORMANT:
            raise AssertionError("dormant node attempted to send")

    def _send_raw(self, to: ProcessId, raw: bytes, meta: dict) -> None:
        self._assert_may_send()
        self._outputs.append(Send(to, raw, meta))

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
        if self.phase is _HALTED:
            raise HaltedError(f"{self.pid} is halted")
        self._outputs = []
        if isinstance(event, InvokeJoin):
            self._invoke_join()
        elif isinstance(event, InvokeLeave):
            self._invoke_leave()
        elif isinstance(event, InvokeBroadcast):
            self._invoke_broadcast(event.payload)
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
        if self.phase is _DORMANT:
            return  # dormant until the join operation starts
        msg = decoded.msg
        # a link-only frame names no author: it speaks for its link sender
        author = event.sender if decoded.author is None else decoded.author
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
            self._wake(JOIN)
            self._handle_history(msg)
        else:  # pragma: no cover
            self._note("Drop", detail="unroutable message kind")

    def _repoll(self) -> None:
        """Run the woken scans, in `_SCANS` order, until none is woken.

        Each round walks the scans once and runs those whose bit is set,
        clearing the bit just before the call; a scan woken by a later one
        runs in the next round.  A scan that is not woken would find nothing
        to do, so the scans that act do so in the same order as when every
        scan re-ran until none changed anything, and traces are unchanged.
        Scans return nothing; what they did is in the state they wrote.
        Only a scan halts the node, so `_repoll` stops right after one that
        does, and no scan checks for it.

        It terminates because each firing uses up something finite that
        does not come back within the step: a buffered entry (a buffer grows
        only from the step's input or from another firing, and sends leave
        the node), a once-only value (`phase`, which only moves forward,
        `state_record.stored`, `delivered`, `cer`), a key it never fires on
        again (`converged_sent`, `install_sent`, `rm_received`), or a growth
        of `cv` or of the trust store (`_maybe_propose` and the kicks), which
        grow only through the finitely many views the step brings.
        """
        while self._dirty:
            for bit, name in _SCANS:
                if self._dirty & bit:
                    self._dirty &= ~bit
                    getattr(self, name)()
                    if self.phase is _HALTED:
                        return
