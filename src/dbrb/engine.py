"""Per-process protocol engine: one input event in, a list of actions out.

The engine performs no IO, reads no clock, and draws no randomness, so a
given (state, event) pair always yields the same successor state and
action list.  Quorum waits from the pseudo-blocking protocol description
live in buffers, each re-checked by one scan method.  `SCANS` declares
the fields each scan reads; a write names the field it wrote (`_wrote`),
which wakes that field's readers, and `step` runs only the woken scans
(`_repoll`) before it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    kind: str  # Delivered | JoinComplete | LeaveComplete (the node has halted)
    payload: Optional[bytes]


@dataclass(frozen=True)
class Note:
    kind: str  # Install | StateNote | Drop | Flag
    msg_kind: Optional[str]
    view: Optional[str]
    payload: Optional[str]
    detail: Optional[str]
    views: Optional[dict]  # name -> View, or a frozenset of Views for a sequence


OutputAction = Send | Flood | Callback | Note

# Tested on every step and send, where a global is cheaper than `Phase.HALTED`.
_DORMANT, _HALTED = Phase.DORMANT, Phase.HALTED

# The scans `_repoll` runs, in the order it runs them, each with the `Node`
# fields its wait reads, itself or through query helpers (methods that
# write no field and emit nothing, such as `_is_valid_view`); what the
# actions it takes read is not listed.  A scan's wake bit is its position
# here.  `tests/test_wakes.py` checks the declarations against the source.
SCANS = (
    ("_rm_pending_scan", ("rm_pending", "trusted_hist")),
    ("_pending_commit_scan", ("pending_commits", "cv", "suspended", "phase",
                              "trusted_hist", "trusted_aux")),
    ("_pending_store_scan", ("pending_store", "state_record", "cv", "installed", "delivered",
                             "trusted_hist", "trusted_aux")),
    ("_propose_buffer_scan", ("propose_buffer", "formats", "cv", "seqs", "installed", "lcseqs")),
    ("_propose_quorum_scan", ("propose_votes", "seqs", "converged_sent")),
    ("_converged_quorum_scan", ("converged_votes", "install_sent", "pool")),
    ("_pending_install_scan", ("pending_installs", "cv", "state_updates", "phase")),
    ("_maybe_propose", ("recv", "cv", "installed", "seqs")),
    ("_cert_scan", ("cer", "ack_counts", "ack_sigs", "cv", "installed",
                    "trusted_hist", "trusted_aux")),
    ("_deliver_scan", ("delivered", "deliver_counts", "trusted_hist", "trusted_aux")),
    ("_confirm_scan", ("phase", "rec_confirms")),
    ("_join_kick", ("phase", "got_history", "last_reconfig_target", "trusted_hist")),
    ("_leave_kick", ("phase", "bpayload", "delivered", "cv")),
    ("_leaver_loop_kick", ("phase", "delivered", "cv", "trusted_hist")),
    ("_gossip_kick", ("phase", "last_gossiped", "trusted_hist")),
)
_SCAN_NAMES = tuple(name for name, _ in SCANS)
_ALL = (1 << len(SCANS)) - 1
# field -> the bits of the scans that read it
_READERS = {f: sum(1 << i for i, (_, reads) in enumerate(SCANS) if f in reads)
            for _, reads in SCANS for f in reads}


class Node(DiscoveryMixin, RMulticastMixin, MembershipMixin, BroadcastMixin):
    def __init__(self, pid: ProcessId, initial_view: View, sender_id: ProcessId,
                 signer: Signer, verifier: Verifier) -> None:
        initial_member = pid in initial_view.member_set
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
        self.rm_received: set[bytes] = set()  # install frames
        self.rm_pending: list = []

        # discovery state
        self.trusted_hist: dict[View, ViewHistory] = {initial_view: ViewHistory(initial_view)}
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
        self._dirty = _ALL
        # raw -> Decoded for every message that decoded, and (tag, body) ->
        # message for every body that parsed; neither is protocol state
        self._decoded: dict[bytes, Decoded] = {}
        self._bodies: dict[tuple[int, bytes], Message] = {}

    def _wrote(self, *fields: str) -> None:
        """Wake the scans that read the fields just written."""
        for f in fields:
            self._dirty |= _READERS[f]

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

    def _note(self, kind: str, msg_kind: str | None = None, view: str | None = None,
              payload: str | None = None, detail: str | None = None,
              views: dict | None = None) -> None:
        self._outputs.append(Note(kind, msg_kind, view, payload, detail, views))

    # -- event entry point -------------------------------------------------------

    def step(self, event: InputEvent) -> list[OutputAction]:
        if self.phase is _HALTED:
            raise HaltedError(f"{self.pid} is halted")
        self._outputs = []
        if isinstance(event, Receive):
            self._receive(event)
        elif isinstance(event, InvokeJoin):
            self._invoke_join()
        elif isinstance(event, InvokeLeave):
            self._invoke_leave()
        elif isinstance(event, InvokeBroadcast):
            self._invoke_broadcast(event.payload)
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
        elif isinstance(msg, Install):
            self._rm_receive(msg, event.raw)
        elif isinstance(msg, StateUpdate):
            self._handle_state_update(author, msg)
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
            self._wrote("got_history")
            self._handle_history(msg)
        else:  # pragma: no cover
            self._note("Drop", detail="unroutable message kind")

    def _repoll(self) -> None:
        """Run the woken scans, in `SCANS` order, until none is woken.

        Each round runs the woken scans in order, stepping from one set bit
        to the next and clearing it just before the call; a scan woken by a
        later one runs in the next round.  A scan that is not woken would find nothing
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

        A write wakes every scan that declares its field, whether or not it
        gave that scan work.  A woken scan with nothing to do changes no
        field another scan reads and emits nothing, so extra wakes cost a
        call each but change neither the trace nor termination.
        """
        while self._dirty:
            ahead = _ALL  # the bits of the scans this round has not passed
            while self._dirty & ahead:
                woken = self._dirty & ahead
                bit = woken & -woken  # the first woken scan not passed
                ahead &= -(bit << 1)
                self._dirty &= ~bit
                getattr(self, _SCAN_NAMES[bit.bit_length() - 1])()
                if self.phase is _HALTED:
                    return
