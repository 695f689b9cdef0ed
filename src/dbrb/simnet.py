"""Deterministic discrete-event network simulator.

Links are reliable but asynchronous: every send is delivered after a
seed-determined delay, so reordering falls out naturally.  A run
executes until quiescence (empty queue, no pending script entries) or
until the step/message limits truncate it.  Identical (scenario, seed)
pairs produce byte-identical traces.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .adversary import make_adversary
from .crypto import make_keyring
from .engine import (
    Callback,
    Flood,
    Halt,
    InvokeBroadcast,
    InvokeJoin,
    InvokeLeave,
    Node,
    Note,
    Receive,
    Send,
)
from .views import View, seq_sorted, short_digest

TRACE_SCHEMA = 2


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    name: str
    universe: list[str]
    initial_members: list[str]
    sender: str
    roles: dict[str, dict]
    script: list[dict]
    max_delay_steps: int = 3
    reorder: bool = True
    max_steps: int = 100_000
    max_messages: int = 500_000
    crypto: str = "hmac"

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        try:
            network = data.get("network", {})
            limits = data.get("limits", {})
            sc = cls(
                name=data["name"],
                universe=list(data["universe"]),
                initial_members=list(data["initial_members"]),
                sender=data["sender"],
                roles={k: dict(v) for k, v in data.get("roles", {}).items()},
                script=[dict(e) for e in data.get("script", [])],
                max_delay_steps=int(network.get("max_delay_steps", 3)),
                reorder=bool(network.get("reorder", True)),
                max_steps=int(limits.get("max_steps", 100_000)),
                max_messages=int(limits.get("max_messages", 500_000)),
                crypto=data.get("crypto", "hmac"),
            )
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"malformed scenario: {exc}") from exc
        sc.validate()
        return sc

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
        return cls.from_dict(data)

    def validate(self) -> None:
        if not self.universe:
            raise ScenarioError("empty universe")
        if len(set(self.universe)) != len(self.universe):
            raise ScenarioError("duplicate process ids")
        for pid in self.universe:
            if not pid or not all(ch.isalnum() or ch == "_" for ch in pid):
                raise ScenarioError(f"bad process id {pid!r}")
        missing = [p for p in self.initial_members if p not in self.universe]
        if missing or not self.initial_members:
            raise ScenarioError("initial members must be a nonempty universe subset")
        if self.sender not in self.universe:
            raise ScenarioError("sender outside universe")
        for pid, role in self.roles.items():
            if pid not in self.universe:
                raise ScenarioError(f"role for unknown process {pid}")
            if "strategy" not in role:
                raise ScenarioError(f"role without strategy for {pid}")
        for entry in self.script:
            trig = entry.get("trigger", {})
            if "at_step" not in trig and not trig.get("after_first_deliver"):
                raise ScenarioError(f"script entry without usable trigger: {entry}")
            action = entry.get("action", {})
            if action.get("kind") not in ("join", "leave", "broadcast"):
                raise ScenarioError(f"unknown script action: {action}")
            if action.get("process") not in self.universe:
                raise ScenarioError(f"script action for unknown process: {action}")
            if action["kind"] == "broadcast" and action["process"] != self.sender:
                raise ScenarioError("broadcast scripted for a non-sender process")
        if self.max_delay_steps < 1:
            raise ScenarioError("max_delay_steps must be >= 1")
        if self.crypto not in ("hmac", "ed25519"):
            raise ScenarioError(f"unknown crypto scheme {self.crypto}")

    def byzantine(self) -> set[str]:
        return set(self.roles)

    def regime(self) -> str:
        n = len(self.initial_members)
        f_bound = (n - 1) // 3
        byz = len([p for p in self.roles if p in self.initial_members])
        tag = "within" if byz <= f_bound else "EXCEEDS"
        return f"byzantine={byz} f_bound={f_bound} ({tag} assumption)"


@dataclass
class Trace:
    header: dict
    events: list[dict]
    footer: dict

    @property
    def truncated(self) -> bool:
        return bool(self.footer.get("truncated"))

    def to_jsonl(self) -> str:
        lines = [json.dumps(self.header)]
        lines += [json.dumps(e) for e in self.events]
        lines.append(json.dumps(self.footer))
        return "\n".join(lines) + "\n"

    def write(self, path: str | Path) -> None:
        Path(path).write_text(self.to_jsonl())

    @classmethod
    def read(cls, path: str | Path) -> "Trace":
        lines = [json.loads(line) for line in Path(path).read_text().splitlines() if line]
        if len(lines) < 2 or not isinstance(lines[0], dict):
            raise ValueError("not a recognizable trace file")
        if lines[0].get("schema") != TRACE_SCHEMA:
            raise ValueError(f"trace schema {lines[0].get('schema')}, expected {TRACE_SCHEMA}")
        return cls(lines[0], lines[1:-1], lines[-1])


def _tokens(v: View) -> list[str]:
    return [c.token for c in v.sorted_changes]


def _trace_views(views: Optional[dict]) -> Optional[dict]:
    """A view as its sorted change tokens; a sequence as its views in seq order."""
    if views is None:
        return None
    return {name: _tokens(x) if isinstance(x, View) else [_tokens(v) for v in seq_sorted(x)]
            for name, x in views.items()}


_INVOKE_EVENTS = {
    "join": InvokeJoin,
    "leave": InvokeLeave,
}


class _Run:
    def __init__(self, scenario: Scenario, seed: int) -> None:
        self.sc = scenario
        self.seed = seed
        self.rng = random.Random(f"dbrb:{seed}")
        self.keyring = make_keyring(scenario.crypto)
        self.initial_view = View.initial(scenario.initial_members)
        self.engines: dict[str, object] = {}
        for pid in scenario.universe:
            role = scenario.roles.get(pid)
            if role is None:
                self.engines[pid] = Node(
                    pid, self.initial_view, scenario.sender,
                    self.keyring.signer_for(pid), self.keyring.verifier(),
                    initial_member=pid in scenario.initial_members)
            else:
                self.engines[pid] = make_adversary(
                    role["strategy"], pid, self.initial_view, scenario.sender,
                    self.keyring.signer_for(pid), self.keyring.verifier(),
                    random.Random(f"adv:{seed}:{pid}"), role.get("params"))
        self.queue: list = []
        self.seqno = 0
        self.halted: set[str] = set()
        self.events: list[dict] = []
        self.t = 0
        self.messages = 0
        self.deliveries = 0
        self.installs = 0
        self.truncated = False
        self.pending_after: list[dict] = []
        self.first_deliver_seen = False

    # -- plumbing -------------------------------------------------------------

    def _push(self, t: int, kind: str, data: tuple) -> None:
        heapq.heappush(self.queue, (t, self.seqno, kind, data))
        self.seqno += 1

    def _delay(self) -> int:
        if self.sc.max_delay_steps <= 1:
            return 1
        if self.sc.reorder:
            return self.rng.randint(1, self.sc.max_delay_steps)
        return self.sc.max_delay_steps

    def _trace(self, kind: str, actor: str, peer: Optional[str] = None,
               msg_kind: Optional[str] = None, view: Optional[str] = None,
               payload: Optional[str] = None, detail: Optional[str] = None,
               views: Optional[dict] = None) -> None:
        self.events.append({
            "step": len(self.events),
            "t": self.t,
            "kind": kind,
            "actor": actor,
            "peer": peer,
            "msg_kind": msg_kind,
            "view_digest": view,
            "payload_digest": payload,
            "detail": detail,
            "views": views,
        })

    def _enqueue_send(self, frm: str, to: str, raw: bytes, meta: dict) -> None:
        if to not in self.engines:
            return
        self.messages += 1
        if self.messages > self.sc.max_messages:
            self.truncated = True
            return
        self._trace("Send", frm, peer=to, msg_kind=meta.get("msg"),
                    view=meta.get("view"), payload=meta.get("payload"))
        self._push(self.t + self._delay(), "deliver", (to, frm, raw, meta))

    def _apply_actions(self, actor: str, actions: list) -> None:
        for action in actions:
            if isinstance(action, Send):
                self._enqueue_send(actor, action.to, action.raw, action.meta)
            elif isinstance(action, Flood):
                for q in sorted(self.engines):
                    if q != actor:
                        self._enqueue_send(actor, q, action.raw, action.meta)
            elif isinstance(action, Callback):
                digest = short_digest(action.payload) if action.payload is not None else None
                self._trace("Callback", actor, payload=digest, detail=action.kind)
                if action.kind == "Delivered":
                    self.deliveries += 1
                    if not self.first_deliver_seen:
                        self.first_deliver_seen = True
                        self._fire_after_triggers()
            elif isinstance(action, Halt):
                self.halted.add(actor)
                self._trace("StateNote", actor, detail="halt")
            elif isinstance(action, Note):
                if action.kind == "Install":
                    self.installs += 1
                self._trace(action.kind, actor, msg_kind=action.msg_kind,
                            view=action.view, payload=action.payload,
                            detail=action.detail, views=_trace_views(action.views))

    def _fire_after_triggers(self) -> None:
        for entry in self.pending_after:
            self._push(self.t + 1, "invoke", (entry["action"],))
        self.pending_after = []

    def _invoke(self, action: dict) -> None:
        pid = action["process"]
        kind = action["kind"]
        engine = self.engines[pid]
        if pid in self.halted:
            self._trace("Drop", pid, detail=f"invoke {kind} on halted node")
            return
        if kind == "broadcast":
            payload = action.get("payload", "message").encode()
            self._trace("Invoke", pid, payload=short_digest(payload), detail="broadcast")
            event = InvokeBroadcast(payload)
        else:
            self._trace("Invoke", pid, detail=kind)
            event = _INVOKE_EVENTS[kind]()
        self._apply_actions(pid, engine.step(event))

    # -- main loop --------------------------------------------------------------

    def run(self) -> Trace:
        for entry in self.sc.script:
            trig = entry["trigger"]
            if "at_step" in trig:
                self._push(int(trig["at_step"]), "invoke", (entry["action"],))
            else:
                self.pending_after.append(entry)
        while self.queue and not self.truncated:
            t, _, kind, data = heapq.heappop(self.queue)
            self.t = t
            if t > self.sc.max_steps:
                self.truncated = True
                break
            if kind == "invoke":
                self._invoke(data[0])
            else:
                to, frm, raw, meta = data
                if to in self.halted:
                    self._trace("Drop", to, peer=frm, msg_kind=meta.get("msg"),
                                detail="recipient halted")
                    continue
                self._trace("Receive", to, peer=frm, msg_kind=meta.get("msg"),
                            view=meta.get("view"), payload=meta.get("payload"))
                self._apply_actions(to, self.engines[to].step(Receive(frm, raw, meta)))
        header = {
            "schema": TRACE_SCHEMA,
            "scenario": self.sc.name,
            "seed": self.seed,
            "regime": self.sc.regime(),
        }
        footer = {
            "truncated": self.truncated,
            "messages": self.messages,
            "events": len(self.events),
            "deliveries": self.deliveries,
            "installs": self.installs,
            "final_t": self.t,
            "unfired_triggers": len(self.pending_after),
        }
        return Trace(header, self.events, footer)


def run(scenario: Scenario, seed: int) -> Trace:
    return _Run(scenario, seed).run()
