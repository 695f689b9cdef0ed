"""What one join costs as the system grows: p1..p4, then p5..p16 join.

    PYTHONPATH=src python -m pytest -q -s sweeps/test_scale.py

Outside tier-1, whose `testpaths` names only `tests/`.  p1..p4 start in
the view, and p5..p16 each invoke join `JOIN_EVERY` steps after the one
before, with no broadcast, at `max_delay_steps` 1 and 4, seed 1, `hmac`.
Messages and wire bytes are deterministic counts with no timing noise.
Each send counts for the join whose interval holds its step, the last
join taking the rest of the run.  The test prints messages and KiB per
join, by kind (`-s` shows them), and asserts that every verdict passes
and that no STATE-UPDATE sent in the last quarter of the joins carries
more reconfig proofs than the largest sent in the first quarter, since a
message must not grow with the length of the run (ROADMAP item 19).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import pytest

from dbrb import checker, simnet
from dbrb.crypto import make_keyring
from dbrb.messages import KIND_NAMES, decode

INITIAL = [f"p{i}" for i in range(1, 5)]
JOINERS = [f"p{i}" for i in range(5, 17)]
JOIN_EVERY = 60
SEED = 1


def scenario(joiners: list[str], delay: int) -> simnet.Scenario:
    return simnet.Scenario(
        name=f"scale_{len(joiners)}_joins",
        universe=INITIAL + joiners,
        initial_members=INITIAL,
        sender="p1",
        roles={},
        script=[{"trigger": {"at_step": JOIN_EVERY * k},
                 "action": {"kind": "join", "process": pid}}
                for k, pid in enumerate(joiners)],
        max_delay_steps=delay,
        crypto="hmac",
    )


@dataclass
class JoinCost:
    msgs: Counter = field(default_factory=Counter)
    wire: Counter = field(default_factory=Counter)
    max_proofs: int = 0  # most reconfig proofs one STATE-UPDATE carried


class _CountingRun(simnet._Run):
    """A simulator run that counts each send for the join under way."""

    def __init__(self, scenario: simnet.Scenario, seed: int) -> None:
        super().__init__(scenario, seed)
        self.costs = [JoinCost() for _ in scenario.script]
        self._proofs: dict[bytes, int] = {}  # equal updates share one frame
        # a STATE-UPDATE is link-only, so decoding it checks no signature
        self._verifier = make_keyring(scenario.crypto).verifier()

    def _enqueue_send(self, frm: str, to: str, raw: bytes, meta: dict) -> None:
        if to in self.engines:
            cost = self.costs[min(self.t // JOIN_EVERY, len(self.costs) - 1)]
            kind = meta.get("msg")
            cost.msgs[kind] += 1
            cost.wire[kind] += len(raw)
            if kind == "STATE-UPDATE":
                if raw not in self._proofs:
                    self._proofs[raw] = len(decode(raw, self._verifier).msg.recv)
                cost.max_proofs = max(cost.max_proofs, self._proofs[raw])
        super()._enqueue_send(frm, to, raw, meta)


def report(delay: int, costs: list[JoinCost]) -> str:
    kinds = [k for k in KIND_NAMES.values() if any(c.msgs[k] for c in costs)]
    msgs = sum(sum(c.msgs.values()) for c in costs)
    wire = sum(sum(c.wire.values()) for c in costs)
    lines = [f"delay {delay}: {len(costs)} joins, {msgs} messages, {wire / 2**20:.2f} MiB"]
    head = f"  {'n':>4}" + "".join(f"{k:>16}" for k in kinds) + f"{'max proofs':>12}"
    for title, cell in (("messages", lambda c, k: f"{c.msgs[k]:>16}"),
                        ("KiB", lambda c, k: f"{c.wire[k] / 1024:>16.1f}")):
        lines += [f"  {title} per join, by kind", head]
        for n, c in enumerate(costs, start=len(INITIAL) + 1):
            lines.append(f"  {n:>4}" + "".join(cell(c, k) for k in kinds)
                         + f"{c.max_proofs:>12}")
    return "\n".join(lines)


@pytest.mark.parametrize("delay", [1, 4])
def test_state_update_does_not_grow_with_the_joins(delay):
    sc = scenario(JOINERS, delay)
    run = _CountingRun(sc, SEED)
    trace = run.run()
    print()
    print(report(delay, run.costs))
    assert not trace.truncated
    failed = [(v.prop, v.status) for v in checker.check(trace, sc) if v.status != checker.PASS]
    assert not failed
    quarter = len(run.costs) // 4
    first = max(c.max_proofs for c in run.costs[:quarter])
    last = max(c.max_proofs for c in run.costs[-quarter:])
    assert last <= first, f"STATE-UPDATE proofs: {last} late against {first} early"
