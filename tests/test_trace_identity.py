"""Byte-identity of simulated runs, pinned per (scenario, crypto, seed).

Each digest is the sha256 of `simnet.run(scenario, seed).to_jsonl()`.  A
change that only makes the code faster or smaller must leave every digest
as it is; a change that alters behaviour or the trace schema on purpose
updates them and says why.  "default" runs the scenario's own scheme.
The digests below are of trace schema 3.  Wire version 2, under which
a replayed link-only frame counts as the replayer's own message, moved
the `equivocating_n7` seed-42 runs, whose `replay_stale_view` role
replays such frames.  Wire version 3, which derives omega, the multicast
targets, the certificate's view and digest and a history's views rather
than sending them, moved no pin: traces hold no frame bytes.  A COMMIT
that reaches a suspended node, or one for a view newer than its own, is
parked rather than dropped; that moved the `equivocating_sender` runs,
in which COMMITs reach members that the join's install has suspended.
Wire version 4 sends each STATE-UPDATE once, from its author to each
target, where every target used to relay it.  That moved every run with
an install (`churn_burst`, `equivocating_n7`, `equivocating_sender`,
`join_during_broadcast`, `leave_after_deliver`): fewer sends shift every
later delay draw.  Runs with no install (`static4`, `silent_f`,
`forged_certificate`) kept their pins.  Trace schema 3 writes each view
once, as its change tokens, where schema 2 also wrote a short digest of
it and copied it between a note's `view_digest` and its `views`, and it
drops the `halt` note, which repeated the `LeaveComplete` callback.  That
moved every pin; every frame sent stayed byte-identical, and so did every
verdict of the pinned runs.  Wire version 5, whose lengths and counts are
varints, moved no pin; `WIRE_PINNED` pins the bytes it sends.  The
sender's certificate became its stored COMMIT, so the sender no longer
commits again when its own COMMIT comes back, and no member answers that
copy with a second DELIVER.  That moved every run with a correct sender
(`static4`, `silent_f`, `forged_certificate`, `join_during_broadcast`,
`leave_after_deliver`): fewer sends shift every later delay draw.  Every
verdict of those pins stayed Pass.  The runs with no correct sender kept
their pins: `churn_burst` broadcasts nothing, and the `equivocating_*`
senders are Byzantine.
"""

import dataclasses
import hashlib
from collections import Counter
from pathlib import Path

import pytest

from dbrb import simnet
from dbrb.engine import Flood, Send

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"

PINNED = {
    ("churn_burst", "default", 0): "eec0ad7abe05e088674225ff2a9729b71d8cd63376fd26aabf958ae5d66a1a38",
    ("churn_burst", "default", 7): "383ad830b82b1f30cdd62bf97cc53d816f476707f3a54d29ab6bfb99eecc5432",
    ("churn_burst", "default", 42): "901396834a5b0a8c492d286d90e79d9f2f5cea77752e16ec3a9457c03a07f723",
    ("churn_burst", "default", 1000): "e21fa173f8d08c88e7f29aa2e8dd9e7e13b615f8bdd8f4e4bc3602bb94fad5d1",
    ("churn_burst", "default", 1001): "eef3d6be947314f0adac36397d51741ad359e2358633b3209bfb31a30e755179",
    ("churn_burst", "default", 1002): "6352ebd64c7db1a5298eae6543c2136ff90d43863a7c2d916c81f6f7a406b17c",
    ("churn_burst", "default", 1003): "cf41d724413b7f94b519df1cb8f4c4d1f5df078627282815fe4994f4d1777e5b",
    ("churn_burst", "default", 2000): "8565daa3ba25edad57e5f02b8cc68e25e3693ef3fb4c7a5901f608ceee8a57a6",
    ("churn_burst", "default", 2001): "b5f39db0c80a9e803a017b2076f473ceb99d9c8fd847b9a13310320c322ac0aa",
    ("equivocating_n7", "default", 0): "00166226ec9c5b9be284696edebd11c890aed450fed08587b23b105de3a3a976",
    ("equivocating_n7", "default", 7): "ea5858a303fec2e69552dc9f0c869179aafc801368bc59dfdce14cc24187f190",
    ("equivocating_n7", "default", 42): "89618b918d612222bcb0d53b93e2309a1503eb9cf9d8b11550927286d5edc2f8",
    ("equivocating_sender", "default", 0): "c03659ff941dd985635dbf597396baebda1ecf1f4f21e8c86160e759d07f03f7",
    ("equivocating_sender", "default", 7): "ed22a9248c92d062b70f86abc52257e24509e9fdb0a785e13667bdd4e75cf70a",
    ("equivocating_sender", "default", 42): "c9d5742e908e8152e21096114593577d71421b57581c71f77f9ef091bdc2ab57",
    ("forged_certificate", "default", 0): "1688f5d91b37e052c3c8ecf6f8c63f2dca0f3349383b80dbffff030b5a368de8",
    ("forged_certificate", "default", 7): "cf5026fcec2bb08e31c3f85ecaaac0fd270caa6e43e1c67cbcfc1e7845a4cb0c",
    ("forged_certificate", "default", 42): "e26ab333e2d6f3bafc6d607870020a136058f7e7678b7b70643d27a94021d7ab",
    ("join_during_broadcast", "default", 0): "2e2056150c11a47569b428e18db3face33e1910c17f649f0568196d118c605f9",
    ("join_during_broadcast", "default", 7): "4df489324e4ed86aca84ea9a82b4a018b02ba9297dbff0d9b992b3731f88e19a",
    ("join_during_broadcast", "default", 42): "15059ce49f8a8065fca6a8b5ce96e554552ee6f2dd06087da8e1dfb40ef85daf",
    ("leave_after_deliver", "default", 0): "1ce33e0005705c947faa7aef305523b8b88cea70468d5a65993bf007ff570062",
    ("leave_after_deliver", "default", 7): "1581a0a775c1749a9521d32dfa302f5e1624d6a077215892bda8015feedf1bd6",
    ("leave_after_deliver", "default", 42): "96d98e65bcccf8e4f2a09199f7e4e760100d15ff518b3a031342cb7c32b226d9",
    ("silent_f", "default", 0): "2d56de0d7e2c3af2884e0c489817fb90ad429cff5764682b44df72233069b059",
    ("silent_f", "default", 7): "2413a816022e31ee8940d39bfc9f72f7da6b8789e41f41356994c21bbfd01ef0",
    ("silent_f", "default", 42): "ce3e95a7ac970a78a0f7e05997871b5cbde56da0e45d50b55b1c7f51f67b5360",
    ("static4", "default", 0): "3bb60af7c310f05fd761e88d7a54b98c704ced8522c3630991b2e22dc3c7775a",
    ("static4", "default", 7): "d311df75113f49e51fe6cb7fd319dc352ae5ae0e21139c511b25ee6fde6f2fd5",
    ("static4", "default", 42): "50d7e9266c4b27ae8667494223b5d88ef128b2741ac98f7aed37eb848fe8065f",
    ("equivocating_n7", "ed25519", 0): "00166226ec9c5b9be284696edebd11c890aed450fed08587b23b105de3a3a976",
    ("equivocating_n7", "ed25519", 7): "ea5858a303fec2e69552dc9f0c869179aafc801368bc59dfdce14cc24187f190",
    ("equivocating_n7", "ed25519", 42): "89618b918d612222bcb0d53b93e2309a1503eb9cf9d8b11550927286d5edc2f8",
    ("static4", "ed25519", 0): "3bb60af7c310f05fd761e88d7a54b98c704ced8522c3630991b2e22dc3c7775a",
    ("static4", "ed25519", 7): "d311df75113f49e51fe6cb7fd319dc352ae5ae0e21139c511b25ee6fde6f2fd5",
    ("static4", "ed25519", 42): "50d7e9266c4b27ae8667494223b5d88ef128b2741ac98f7aed37eb848fe8065f",
}


@pytest.mark.parametrize("name,crypto,seed", sorted(PINNED))
def test_trace_is_byte_identical(name, crypto, seed):
    sc = simnet.Scenario.load(SCENARIOS / f"{name}.json")
    if crypto != "default":
        sc = dataclasses.replace(sc, crypto=crypto)
    trace = simnet.run(sc, seed)
    assert hashlib.sha256(trace.to_jsonl().encode()).hexdigest() == PINNED[(name, crypto, seed)]


def test_every_packaged_scenario_is_pinned():
    packaged = {p.stem for p in SCENARIOS.glob("*.json")}
    assert {name for name, _, _ in PINNED} == packaged


# Bytes sent per kind in one run, summed from the Send and Flood actions
# of every node, a Flood once per recipient, as the benchmark sums
# `wire_kb_per_run`.  Traces hold no frame bytes, so these pins are what
# a change to the wire moves, on purpose.  Wire version 5, whose lengths
# and counts are varints, took churn_burst seed 0 from 333,478 bytes to
# 281,153 and equivocating_n7 seed 0 under ed25519 from 110,805 to 99,479.
WIRE_PINNED = {
    ("churn_burst", "hmac", 0): {
        "CONVERGED": 9636, "HISTORY": 104615, "HISTORY-REQUEST": 54, "INSTALL": 112182,
        "PROPOSE": 13620, "REC-CONFIRM": 641, "RECONFIG": 1641, "STATE-UPDATE": 38764,
    },
    ("equivocating_n7", "ed25519", 0): {
        "ACK": 687, "CONVERGED": 4760, "HISTORY": 24605, "HISTORY-REQUEST": 24,
        "INSTALL": 43350, "PREPARE": 11237, "PROPOSE": 6253, "REC-CONFIRM": 165,
        "RECONFIG": 840, "STATE-UPDATE": 7558,
    },
}


@pytest.mark.parametrize("name,crypto,seed", sorted(WIRE_PINNED))
def test_wire_bytes_by_kind_are_pinned(monkeypatch, name, crypto, seed):
    sc = dataclasses.replace(simnet.Scenario.load(SCENARIOS / f"{name}.json"), crypto=crypto)
    fanout = len(sc.universe) - 1
    sent = Counter()
    apply = simnet._Run._apply_actions

    def counted(run, actor, actions):
        for a in actions:
            if isinstance(a, Send):
                sent[a.meta["msg"]] += len(a.raw)
            elif isinstance(a, Flood):
                sent[a.meta["msg"]] += len(a.raw) * fanout
        apply(run, actor, actions)

    monkeypatch.setattr(simnet._Run, "_apply_actions", counted)
    simnet.run(sc, seed)
    assert dict(sent) == WIRE_PINNED[(name, crypto, seed)]
