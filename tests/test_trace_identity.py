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
varints, moved no pin; `WIRE_PINNED` pins the bytes it sends.
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
    ("forged_certificate", "default", 0): "3d95133f5c055b5844427b151045371d152f3e42f2e6d5ea47980618782e7721",
    ("forged_certificate", "default", 7): "6adafdd2cb058c56becb788055fdd3aa73f52188b524d7701cce6e798a1db813",
    ("forged_certificate", "default", 42): "08cb5e661e477f1ec42ea7c73ce6a86c0eb9918067992816d59a5d9d4ebf7a62",
    ("join_during_broadcast", "default", 0): "6c3f2896673e5fee47e5eb3f4f0979a83b636b7b7379df832b5ae763f28f2ce3",
    ("join_during_broadcast", "default", 7): "5ac4c129186c2acafe1cd742327e01793dc7adb2503d159ebe1401741714df17",
    ("join_during_broadcast", "default", 42): "de13ebf0e49162677c7bf4f26d364bfa1dd7145edbc4445efd0083d8c7c0bb26",
    ("leave_after_deliver", "default", 0): "e7ed5ded15c53387b4da6d0c349c4306edcec54f998d2d25b179cf5054496d97",
    ("leave_after_deliver", "default", 7): "3f79eff56a395d6d0a230c015b37c3b52f27497bdc056177c70d4cc612402035",
    ("leave_after_deliver", "default", 42): "0fb2fdbea48c8abff9119be44118e5c455cf8649edd5aba00090e6b9329664e0",
    ("silent_f", "default", 0): "ec2954afe1c3c6297ef8a2c736752c4e122d192225e6eb4685c9d898ee021ed9",
    ("silent_f", "default", 7): "d6907920fe2f9eecde4458212411978f6cded7546fa5cbac474107cd0acca1da",
    ("silent_f", "default", 42): "6d98a42471f95ccd1ed5333a22c8b3963e0a4182fca5696e15bff7f6c3250204",
    ("static4", "default", 0): "6e610b3ee069eb13418507909221a6e06e4527cdec1db442753608e3b1b1555f",
    ("static4", "default", 7): "81dbd33c0bd1a43c79718d597aa624e1189c244af85a983469cf51cece158ec7",
    ("static4", "default", 42): "d9c384fba808125a6d2c994bd33d167adf6c3f0710f07634eb8593b0165be70f",
    ("equivocating_n7", "ed25519", 0): "00166226ec9c5b9be284696edebd11c890aed450fed08587b23b105de3a3a976",
    ("equivocating_n7", "ed25519", 7): "ea5858a303fec2e69552dc9f0c869179aafc801368bc59dfdce14cc24187f190",
    ("equivocating_n7", "ed25519", 42): "89618b918d612222bcb0d53b93e2309a1503eb9cf9d8b11550927286d5edc2f8",
    ("static4", "ed25519", 0): "6e610b3ee069eb13418507909221a6e06e4527cdec1db442753608e3b1b1555f",
    ("static4", "ed25519", 7): "81dbd33c0bd1a43c79718d597aa624e1189c244af85a983469cf51cece158ec7",
    ("static4", "ed25519", 42): "d9c384fba808125a6d2c994bd33d167adf6c3f0710f07634eb8593b0165be70f",
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
