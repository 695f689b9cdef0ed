"""Byte-identity of simulated runs, pinned per (scenario, crypto, seed).

Each digest is the sha256 of `simnet.run(scenario, seed).to_jsonl()`.  A
change that only makes the code faster or smaller must leave every digest
as it is; a change that alters behaviour or the trace schema on purpose
updates them and says why.  "default" runs the scenario's own scheme.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from dbrb import simnet

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"

PINNED = {
    ("churn_burst", "default", 0): "53013b68c2922d08a7ae6065ca7ef04cb8d555d438932c5478527f0787a2cc25",
    ("churn_burst", "default", 7): "8ffd8d069af402c4323eae163451390dcb289627719e189d9a09dc259b3af0e1",
    ("churn_burst", "default", 42): "9c6234e0dac39f295a9dcc12445ec41cb4bb33323ecec65511ba75c9a7bbc3db",
    ("equivocating_n7", "default", 0): "c1a1b30dc8566426d0f34e60de330e9f8babb1d295c8d2e665ce43f2bd241e97",
    ("equivocating_n7", "default", 7): "9066a0196ae013fb5ac87d4d768af801582be2c8eb2c49968df5eaa5eadb3e13",
    ("equivocating_n7", "default", 42): "9a3abadcc8a5cce263dece04bfd9cb07402e47c378d769b7ce3f427a93398c2e",
    ("equivocating_sender", "default", 0): "444d565ca0e214e41270cb55956876aa5e873703d5cfa7a47e2a98b31de67233",
    ("equivocating_sender", "default", 7): "05ae967287f4ee8da1f233191b9a01e60c5f0f52fe9ac37f6f07112211a670bf",
    ("equivocating_sender", "default", 42): "f41af308b33484c653b9c23fd0b410cf8bb1ee34910b08a9345eb26fc02afc41",
    ("forged_certificate", "default", 0): "0b09cef1911d5d8fecce648753ef4b364cabb33bd064a780a77e0f2f41835d22",
    ("forged_certificate", "default", 7): "85a820fc932fa62191d524356612769fdcc00d9597bc99c5916ebdf3ac904fae",
    ("forged_certificate", "default", 42): "5fb83421a4a6d7580743c624fdc57a2cb1d3e7cddec2d37ef6ed423368957369",
    ("join_during_broadcast", "default", 0): "7644826c042c17ea9236b54a6e51a6e7f0ebd0636605ea385ac0f89011f52cf9",
    ("join_during_broadcast", "default", 7): "1a472ae0223a1ac571108b873165422402f77be18f34bf9edd03596d91704e87",
    ("join_during_broadcast", "default", 42): "4722e0219afdbd6411b5c68645fa48d07b445ee0ee1c2e278833b960827ed4d3",
    ("leave_after_deliver", "default", 0): "7e0ce9d1a02914e5b28d6e5a7e85fc1c1307fb399bd3d354e5431c4727762e82",
    ("leave_after_deliver", "default", 7): "4c01cad900b9c3dbda8d70ca6916bda588ad3a0c9073a24ba1c2d2245cd033ba",
    ("leave_after_deliver", "default", 42): "0232c50a1403f4f212c706f6eb602fe42198e3c032d27204220c74e354e9dd0f",
    ("silent_f", "default", 0): "5f90121958a87d57f723cb01aa40d275e88e592a45805d668b5bc79191cd3975",
    ("silent_f", "default", 7): "33d8e8ed20e234901872974a30168900333b9269bbd260d6bccb1c92f14dde4e",
    ("silent_f", "default", 42): "225c3d085f173729549457c187af750a9d295a415e3eb6f04372b856aea9cead",
    ("static4", "default", 0): "b9e066bc1d6009911a630f4a6852338482da3ea077d762f9926ab13b79fc1fdf",
    ("static4", "default", 7): "33d3fa5a0e7ace371da6e67dbcea624f252f5fc47190e56a8e0b243de771c8b0",
    ("static4", "default", 42): "ed34969a80383014bbb82f2fbb70e4bba480e4e133c8111e676a4a72c51b1de2",
    ("equivocating_n7", "ed25519", 0): "c1a1b30dc8566426d0f34e60de330e9f8babb1d295c8d2e665ce43f2bd241e97",
    ("equivocating_n7", "ed25519", 7): "9066a0196ae013fb5ac87d4d768af801582be2c8eb2c49968df5eaa5eadb3e13",
    ("equivocating_n7", "ed25519", 42): "9a3abadcc8a5cce263dece04bfd9cb07402e47c378d769b7ce3f427a93398c2e",
    ("static4", "ed25519", 0): "b9e066bc1d6009911a630f4a6852338482da3ea077d762f9926ab13b79fc1fdf",
    ("static4", "ed25519", 7): "33d3fa5a0e7ace371da6e67dbcea624f252f5fc47190e56a8e0b243de771c8b0",
    ("static4", "ed25519", 42): "ed34969a80383014bbb82f2fbb70e4bba480e4e133c8111e676a4a72c51b1de2",
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
