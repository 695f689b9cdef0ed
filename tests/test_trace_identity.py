"""Byte-identity of simulated runs, pinned per (scenario, crypto, seed).

Each digest is the sha256 of `simnet.run(scenario, seed).to_jsonl()`.  A
change that only makes the code faster or smaller must leave every digest
as it is; a change that alters behaviour or the trace schema on purpose
updates them and says why.  "default" runs the scenario's own scheme.
The digests below are of trace schema 2.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from dbrb import simnet

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"

PINNED = {
    ("churn_burst", "default", 0): "ced9b778bb1ec3e4910256997ef2183705b68665223c26194d36514c6ed56197",
    ("churn_burst", "default", 7): "fe009aa98a29b645eecbbe4cca5173bd929db79d631a0347e9c7593f2a680dcf",
    ("churn_burst", "default", 42): "2ab97af815da3e912650c95f657b5d121347041267b208c65acf4f27187c2a0a",
    ("churn_burst", "default", 1000): "d648d62aeda96e6dd560a3f2e62fbfa988a7c3342d2402a7695869adbed4b5e8",
    ("churn_burst", "default", 1001): "ce36f1ec83cdd71aaf6d8cce12a822d1ca5d3043df7051472e32b86d43030355",
    ("churn_burst", "default", 1002): "53c40f33fa9f54705fcbf56802ebff43f3551681081e1f6ef386be4e6703c65c",
    ("churn_burst", "default", 1003): "44b6cb1bdb0a2e9c062a67c594e34972a359b05a434b409e3fdce98f36272122",
    ("equivocating_n7", "default", 0): "471ae672eb743efa5f0c5cabd1f30163ceb53e5756f00a7d0101171ff0069273",
    ("equivocating_n7", "default", 7): "878a07c137bc693a7786dc744247da47e86b2ba6dfd8233037b89f9d29dca05c",
    ("equivocating_n7", "default", 42): "1b50ace05000b85e76fa5aacc547402ab8e3031046d6e5fba5905acc9535c81c",
    ("equivocating_sender", "default", 0): "84ef67978e4e839ebbd80d26e59a9b0d099419da2ba982987844ecd5a1cff230",
    ("equivocating_sender", "default", 7): "08f60fce5bfa9f37cf4c8f560a70110c3c5169a63d7e1ec0f6a67d8500ce2b13",
    ("equivocating_sender", "default", 42): "e3d2977c5d9764f9e31569b9c7cb86cfcb42955b2bb5b7f9b8aeda693f164a45",
    ("forged_certificate", "default", 0): "e2f208d42944c964c35c6562dc1acb6d076b0dff8c88530e9853e62e5cd89646",
    ("forged_certificate", "default", 7): "1d72470bcd982b4c1aa8e012697e978494717194dd02b53cffb93e5ea9159785",
    ("forged_certificate", "default", 42): "4a21f3056dcbb5ef4a34e9b5c0842da329b4ddbe25f8e5a60c5ea7a22e8e1e20",
    ("join_during_broadcast", "default", 0): "5d68db912ce25f97110ad0215d541d8e3b0bee35bd5681e8c417d6f457ea2d21",
    ("join_during_broadcast", "default", 7): "864ca274e5be3ffd5dd4df552b03420432c9fc15764b74943a40e0adb899dd71",
    ("join_during_broadcast", "default", 42): "6476a6e75ec5422d6ff17412a4932910bea9d49426348add147ddb580bd00b66",
    ("leave_after_deliver", "default", 0): "1c12e659d9e3f3a595c57bca45df0cfda461879a9f7780c7c61f5dbae07b37f8",
    ("leave_after_deliver", "default", 7): "49db41dee4c663aca2a61f9059b2f9337824978ccd9b86907ab3fa8ca1d7a85a",
    ("leave_after_deliver", "default", 42): "a70fb6d3684ab77295a2971436e0c5a1e7a5b21dd937cd91cf9766bc92694762",
    ("silent_f", "default", 0): "5dfb22e71b95ebd047ee92ce50dc6e1c83f59ceca12bcec3e97d2564405b2db1",
    ("silent_f", "default", 7): "b5145e06f7fec447ac41a16c655da8c243a85f00d3c8e3d4922077cd84694211",
    ("silent_f", "default", 42): "1747c877d5e18698c8a66d872ebf4f7cf78d915237502bb0fbedc3458be5cdc3",
    ("static4", "default", 0): "2e8422d4d61f122e4c8d86e0a452b7364a517078035002976b1801767a68c7b2",
    ("static4", "default", 7): "99be7833124cebc6ba20da6f7e0aec7c08ead8c25b314ceba9eda2a85d202956",
    ("static4", "default", 42): "cbc99101f94d0e51feb13a5211196002322b47ec748b5bb80d4e738c375c9ad9",
    ("equivocating_n7", "ed25519", 0): "471ae672eb743efa5f0c5cabd1f30163ceb53e5756f00a7d0101171ff0069273",
    ("equivocating_n7", "ed25519", 7): "878a07c137bc693a7786dc744247da47e86b2ba6dfd8233037b89f9d29dca05c",
    ("equivocating_n7", "ed25519", 42): "1b50ace05000b85e76fa5aacc547402ab8e3031046d6e5fba5905acc9535c81c",
    ("static4", "ed25519", 0): "2e8422d4d61f122e4c8d86e0a452b7364a517078035002976b1801767a68c7b2",
    ("static4", "ed25519", 7): "99be7833124cebc6ba20da6f7e0aec7c08ead8c25b314ceba9eda2a85d202956",
    ("static4", "ed25519", 42): "cbc99101f94d0e51feb13a5211196002322b47ec748b5bb80d4e738c375c9ad9",
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
