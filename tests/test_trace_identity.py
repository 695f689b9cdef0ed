"""Byte-identity of simulated runs, pinned per (scenario, crypto, seed).

Each digest is the sha256 of `simnet.run(scenario, seed).to_jsonl()`.  A
change that only makes the code faster or smaller must leave every digest
as it is; a change that alters behaviour or the trace schema on purpose
updates them and says why.  "default" runs the scenario's own scheme.
The digests below are of trace schema 2.  Wire version 2, under which
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
`forged_certificate`) kept their pins.
"""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from dbrb import simnet

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios"

PINNED = {
    ("churn_burst", "default", 0): "29a73e374d3c8e24cc8be81849d15cc4f83461eedb318695afb804f149a33300",
    ("churn_burst", "default", 7): "48866441239426325d4137ac78d3f2734fb98ba4f93094bafd468c85509968ab",
    ("churn_burst", "default", 42): "1110f09e242d20ce91bda2303569e0e16c69d4d8702ffea4b34c6fb6f017a4e9",
    ("churn_burst", "default", 1000): "17a878c83c3a7eb0d22593540263d363dbc6072beb42d9f2fce1262c3bf71d0e",
    ("churn_burst", "default", 1001): "6f21440f770b92fa20958c412532f202743d582e3f30c7bb1d4efff01059a416",
    ("churn_burst", "default", 1002): "0026d61d427e85636b1f17cdba5be8caab02c6d6f3c06da86dfe31515b206348",
    ("churn_burst", "default", 1003): "db8784aae3ac3df5a93919a8dbf503561374f0c32fa7303dd7b91150d9218be7",
    ("churn_burst", "default", 2000): "46e8055c5b97a5346116e3c96a56e9cfd3f15dec1edd6cd3322367d341c0ea7c",
    ("churn_burst", "default", 2001): "ebec819fcd23b988e5f7480e4d8209e5e4b8df42093d2b6b53cae5b83bf51e58",
    ("equivocating_n7", "default", 0): "4289bdbf41a0641aa8888f7617f6e0aaba951a88b23201f898b2e05e7f16b697",
    ("equivocating_n7", "default", 7): "3bcc08c2713b9f76c0c8be60d1a1246f5cdd4d877c6b96d029eaaa0b2eb71a3b",
    ("equivocating_n7", "default", 42): "51a97574e5b4ba7c09852a4689347cd80b5f60f8cd7eb34c142cd8b2757d3b94",
    ("equivocating_sender", "default", 0): "44f228358fb288c3366157a8dd6d3a4614c74dccae3acbd76fb931875a9cb897",
    ("equivocating_sender", "default", 7): "26d25263a8cb4557fe3553f91eb20053aa49e5248a9285c2ebd4fdab83a9a5ec",
    ("equivocating_sender", "default", 42): "765e2afdd6fa9cf02965c422dd99896b398ee48487ba23a9ba6e4a6f95c328d3",
    ("forged_certificate", "default", 0): "e2f208d42944c964c35c6562dc1acb6d076b0dff8c88530e9853e62e5cd89646",
    ("forged_certificate", "default", 7): "1d72470bcd982b4c1aa8e012697e978494717194dd02b53cffb93e5ea9159785",
    ("forged_certificate", "default", 42): "4a21f3056dcbb5ef4a34e9b5c0842da329b4ddbe25f8e5a60c5ea7a22e8e1e20",
    ("join_during_broadcast", "default", 0): "81767f88a53c4ae182f1b34049a458d623dd68a95be80ec0ed960aa68110b0ba",
    ("join_during_broadcast", "default", 7): "fd1e6d0304d9730564bc43ada24397d65a884f6face932246698c2f8f031e180",
    ("join_during_broadcast", "default", 42): "e67965cb091df35a646c708b2a13ec0aced7ceef6c594a4e318856cc7bba7bb9",
    ("leave_after_deliver", "default", 0): "ebec21b48de634430df5eacbc90b6a5dac3f4f1c3bb9a29c8f5e3c372eb19d87",
    ("leave_after_deliver", "default", 7): "7cddefe5c301813aa7e937c058b62f8f4531efb2dd6b563d74f635443430b8aa",
    ("leave_after_deliver", "default", 42): "52f0ad9cf59c4639c8a1d7eb9353173383782e856436666f6b23778e6000da1e",
    ("silent_f", "default", 0): "5dfb22e71b95ebd047ee92ce50dc6e1c83f59ceca12bcec3e97d2564405b2db1",
    ("silent_f", "default", 7): "b5145e06f7fec447ac41a16c655da8c243a85f00d3c8e3d4922077cd84694211",
    ("silent_f", "default", 42): "1747c877d5e18698c8a66d872ebf4f7cf78d915237502bb0fbedc3458be5cdc3",
    ("static4", "default", 0): "2e8422d4d61f122e4c8d86e0a452b7364a517078035002976b1801767a68c7b2",
    ("static4", "default", 7): "99be7833124cebc6ba20da6f7e0aec7c08ead8c25b314ceba9eda2a85d202956",
    ("static4", "default", 42): "cbc99101f94d0e51feb13a5211196002322b47ec748b5bb80d4e738c375c9ad9",
    ("equivocating_n7", "ed25519", 0): "4289bdbf41a0641aa8888f7617f6e0aaba951a88b23201f898b2e05e7f16b697",
    ("equivocating_n7", "ed25519", 7): "3bcc08c2713b9f76c0c8be60d1a1246f5cdd4d877c6b96d029eaaa0b2eb71a3b",
    ("equivocating_n7", "ed25519", 42): "51a97574e5b4ba7c09852a4689347cd80b5f60f8cd7eb34c142cd8b2757d3b94",
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
