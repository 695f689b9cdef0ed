"""The benchmark's workloads: a packaged scenario, field overrides, seed lists.

Why each workload exists, and which layers it should move, is written
down in README.md next to this file.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

# Seed lists of different --seed values never overlap.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str               # packaged scenario under src/dbrb/scenarios
    overrides: dict             # Scenario fields replaced after loading
    seeds_per_sweep: int        # runs in one sweep of the untraced benchmark
    traced_seeds: int           # leading seeds of that list the traced run uses

    def seeds(self, seed: int) -> list[int]:
        base = seed * SEED_STRIDE
        return list(range(base, base + self.seeds_per_sweep))

    def scenario_obj(self):
        """Load the packaged scenario and apply this workload's overrides."""
        from importlib import resources

        from dbrb.simnet import Scenario

        sc = Scenario.load(resources.files("dbrb") / "scenarios" / f"{self.scenario}.json")
        sc = dataclasses.replace(sc, **self.overrides)
        sc.validate()
        return sc


# churn_burst runs send 1.5k to 3.4k messages; its packaged cap is 300k.
# Some seeds (4107 and 7123 among them) never quiesce: correct nodes echo
# PROPOSE messages until the cap truncates the run, which the gate counts
# as a failure.  The lower cap makes such a run fail within seconds and
# tens of megabytes, not half a minute and half a gigabyte.
CHURN_MAX_MESSAGES = 30_000

WORKLOADS = {
    w.name: w for w in (
        Workload("churn", "churn_burst",
                 {"crypto": "hmac", "max_messages": CHURN_MAX_MESSAGES}, 40, 8),
        Workload("byz_broadcast_ed25519", "equivocating_n7", {"crypto": "ed25519"}, 30, 6),
        Workload("static_small", "static4", {"crypto": "hmac"}, 400, 100),
    )
}
