"""Wide sweeps: every verdict on seeds 0..1999 of every scenario.

    PYTHONPATH=src python -m pytest -q sweeps

Outside tier-1, whose `testpaths` names only `tests/`.  Each sweep runs
`dbrb sweep --parallel`, which exits 1 on any Fail and 3 on any
Inconclusive verdict, and prints the failing seeds of each property.  The
leave scenario of `tests/test_scenarios.py` runs at two network delays.
On a 2-CPU host the job takes about three minutes: `churn_burst` about
70 s, each other sweep 3 to 21 s.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from dbrb import cli

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "src" / "dbrb" / "scenarios"
sys.path.insert(0, str(ROOT / "tests"))

from test_scenarios import leave_inflight  # noqa: E402

SEEDS = (0, 1999)
# Seeds that fail today, each with the ROADMAP item that will mend it.  A
# known failure that starts passing fails the sweep too (strict xfail).
KNOWN_FAILURES = {
    ("churn_burst", 351): "ROADMAP item 2: correct nodes echo PROPOSEs until the message cap",
}


def sweep(path: Path, lo: int, hi: int) -> int:
    return cli.main(["sweep", "--scenario", str(path), "--seeds", f"{lo}..{hi}", "--parallel"])


def ranges(name: str):
    """`SEEDS` of one scenario, split around its known failures."""
    lo, hi = SEEDS
    for seed in sorted(s for n, s in KNOWN_FAILURES if n == name):
        if lo < seed:
            yield lo, seed - 1
        lo = seed + 1
    if lo <= hi:
        yield lo, hi


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.json")))
def test_packaged_scenario_passes_every_verdict(name):
    for lo, hi in ranges(name):
        assert sweep(SCENARIOS / f"{name}.json", lo, hi) == cli.EXIT_OK, f"{name} {lo}..{hi}"


@pytest.mark.parametrize("delay", [4, 8])
def test_leave_scenario_passes_every_verdict(tmp_path, delay):
    path = tmp_path / f"leave_inflight_{delay}.json"
    path.write_text(json.dumps(leave_inflight(delay)))
    lo, hi = SEEDS
    assert sweep(path, lo, hi) == cli.EXIT_OK


@pytest.mark.parametrize("name,seed", [
    pytest.param(name, seed, marks=pytest.mark.xfail(strict=True, reason=reason))
    for (name, seed), reason in sorted(KNOWN_FAILURES.items())])
def test_known_failure(name, seed):
    assert sweep(SCENARIOS / f"{name}.json", seed, seed) == cli.EXIT_OK
