"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is importing dbrb, loading the workload's scenario and doing one
warm-up run and check on seed SETUP_SEED.  The seed is fixed so that
set-up does the same work whatever `--seed` the benchmark is given.
`run.py` starts this script a few times per run and reports the median
as `setup_s`.

    python3 perfbench/setup_probe.py WORKLOAD
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

from workloads import WORKLOADS  # noqa: E402  (imports nothing from dbrb)

SETUP_SEED = 0


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    from dbrb import checker, simnet

    sc = workload.scenario_obj()
    checker.check(simnet.run(sc, SETUP_SEED), sc)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
