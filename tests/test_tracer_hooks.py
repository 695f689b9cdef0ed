"""The benchmark's tracer finds every entry point it wraps, and unwraps them.

`perfbench/tracer.py` wraps codec, crypto, engine and scan entry points
by name; a hook it cannot find is reported as missing and its layer goes
unmeasured.  Renaming an entry point must therefore fail here, not
silently in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from dbrb import adversary, checker, simnet

# modules the tracer finds in sys.modules, imported here for a run of this file alone
LOOKED_UP = (adversary, checker)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
SCENARIO = Path(__file__).resolve().parent.parent / "src" / "dbrb" / "scenarios" / "static4.json"


def load_tracer():
    spec = importlib.util.spec_from_file_location("dbrb_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave the benchmark directory as it is
    sys.modules[spec.name] = module  # its dataclasses resolve names through it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        del sys.modules[spec.name]
    return module


def bindings():
    """Every attribute of every dbrb module and of every class they define."""
    out = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "dbrb" or name.startswith("dbrb.")):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    out[(name, attr, member)] = inner
    return out


def test_every_hook_is_found_and_restored():
    tracing = load_tracer()
    before = bindings()
    tracer = tracing.Tracer()
    patches, missing = tracing.install(tracer)
    try:
        assert missing == []
        simnet.run(simnet.Scenario.load(SCENARIO), 0)
        recorded = {tracer.names[i] for i in tracer.name}
        assert {"simnet.run", "engine.step", "engine.repoll", "codec.decode", "codec.encode",
                "crypto.sign", "crypto.verify"} <= recorded
    finally:
        patches.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
