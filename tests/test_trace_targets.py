"""The benchmark's span targets still name functions of the package.

`perfbench/tracing.py` wraps each function its TARGETS table names; a
rename or deletion in src/ that left an entry dangling would break the
benchmark's traced runs.  The module is read from the checkout and run in a
fresh namespace, so nothing is written under perfbench/.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_trace_target_resolves_to_a_package_function():
    tracing = load_tracing()
    assert tracing.TARGETS
    for name, (module_name, attr) in tracing.TARGETS.items():
        importlib.import_module(module_name)
        found = tracing._resolve(module_name, attr)
        assert found, name
        assert all(callable(f) and f.__module__.startswith("heavylight.") for f in found), name
