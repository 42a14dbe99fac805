"""The benchmark's bindings into the package still resolve.

`perfbench/tracing.py` wraps each function its TARGETS table names and reads
the `cache_info()` of each memoised function its CACHES table names, and the
benchmark's modules read other names of the package directly (for example
`tables.compare_row_to_golden` in its workloads); a rename or deletion in
src/ that left one dangling would break the benchmark.  Its files are only
read: tracing.py is run in a fresh namespace and the others are parsed with
`ast`, so nothing under perfbench/ is imported or written.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_every_traced_cache_resolves_to_a_memoised_package_function():
    tracing = load_tracing()
    assert tracing.CACHES
    for name, (module_name, attr) in tracing.CACHES.items():
        cached = getattr(importlib.import_module(module_name), attr, None)
        assert cached is not None and callable(getattr(cached, "cache_info", None)), name
        assert cached.__module__ == module_name, name


def _member(module, name):
    """module.name, importing it first if it is a submodule; None if missing."""
    if not hasattr(module, name):
        try:
            importlib.import_module(f"{module.__name__}.{name}")
        except ModuleNotFoundError:
            pass
    return getattr(module, name, None)


def _module_resolver(path: Path, tree):
    """A function from an expression of the file to the package module it
    names, or None.  Modules are bound to names by `import heavylight...`,
    `from heavylight... import x`, `x = sys.modules["heavylight..."]` and
    `x = y.z` with y bound; any name imported from the package must exist."""
    bound = {}

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value)
            value = owner and _member(owner, node.attr)
            return value if isinstance(value, types.ModuleType) else None
        if isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules":
            name = getattr(node.slice, "value", None)
            if isinstance(name, str) and name.split(".")[0] == "heavylight":
                return importlib.import_module(name)
        return None

    for node in ast.walk(tree):  # breadth first: module-level bindings come first
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "heavylight":
                    module = importlib.import_module(alias.name)
                    # `import heavylight.cli` binds the package, `... as x` the module
                    bound[alias.asname or "heavylight"] = (
                        module if alias.asname else sys.modules["heavylight"]
                    )
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "heavylight":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = _member(module, alias.name)
                assert value is not None, f"{path.name}:{node.lineno}: {node.module}.{alias.name}"
                if isinstance(value, types.ModuleType):
                    bound[alias.asname or alias.name] = value
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            module = resolve(node.value)
            if module is not None:
                bound[node.targets[0].id] = module
    return resolve


def test_every_package_name_the_benchmark_reads_exists():
    read = set()  # the files with a package module's attribute read
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        resolve = _module_resolver(path, tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                module = resolve(node.value)
                if module is not None:
                    where = f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                    assert _member(module, node.attr) is not None, where
                    read.add(path.stem)
    # the bindings of the tracer's load counter, the workloads and offdiag were found
    assert {"tracing", "workloads", "offdiag"} <= read
