"""What `import heavylight.cli` and loading the fixture generator add to a fresh
interpreter: the package builds its records without `dataclasses`, so neither
import loads `dataclasses` or the modules it imports (`inspect` and, through it,
`ast`, `dis` and `tokenize`).  Each probe takes the difference of `sys.modules`
before and after its import, so a module that the interpreter loads at startup
is not counted.  And the reference power-series ring imports package code from
uvpoly.py only, never from the series core it is checked against; neither ring
names the running-sum slot or the monomial table, both private to uvpoly.py."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
UNWANTED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
PROBE = """import importlib.util, sys
before = set(sys.modules)
{load}
print("\\n".join(sorted(set(sys.modules) - before)))
"""
GENERATOR = ROOT / "tools" / "generate_fixtures.py"
LOADS = {
    "cli": "import heavylight.cli",
    "generator": (f"spec = importlib.util.spec_from_file_location('gen', {str(GENERATOR)!r})\n"
                  "spec.loader.exec_module(importlib.util.module_from_spec(spec))"),
}


@pytest.mark.parametrize("load", LOADS)
def test_an_import_loads_no_dataclasses_machinery(load):
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    added = subprocess.run(
        [sys.executable, "-c", PROBE.format(load=LOADS[load])], cwd=ROOT, check=True,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert "heavylight.fixtures" in added
    assert UNWANTED.isdisjoint(added), added


def test_the_power_series_ring_imports_package_code_from_uvpoly_only():
    tree = ast.parse((ROOT / "src" / "heavylight" / "powerseries.py").read_text())
    relative = {(node.level, node.module) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level}
    absolute = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    absolute |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and not node.level}
    assert relative == {(1, "uvpoly")}
    assert not any(name.split(".")[0] == "heavylight" for name in absolute), absolute


@pytest.mark.parametrize("module", ["symseries", "powerseries"])
def test_the_series_rings_leave_the_running_sum_format_to_uvpoly(module):
    tree = ast.parse((ROOT / "src" / "heavylight" / f"{module}.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert names.isdisjoint({"_slot", "MONOMIALS"}), names & {"_slot", "MONOMIALS"}
