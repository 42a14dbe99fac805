"""The four workloads, each run once per fresh interpreter by rep.py.

Every workload returns a list of (operation, ok) checks; a check that is
not ok is a failed operation, never a fast one.

* closed10   - `hl closed-table --genus 1 --max-arity 10 --form poincare`
               in process: the paper's headline table.  Checked by the
               sha256 of stdout and by the golden rows of arity <= 5.
* verify_all - `hl verify --suite all` in process: the developers' gate.
               Each of its checks is one operation.
* regen      - `tools/generate_fixtures.py --phase all` on a copy of src/
               and tools/ with every .hlf removed, so each file compared
               was written by this run.  Each file is one operation.
* offdiag    - seeded series with off-diagonal rational coefficients
               (see offdiag.py).  Each identity is one operation.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

WORKLOADS = ("closed10", "verify_all", "regen", "offdiag")
SEEDED = ("offdiag",)

CLOSED10_ARGV = [
    "closed-table", "--genus", "1", "--max-arity", "10",
    "--basis", "schur", "--form", "poincare", "--format", "text",
]
GOLDEN_MAX_ARITY = 5
VERIFY_ARGV = ["verify", "--suite", "all"]
VERIFY_CHECKS = 72

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def expected() -> dict:
    """Recorded digests of the correct outputs."""
    return json.loads(EXPECTED.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def closed10() -> list:
    from heavylight import cli, tables

    results = []
    compute = cli.closed_series

    def keep(*args, **kwargs):
        results.append(compute(*args, **kwargs))
        return results[-1]

    cli.closed_series = keep
    try:
        rc, out = _run_cli(cli, CLOSED10_ARGV)
    finally:
        cli.closed_series = compute
    digest_ok = rc == 0 and sha256(out.encode()) == expected()["closed10_stdout_sha256"]
    checks = [("stdout sha256", digest_ok)]
    golden = tables.parse_golden_pairs(tables.GOLDEN_DIR / "genus1_poincare_table.txt")
    for row in golden:
        if row.m + row.n > GOLDEN_MAX_ARITY:
            continue
        ok = len(results) == 1 and not tables.compare_row_to_golden(
            results[0].component(row.m, row.n), row
        )
        checks.append((f"golden row ({row.m},{row.n})", ok))
    return checks


def verify_all() -> list:
    from heavylight import cli

    rc, out = _run_cli(cli, VERIFY_ARGV)
    checks = [
        (line[4:].strip(), line.startswith("PASS"))
        for line in out.splitlines()
        if line.startswith(("PASS", "FAIL"))
    ]
    checks += [("missing check", False)] * (VERIFY_CHECKS - len(checks))
    if rc != 0 and all(ok for _, ok in checks):
        checks.append(("exit code", False))
    return checks


def load_generator(tree: Path):
    """Import tools/generate_fixtures.py of `tree` without running it."""
    path = tree / "tools" / "generate_fixtures.py"
    spec = importlib.util.spec_from_file_location("generate_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def regen(generator, tree: Path) -> list:
    argv = sys.argv
    sys.argv = [generator.__file__, "--phase", "all"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            generator.main()
    finally:
        sys.argv = argv
    return check_regen(tree)


def check_regen(tree: Path) -> list:
    """Compare every .hlf under `tree` with the committed file's digest."""
    written = {p.relative_to(tree).as_posix(): p for p in tree.rglob("*.hlf")}
    checks = []
    for rel, digest in expected()["regen_sha256"].items():
        path = written.pop(rel, None)
        checks.append((rel, path is not None and sha256(path.read_bytes()) == digest))
    checks += [(f"unexpected {rel}", False) for rel in sorted(written)]
    return checks
