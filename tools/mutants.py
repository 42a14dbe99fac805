"""Mutation gate: every mutant in MUTANTS must make the tests named with it fail.

    python tools/mutants.py

The runner copies src/, tools/, tests/, perfbench/ and pyproject.toml into one
temporary directory; the checkout is only read.  It first runs every named
test on the unmutated copy, which must pass.  Then, one mutant at a time, it
replaces `old` by `new` in the mutant's file, runs
`python -m pytest -x -q -p no:cacheprovider <tests>` with a timeout and
restores the file.  It prints one line per mutant, killed, survived, timeout
or error (pytest could not run the tests), and a last line "N of M killed".

Exit status 1 when any mutant is not killed (a timeout is not a kill), or
when the table does not match the tree: an `old` missing from its file or
occurring more than once, an `old` equal to its `new`, a repeated id or a
named test file that does not exist.  A change that rewrites a guarded line
therefore carries its mutant forward; tests/test_mutants.py checks the table
on every test run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tools", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 120

UVPOLY = "src/heavylight/uvpoly.py"
FIXTURES = "src/heavylight/fixtures.py"
TABLES = "src/heavylight/tables.py"
T_UVPOLY = "tests/test_uvpoly.py"
T_FIXTURES = "tests/test_fixtures_io.py"
T_TABLES = "tests/test_tables_cli.py"
GOLDEN_ERRORS = f"{T_TABLES}::test_golden_parse_errors_carry_position"
RENDER_DIGESTS = f"{T_TABLES}::test_rendered_tables_match_their_recorded_digests"

# (id, path, old, new, tests): `old` occurs exactly once in `path`, and the
# pytest node ids in `tests` are expected to fail once it is replaced by `new`.
MUTANTS = (
    ("int-matches-any-digit", UVPOLY, 'INT = "[0-9]+"', 'INT = r"\\d+"',
     (f"{T_UVPOLY}::test_literals_outside_the_ascii_grammar_are_refused",
      f"{T_UVPOLY}::test_integer_literals_are_ascii")),
    ("uvpoly-zero-term-kept", UVPOLY,
     'raise ValueError(f"zero coefficient in uv-poly term: {raw!r}")', "pass",
     (f"{T_UVPOLY}::test_grammar_round_trip",
      f"{T_FIXTURES}::test_zero_term_is_refused_not_dropped")),
    ("uvpoly-repeated-exponent-kept", UVPOLY,
     'raise ValueError(f"duplicate exponent pair in uv-poly: ({a},{b})")', "pass",
     (f"{T_UVPOLY}::test_grammar_round_trip",)),
    ("tpoly-zero-term-kept", UVPOLY,
     'raise ValueError(f"zero coefficient in t-poly term {term!r}")', "pass",
     (f"{T_UVPOLY}::test_tpoly_zero_terms_are_refused",)),
    ("tpoly-odd-power-kept", UVPOLY,
     'raise ValueError("odd power of t cannot be a uv-polynomial")', "pass",
     (f"{T_TABLES}::test_parse_tpoly",)),
    ("comment-not-stripped", FIXTURES, 'line = raw.split("#", 1)[0].strip()',
     "line = raw.strip()",
     (f"{T_FIXTURES}::test_comments_and_blank_lines", f"{GOLDEN_ERRORS}[pair-repeated]")),
    ("fixture-repeated-header-kept", FIXTURES,
     'raise ValueError(f"repeated header {key!r}")', "pass",
     (f"{T_FIXTURES}::test_repeated_header_error",)),
    ("fixture-header-sign-unchecked", FIXTURES,
     'raise ValueError(f"{key} must be nonnegative, got {headers[key]}")', "pass",
     (f"{T_FIXTURES}::test_parse_error_carries_line_number",)),
    ("golden-repeated-pair-kept", TABLES,
     'raise ValueError(f"repeated pair {lam_s} {mu_s}")', "pass",
     (f"{GOLDEN_ERRORS}[pair-repeated]",)),
    ("golden-repeated-numeric-kept", TABLES, 'raise ValueError("repeated numeric line")', "pass",
     (f"{GOLDEN_ERRORS}[numeric-repeated]",)),
    ("golden-repeated-row-kept", TABLES, 'raise ValueError(f"repeated row {n}")', "pass",
     (f"{GOLDEN_ERRORS}[numeric-row-repeated]",)),
    ("golden-mode-unchecked", TABLES, ' or word not in ("full", mode)', "",
     (f"{GOLDEN_ERRORS}[row-unknown-mode]", f"{GOLDEN_ERRORS}[numeric-row-pair-table-mode]")),
    ("csv-without-header", TABLES, 'lines = [sep.join(header)] if fmt == "csv" else []',
     "lines = []", (RENDER_DIGESTS,)),
    ("latex-factor-tags-from-2", TABLES, "enumerate((lam, mu), start=1)",
     "enumerate((lam, mu), start=2)", (RENDER_DIGESTS,)),
    ("render-not-truncated", TABLES, "data = result.data.truncate(max_arity)",
     "data = result.data", (RENDER_DIGESTS,)),
    ("cli-int-builtin", "src/heavylight/cli.py", 'value = parse_int(text, "value")',
     "value = int(text)", (f"{T_TABLES}::test_cli_usage_error_exit_code",)),
)


def table_problems(root: Path = ROOT) -> list:
    """Each way MUTANTS does not match the tree at `root`, as one line of text."""
    ids = [mutant[0] for mutant in MUTANTS]
    problems = [f"{i}: repeated id" for i in sorted(set(ids)) if ids.count(i) > 1]
    for mid, path, old, new, tests in MUTANTS:
        count = (root / path).read_text().count(old)
        if count != 1:
            problems.append(f"{mid}: `old` occurs {count} times in {path}")
        if old == new:
            problems.append(f"{mid}: `old` equals `new`")
        problems += [f"{mid}: no test file {t}" for t in tests
                     if not (root / t.split("::")[0]).is_file()]
    return problems


def run_pytest(work: Path, tests) -> int | None:
    """pytest's exit status on `tests` in `work`, or None when it times out."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    # no bytecode: a mutant of the same size restored within a second could
    # otherwise be served from a stale cache
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        done = subprocess.run(cmd, cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode


def main() -> int:
    problems = table_problems()
    if problems:
        print("\n".join(problems))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".work")
                shutil.copytree(ROOT / name, work / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, work / name)
        named = sorted({test for *_, tests in MUTANTS for test in tests})
        if run_pytest(work, named) != 0:
            print("the named tests do not all pass on the unmutated tree")
            return 1
        killed = 0
        for mid, path, old, new, tests in MUTANTS:
            target = work / path
            original = target.read_text()
            target.write_text(original.replace(old, new))
            try:
                status = run_pytest(work, tests)
            finally:
                target.write_text(original)
            verdict = {1: "killed", 0: "survived", None: "timeout"}.get(status, "error")
            killed += verdict == "killed"
            print(f"{verdict:<8}  {mid}", flush=True)
    print(f"{killed} of {len(MUTANTS)} killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
