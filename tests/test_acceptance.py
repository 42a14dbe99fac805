"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
status lines.
"""

import io
import time
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial

from heavylight.cli import main
from heavylight.fixtures import load_fixture
from heavylight.pipeline import (
    closed_series,
    closed_series_numeric,
    genus1_light_chi_egf,
    genus1_stable_chi_egf,
    open_series,
    open_series_numeric,
)
from heavylight.oracle import oracle_compare
from heavylight.tables import (
    GOLDEN_DIR,
    compare_row_to_golden,
    numeric_value,
    parse_golden_numeric,
    parse_golden_pairs,
)
from heavylight.uvpoly import parse_uvpoly
from heavylight.verify import property_suite


def report(num, ok, label):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, label


def test_criterion_1_numeric_table_reproduction():
    start = time.time()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["closed-table", "--genus", "1", "--max-arity", "11", "--form", "numeric"])
    out = buf.getvalue()
    assert code == 0
    golden = parse_golden_numeric(GOLDEN_DIR / "genus1_numeric_table.txt")
    rows = {}
    for line in out.splitlines():
        fields = [f.strip() for f in line.split("|")]
        if len(fields) == 3 and fields[0] == "0":
            rows[int(fields[1])] = parse_uvpoly(fields[2])
    ok = True
    for n in range(1, 11):
        want, _ = golden[n]
        if rows.get(n) != want:
            ok = False
    # coefficient sum at n = 10 equals the total cohomology dimension
    ok = ok and rows[10].eval(1, 1) == 232076
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    report(1, ok, f"all-light numeric polynomials n=1..10, {elapsed:.1f}s")


def test_criterion_2_equivariant_table_reproduction():
    smooth0 = load_fixture("genus0_smooth")
    stable1 = load_fixture("genus1_stable")
    res = closed_series(stable1, smooth0, trunc=5)
    problems = []
    for row in parse_golden_pairs(GOLDEN_DIR / "genus1_poincare_table.txt"):
        problems += compare_row_to_golden(res.component(row.m, row.n), row)
    report(2, not problems, f"equivariant genus-1 table, {len(problems)} mismatches")


def test_criterion_3_weight0_table_reproduction():
    w0 = load_fixture("genus2_smooth_weight0")
    res = open_series(w0)
    problems = []
    for row in parse_golden_pairs(GOLDEN_DIR / "genus2_weight0_table.txt"):
        problems += compare_row_to_golden(res.component(row.m, row.n), row)
        num = numeric_value(res.component(row.m, row.n), row.m, row.n).constant_term()
        if num != row.numeric:
            problems.append(f"numeric ({row.m},{row.n})")
    report(3, not problems, f"weight-zero genus-2 table, {len(problems)} mismatches")


def test_criterion_4_chi_closed_form_cross_check():
    chi = genus1_light_chi_egf(11)
    numeric = load_fixture("genus1_stable_numeric")
    table = closed_series_numeric(numeric.data.rank1("x"))
    golden = parse_golden_numeric(GOLDEN_DIR / "genus1_numeric_table.txt")
    ok = True
    # hard gate: pipeline row sums at u = v = 1 for n <= 10
    for n in range(1, 11):
        want = (table[(0, n)] * factorial(n)).eval(1, 1)
        got = chi[n].constant_term() * factorial(n)
        if got != want:
            ok = False
    # duality-completed final row
    poly11, mode = golden[11]
    assert mode == "inferred"
    if chi[11].constant_term() * factorial(11) != poly11.eval(1, 1):
        ok = False
    report(4, ok, "closed-form Euler characteristics match row sums n=1..11")


def test_criterion_5_oracle_equivalence():
    start = time.time()
    smooth1 = load_fixture("genus1_smooth")
    res1 = open_series(smooth1, trunc=5)
    rows = oracle_compare(1, smooth1, res1, 5)
    w0 = load_fixture("genus2_smooth_weight0")
    res2 = open_series(w0, trunc=5)
    rows += oracle_compare(2, w0, res2, 5)
    elapsed = time.time() - start
    ok = all(okc for _, _, okc in rows) and elapsed < 120
    report(5, ok, f"stratification oracle equals the pipeline, {elapsed:.1f}s")


def test_criterion_6_numeric_consistency():
    smooth0 = load_fixture("genus0_smooth")
    smooth1 = load_fixture("genus1_smooth")
    stable1 = load_fixture("genus1_stable")
    ok = True

    res = open_series(smooth1, trunc=6)
    direct = open_series_numeric(smooth1.data.rank1("x"), 6)
    ok = ok and res.data.rank2() == direct

    resc = closed_series(stable1, smooth0, trunc=6)
    directc = closed_series_numeric(stable1.data.rank1("x"), 6)
    from heavylight.pipeline import stability_ok
    from heavylight.powerseries import FormalPS2

    masked = FormalPS2(
        ("x", "y"),
        {k: c for k, c in directc.coeffs.items() if stability_ok(1, k[0], k[1])},
        directc.order,
    )
    ok = ok and resc.data.rank2() == masked
    report(6, ok, "change-of-variables pipelines match equivariant ranks to degree 6")


def test_criterion_7_property_suites():
    checks = property_suite()
    failures = [name for name, okc, _ in checks if not okc]
    report(7, not failures, f"property suites ({len(checks)} checks): {failures}")


def test_criterion_8_asymptotic_behaviour():
    # The stated windows are asserted exactly as specified.  On the verified
    # series data the monotonicity clauses hold, but the numeric windows do
    # not open until n >= 10 (first clause) and n >= 12 (per-step factor),
    # so this criterion is red by a spec miscalibration; ROADMAP.md, "Baseline
    # at this re-anchor", records the values at n = 8..11 and at n = 12..16.
    light = genus1_light_chi_egf(11)
    stable = genus1_stable_chi_egf(11)
    ok = True
    normalized = {}
    for n in range(8, 12):
        chi = light[n].constant_term() * factorial(n)
        normalized[n] = Fraction(2) * chi / factorial(n - 1)
        if not (1 < normalized[n] < Fraction(3, 2)):
            ok = False
    for n in range(8, 11):
        if not normalized[n + 1] < normalized[n]:
            ok = False
    steps = []
    prev = None
    for n in range(8, 12):
        ratio = (stable[n].constant_term()) / (light[n].constant_term())
        if prev is not None:
            steps.append(ratio / prev)
        prev = ratio
    if not all(Fraction(13, 10) < s < Fraction(3, 2) for s in steps):
        ok = False
    detail = (
        "normalized light values "
        + ", ".join(f"n={n}: {float(v):.3f}" for n, v in normalized.items())
        + "; ratio steps "
        + ", ".join(f"{float(s):.3f}" for s in steps)
    )
    report(8, ok, f"finite-range growth behaviour; {detail}")
