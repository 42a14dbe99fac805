"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 1 to 7 are checks of `hl verify`: they report the rows of the one
`hl verify --suite all` run that the session shares (the `verify_all`
fixture in conftest.py) instead of computing them again.  Criteria 1 and 4
also read one golden row each.  Run with `pytest tests/test_acceptance.py -s`
to see the per-criterion status lines.
"""

from fractions import Fraction
from math import factorial

from heavylight.pipeline import genus1_light_chi_egf, genus1_stable_chi_egf
from heavylight.tables import GOLDEN_DIR, parse_golden_numeric


def report(num, ok, label):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, label


def verify_rows(verify_all, suite, name=None):
    """The rows of one suite of the shared `hl verify --suite all` run, or its row `name`."""
    return [row for row in verify_all.rows[suite] if name in (None, row[0])]


def report_rows(num, rows, label, ok=True):
    """Report criterion `num` from verify rows: it holds when there are some, each
    passed, and `ok`.  A failing row is listed with its detail."""
    failures = [f"{name} [{detail}]" for name, passed, detail in rows if not passed]
    label += f"; {len(rows) - len(failures)}/{len(rows)} verify rows pass"
    report(num, ok and bool(rows) and not failures, label + (f": {failures}" if failures else ""))


def test_criterion_1_numeric_table_reproduction(verify_all):
    rows = verify_rows(verify_all, "table_suite", "genus-1 numeric table")
    # coefficient sum at n = 10 equals the total cohomology dimension
    poly10, _ = parse_golden_numeric(GOLDEN_DIR / "genus1_numeric_table.txt")[10]
    report_rows(1, rows, "all-light numeric polynomials n=1..11", poly10.eval(1, 1) == 232076)


def test_criterion_2_equivariant_table_reproduction(verify_all):
    rows = verify_rows(verify_all, "table_suite", "genus-1 equivariant table")
    report_rows(2, rows, "equivariant genus-1 table")


def test_criterion_3_weight0_table_reproduction(verify_all):
    rows = verify_rows(verify_all, "table_suite", "genus-2 weight-zero table")
    report_rows(3, rows, "weight-zero genus-2 table, numeric values included")


def test_criterion_4_chi_closed_form_cross_check(verify_all):
    # the pipeline's row sums at u = v = 1 against the closed form, n <= 11
    name = "all-light Euler characteristics match the closed form"
    rows = verify_rows(verify_all, "fixture_suite", name)
    # duality-completed final row
    poly11, mode = parse_golden_numeric(GOLDEN_DIR / "genus1_numeric_table.txt")[11]
    assert mode == "inferred"
    ok = genus1_light_chi_egf(11)[11].constant_term() * factorial(11) == poly11.eval(1, 1)
    report_rows(4, rows, "closed-form Euler characteristics match row sums n=1..11", ok)


def test_criterion_5_oracle_equivalence(verify_all):
    # the time bound covers the whole verify run, whose last suite is the oracle's
    label = f"stratification oracle equals the pipeline, verify run {verify_all.elapsed:.1f}s"
    report_rows(5, verify_rows(verify_all, "oracle_suite"), label, verify_all.elapsed < 120)


def test_criterion_6_numeric_consistency(verify_all):
    label = "change-of-variables pipelines match equivariant ranks to degree 6"
    report_rows(6, verify_rows(verify_all, "corb_suite"), label)


def test_criterion_7_property_suites(verify_all):
    report_rows(7, verify_rows(verify_all, "property_suite"), "property suites")


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
