"""Verification suites run by `hl verify` and reused by the test suite.

Each check returns (name, ok, detail); suites return lists of checks.
Randomized checks use a fixed seed so runs are reproducible.
"""

import random
from fractions import Fraction
from math import factorial

from .bisymseries import BiSymSeries, coproduct
from .fixtures import SHIPPED, SeriesFixture, load_fixture
from .oracle import oracle_compare, stirling2, stirling2_recurrence
from .partitions import gen_partitions, mn_character, z_of
from .pipeline import (
    GENUS1_PURE_ARITY,
    closed_series,
    closed_series_numeric,
    genus0_numeric_closed_form,
    genus1_light_chi_egf,
    legendre_check,
    open_series,
    open_series_numeric,
    slice_n1,
    stability_ok,
    tail_free_series,
)
from .powerseries import FormalPS2
from .symseries import SymSeries
from .tables import (
    GOLDEN_DIR,
    compare_row_to_golden,
    numeric_value,
    parse_golden_numeric,
    parse_golden_pairs,
)
from .uvpoly import UVPoly

SEED = 0x484C
CASES = 50  # random cases per plethysm axiom
CORB_ARITY = 6  # total arity of the numeric change-of-variables comparison
ORACLE_ARITY = 5  # the brute-force enumeration grows quickly with the arity


def _random_sparse(rng, trunc, max_terms=3, zero_constant=True):
    """A small random series: few partition keys, small coefficients."""
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        n = rng.randint(1 if zero_constant else 0, trunc)
        parts = gen_partitions(n)
        lam = parts[rng.randrange(len(parts))]
        c = Fraction(rng.choice([-2, -1, 1, 1, 2]), rng.choice([1, 1, 2]))
        if rng.random() < 0.5:
            poly = UVPoly.monomial(rng.randint(0, 1), rng.randint(0, 1), c)
        else:
            poly = UVPoly.const(c)
        coeffs[lam] = coeffs.get(lam, UVPoly.zero()) + poly
    return SymSeries(coeffs, trunc)


def _random_sparse_bi(rng, trunc, max_terms=3, zero_constant=True):
    f = _random_sparse(rng, trunc, max_terms, zero_constant=zero_constant)
    g = _random_sparse(rng, trunc, max_terms, zero_constant=True)
    out = BiSymSeries.inject(f, 1) + BiSymSeries.inject(g, 2)
    if rng.random() < 0.5:
        # include a key with both factors nonempty
        h = _random_sparse(rng, trunc - 1, 1, zero_constant=True)
        out = out + BiSymSeries.inject(h, 1) * BiSymSeries.power_sum(1, 2, trunc)
    return out


def _genus0_gates(smooth0: SeriesFixture, stable0: SeriesFixture) -> tuple:
    """Genus-0 inverse pair at arity 8; rank of d(smooth)/dp_1 against its closed form."""
    closed_form = genus0_numeric_closed_form(smooth0.trunc - 1)
    deriv_rank = smooth0.data.d_dp1().rank1("y")
    rank_ok = all(deriv_rank[k] == -closed_form[k] for k in range(2, smooth0.trunc))
    return legendre_check(smooth0, stable0, trunc=8), rank_ok


def property_suite() -> list:
    rng = random.Random(SEED)
    checks = []

    ok = True
    for _ in range(CASES):
        f = _random_sparse(rng, 6)
        g = _random_sparse(rng, 6)
        h = _random_sparse(rng, 6)
        if not ((f.plethysm(g)).plethysm(h) == f.plethysm(g.plethysm(h))):
            ok = False
            break
    checks.append(("plethysm associativity (random sparse, arity <= 6)", ok, f"{CASES} cases"))

    ok = True
    for _ in range(CASES):
        f1 = _random_sparse(rng, 6)
        f2 = _random_sparse(rng, 6)
        g = _random_sparse(rng, 6)
        lhs = (f1 * f2).plethysm(g)
        if lhs != f1.plethysm(g) * f2.plethysm(g):
            ok = False
            break
        k = rng.randint(1, 4)
        pk = SymSeries.power_sum(k, 6)
        if pk.plethysm(f1 * f2) != pk.plethysm(f1) * pk.plethysm(f2):
            ok = False
            break
    checks.append(("plethysm ring-map axioms (random sparse)", ok, f"{CASES} cases"))

    ok = True
    for _ in range(10):
        f = SymSeries.power_sum(1, 8) + _random_sparse_min2(rng, 8)
        g = f.pleth_inverse()
        p1 = SymSeries.power_sum(1, 8)
        if f.plethysm(g) != p1 or g.plethysm(f) != p1:
            ok = False
            break
    checks.append(("plethystic inverse round trip (arity 8)", ok, "10 cases"))

    ok = True
    for _ in range(10):
        f = _random_sparse(rng, 8)
        if f.exp_series().log_series() != f:
            ok = False
            break
        b = BiSymSeries.inject(_random_sparse(rng, 8, max_terms=2), 2) + BiSymSeries.inject(
            _random_sparse(rng, 8, max_terms=2), 1
        ) * BiSymSeries.power_sum(1, 2, 8)
        if b.exp2().log2() != b:
            ok = False
            break
    checks.append(("exp/log round trips (arity 8)", ok, "10 cases"))

    ok = True
    detail = []
    for n in range(8):
        parts = gen_partitions(n)
        for mu in parts:
            for nu in parts:
                s = sum(mn_character(l, mu) * mn_character(l, nu) for l in parts)
                want = z_of(mu) if mu == nu else 0
                if s != want:
                    ok = False
                    detail.append(f"{mu},{nu}")
        if not all(mn_character(l, (1,) * n) > 0 for l in parts):
            ok = False
        if sum(mn_character(l, (1,) * n) ** 2 for l in parts) != factorial(n):
            ok = False
    checks.append(("character orthogonality and dimensions (n <= 7)", ok, ";".join(detail)))

    smooth0 = load_fixture("genus0_smooth")
    stable0 = load_fixture("genus0_stable")
    pair_ok, rank_ok = _genus0_gates(smooth0, stable0)
    truncations = f"truncations {smooth0.trunc}/{stable0.trunc}"
    checks.append(("genus-0 inverse pair (arity 8)", pair_ok, truncations))
    checks.append(("genus-0 fixture rank matches the closed form", rank_ok, ""))

    stable1 = load_fixture("genus1_stable")
    res = closed_series(stable1, smooth0)
    ok = True
    detail = ""
    for (lam, mu), c in res.data.coeffs.items():
        m, n = sum(lam), sum(mu)
        if m + n > GENUS1_PURE_ARITY:
            continue
        if not c.is_palindromic(m + n):
            ok = False
            detail = f"({m},{n}) key {(lam, mu)}"
            break
    name = f"purity and palindromy of genus-1 closed outputs (m+n <= {GENUS1_PURE_ARITY})"
    checks.append((name, ok, detail))

    ok = True
    smooth1 = load_fixture("genus1_smooth")
    res_open1 = open_series(smooth1)
    results = (
        (1, res),
        (2, open_series(load_fixture("genus2_smooth_weight0"))),
        (1, res_open1),
        (0, open_series(smooth0, trunc=6)),
    )
    for g, result in results:
        for total in range(result.data.trunc + 1):
            for m in range(total + 1):
                n = total - m
                if not stability_ok(g, m, n) and result.component(m, n).coeffs:
                    ok = False
    checks.append(("stability support vanishing", ok, ""))

    # slice consistency: single light marking from the derivative formula
    ok = True
    for fx, result in ((stable1, res), (smooth1, res_open1)):
        for m in range(0, min(4, fx.trunc - 1) + 1):
            want = result.component(m, 1)
            got = slice_n1(fx, m)
            if not stability_ok(fx.genus, m, 1):
                got = BiSymSeries.zero(got.trunc)
            if got != want:
                ok = False
    checks.append(("single-light-marking slice matches the pipeline", ok, ""))

    # tail-free intermediate consistency: coproduct(stable) = core o (p1 + d stable0 / dp1)
    t = min(stable1.trunc, stable0.trunc - 1, 6)
    core = tail_free_series(stable1, smooth0, trunc=t)
    inner = BiSymSeries.power_sum(1, 2, t) + BiSymSeries.inject(
        stable0.data.d_dp1().truncate(t), 2
    )
    ok = core.pleth2(inner) == coproduct(stable1.data.truncate(t))
    checks.append(("tail-free factorization of the stable coproduct", ok, f"arity {t}"))

    # weight-zero specialization commutes with the open pipeline
    t = 5
    spec_first = open_series(
        SeriesFixture(
            name=smooth1.name,
            genus=smooth1.genus,
            variant="weight0",
            trunc=t,
            data=smooth1.data.truncate(t).weight_zero(),
        )
    )
    spec_last = open_series(smooth1, trunc=t)
    ok = spec_first.data == spec_last.data.weight_zero()
    checks.append(("weight-zero specialization commutes with the pipeline", ok, f"arity {t}"))

    # rank2 carries factor-2 plethysm into composition in y
    ok = True
    for _ in range(10):
        f = _random_sparse_bi(rng, 6)
        g = _random_sparse_bi(rng, 6)
        lhs = f.pleth2(g).rank2()
        rf, rg = f.rank2(), g.rank2()
        acc = FormalPS2.zero(("x", "y"), 6)
        xv = FormalPS2.variable(("x", "y"), 1, 6)
        for (i, j), c in rf.coeffs.items():
            term = FormalPS2(("x", "y"), {(0, 0): c}, 6)
            for _k in range(i):
                term = term * xv
            for _k in range(j):
                term = term * rg
            acc = acc + term
        if acc != lhs:
            ok = False
            break
    checks.append(("rank carries plethysm into composition", ok, "10 cases"))

    # coproduct is a cocommutative ring map
    ok = True
    for _ in range(10):
        f = _random_sparse(rng, 6, zero_constant=False)
        g = _random_sparse(rng, 6, zero_constant=False)
        if coproduct(f * g) != coproduct(f) * coproduct(g):
            ok = False
            break
        cf = coproduct(f)
        if cf.swap_factors() != cf:
            ok = False
            break
        if cf.set_factor2_to_zero() != f:
            ok = False
            break
    checks.append(("coproduct ring map, cocommutativity, counit", ok, "10 cases"))

    ok = all(
        stirling2(n, k) == stirling2_recurrence(n, k)
        for n in (*range(9), 12)
        for k in range(n + 1)
    )
    checks.append(("set-partition counts match the recurrence", ok, ""))

    return checks


def _random_sparse_min2(rng, trunc):
    """Random series supported in arities >= 2."""
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(2, trunc)
        parts = gen_partitions(n)
        lam = parts[rng.randrange(len(parts))]
        coeffs[lam] = UVPoly.const(Fraction(rng.choice([-2, -1, 1, 2])))
    return SymSeries(coeffs, trunc)


def fixture_suite() -> list:
    checks = []
    fixtures = {}
    for name in SHIPPED:
        try:
            fx = load_fixture(name)
            fixtures[name] = fx
            ok = fx.data.trunc == fx.trunc and fx.stability_bound_ok()
            checks.append((f"fixture {name} parses and satisfies bounds", ok, f"trunc {fx.trunc}"))
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            checks.append((f"fixture {name} parses and satisfies bounds", False, str(exc)))
    if len(fixtures) < len(SHIPPED):
        return checks

    pair_ok, rank_ok = _genus0_gates(fixtures["genus0_smooth"], fixtures["genus0_stable"])
    checks.append(("genus-0 inverse pair on shipped fixtures", pair_ok, "arity 8"))
    checks.append(("genus-0 smooth rank gate", rank_ok, ""))

    eq = fixtures["genus1_stable"]
    num = fixtures["genus1_stable_numeric"]
    t = min(eq.trunc, num.trunc)
    ok = eq.data.rank1("x").truncate(t) == num.data.rank1("x").truncate(t)
    checks.append(("genus-1 equivariant rank equals the numeric fixture", ok, f"order {t}"))

    ok = True
    for n in range(1, num.trunc + 1):
        poly = num.data[(1,) * n] * factorial(n)
        if any(a > n or b > n for a, b in poly.terms) or poly.mirror(n) != poly:
            ok = False
        if n <= GENUS1_PURE_ARITY and not poly.is_palindromic(n):
            ok = False
    checks.append(("genus-1 numeric fixture duality symmetry", ok, ""))

    chi = genus1_light_chi_egf(num.trunc)
    table = closed_series_numeric(num.data.rank1("x"))
    ok = all(
        (table[(0, n)] * factorial(n)).eval(1, 1) == chi[n].constant_term() * factorial(n)
        for n in range(1, num.trunc + 1)
    )
    checks.append(("all-light Euler characteristics match the closed form", ok, ""))

    # Structural gate invisible to rank-level checks: in the Schur basis
    # every fixture coefficient must have integer entries, and the proper
    # even-cohomology series must have nonnegative ones (they are
    # representation multiplicities per cohomological degree).
    ok = True
    detail = ""
    specs = [
        ("genus0_smooth", False, None),
        ("genus1_smooth", False, None),
        ("genus0_stable", True, None),
        ("genus1_stable", True, GENUS1_PURE_ARITY),
        ("genus2_smooth_weight0", False, None),
    ]
    for name, need_nonneg, positivity_cap in specs:
        sch = fixtures[name].data.to_schur()
        for lam, poly in sch.items():
            for (a, b), c in poly.terms.items():
                if c.denominator != 1:
                    ok = False
                    detail = f"{name} {lam}: non-integer {c}"
                if (
                    need_nonneg
                    and (positivity_cap is None or sum(lam) <= positivity_cap)
                    and c < 0
                ):
                    ok = False
                    detail = f"{name} {lam}: negative multiplicity {c}"
    for n in range(1, num.trunc + 1):
        poly = num.data[(1,) * n] * factorial(n)
        for (a, b), c in poly.terms.items():
            if c.denominator != 1 or (n <= GENUS1_PURE_ARITY and c < 0):
                ok = False
                detail = f"numeric arity {n}: bad coefficient {c}"
    checks.append(("Schur multiplicities are integral (and nonnegative where proper)", ok, detail))
    return checks


def table_suite() -> list:
    checks = []
    smooth0 = load_fixture("genus0_smooth")
    stable1 = load_fixture("genus1_stable")
    res = closed_series(stable1, smooth0, trunc=5)
    problems = []
    for row in parse_golden_pairs(GOLDEN_DIR / "genus1_poincare_table.txt"):
        for p in compare_row_to_golden(res.component(row.m, row.n), row):
            problems.append(f"({row.m},{row.n}): {p}")
    checks.append(("genus-1 equivariant table", not problems, "; ".join(problems[:3])))

    numeric = load_fixture("genus1_stable_numeric")
    table = closed_series_numeric(numeric.data.rank1("x"))
    golden = parse_golden_numeric(GOLDEN_DIR / "genus1_numeric_table.txt")
    problems = []
    for n, (poly, _mode) in golden.items():
        got = table[(0, n)] * factorial(n)
        if got != poly:
            problems.append(f"n={n}")
    checks.append(("genus-1 numeric table", not problems, "; ".join(problems)))

    w0 = load_fixture("genus2_smooth_weight0")
    resw = open_series(w0)
    problems = []
    for row in parse_golden_pairs(GOLDEN_DIR / "genus2_weight0_table.txt"):
        for p in compare_row_to_golden(resw.component(row.m, row.n), row):
            problems.append(f"({row.m},{row.n}): {p}")
        num = numeric_value(resw.component(row.m, row.n), row.m, row.n).constant_term()
        if num != row.numeric:
            problems.append(f"({row.m},{row.n}): numeric {num} != {row.numeric}")
    checks.append(("genus-2 weight-zero table", not problems, "; ".join(problems[:3])))
    return checks


def oracle_suite() -> list:
    checks = []
    smooth1 = load_fixture("genus1_smooth")
    res1 = open_series(smooth1, trunc=ORACLE_ARITY)
    rows = oracle_compare(1, smooth1, res1, ORACLE_ARITY)
    for m, n, ok in rows:
        checks.append((f"oracle genus 1 ({m},{n})", ok, ""))
    w0 = load_fixture("genus2_smooth_weight0")
    res2 = open_series(w0, trunc=ORACLE_ARITY)
    for m, n, ok in oracle_compare(2, w0, res2, ORACLE_ARITY):
        checks.append((f"oracle genus 2 weight-zero ({m},{n})", ok, ""))
    return checks


def corb_suite() -> list:
    """Numeric change-of-variables against the rank of the equivariant pipeline."""
    checks = []
    smooth0 = load_fixture("genus0_smooth")
    smooth1 = load_fixture("genus1_smooth")
    stable1 = load_fixture("genus1_stable")

    t = min(CORB_ARITY, smooth1.trunc)
    res = open_series(smooth1, trunc=t)
    direct = open_series_numeric(smooth1.data.rank1("x"), t)
    checks.append(("numeric open pipeline equals equivariant rank (genus 1)", res.data.rank2() == direct, f"arity {t}"))

    t = min(CORB_ARITY, stable1.trunc, smooth0.trunc - 1)
    resc = closed_series(stable1, smooth0, trunc=t)
    directc = closed_series_numeric(stable1.data.rank1("x"), t)
    # mask unstable corner (0,0) which the equivariant pipeline removes
    directc_masked = FormalPS2(
        ("x", "y"),
        {k: c for k, c in directc.coeffs.items() if stability_ok(1, k[0], k[1])},
        directc.order,
    )
    checks.append(
        ("numeric closed pipeline equals equivariant rank (genus 1)", resc.data.rank2() == directc_masked, f"arity {t}")
    )
    return checks


# Suite name -> the suites it runs, in order.  They are named rather than held,
# so that a call goes through the module attribute, which a profiler may wrap.
SUITES = {
    "all": ("fixture_suite", "table_suite", "property_suite", "corb_suite", "oracle_suite"),
    "fixtures": ("fixture_suite",),
    "tables": ("table_suite",),
    "properties": ("property_suite",),
}


def run_suite(name: str) -> list:
    return [check for suite in SUITES[name] for check in globals()[suite]()]
