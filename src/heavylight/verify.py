"""Verification suites run by `hl verify` and reused by the test suite.

Every check is a module-level function that returns (ok, detail).  A
randomized check is a `case(rng) -> bool`, run by `_cases` until its first
failure.  Each suite loads the fixtures and computes the results its checks
share once, then runs one ordered table of (name, check) rows through
`_run`, which turns it into (name, ok, detail) rows.  The suites draw from
one fixed-seed stream in table order, so runs are reproducible.
"""

import random
from dataclasses import replace
from fractions import Fraction
from math import factorial, inf

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


def _random_sparse_min2(rng, trunc):
    """Random series supported in arities >= 2."""
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(2, trunc)
        parts = gen_partitions(n)
        lam = parts[rng.randrange(len(parts))]
        coeffs[lam] = UVPoly.const(Fraction(rng.choice([-2, -1, 1, 2])))
    return SymSeries(coeffs, trunc)


def _cases(rng, count, case) -> tuple:
    """Run `case(rng)` up to `count` times, stopping at the first failure."""
    return all(case(rng) for _ in range(count)), f"{count} cases"


def _run(table) -> list:
    """The (name, ok, detail) rows of a table of (name, check) rows, in order."""
    return [(name, *check()) for name, check in table]


def _genus0_gates(smooth0: SeriesFixture, stable0: SeriesFixture) -> tuple:
    """Genus-0 inverse pair at arity 8; rank of d(smooth)/dp_1 against its closed form."""
    closed_form = genus0_numeric_closed_form(smooth0.trunc - 1)
    deriv_rank = smooth0.data.d_dp1().rank1("y")
    rank_ok = all(deriv_rank[k] == -closed_form[k] for k in range(2, smooth0.trunc))
    return legendre_check(smooth0, stable0, trunc=8), rank_ok


def _associativity_case(rng) -> bool:
    f = _random_sparse(rng, 6)
    g = _random_sparse(rng, 6)
    h = _random_sparse(rng, 6)
    return (f.plethysm(g)).plethysm(h) == f.plethysm(g.plethysm(h))


def _ring_map_case(rng) -> bool:
    f1 = _random_sparse(rng, 6)
    f2 = _random_sparse(rng, 6)
    g = _random_sparse(rng, 6)
    if (f1 * f2).plethysm(g) != f1.plethysm(g) * f2.plethysm(g):
        return False
    pk = SymSeries.power_sum(rng.randint(1, 4), 6)
    return pk.plethysm(f1 * f2) == pk.plethysm(f1) * pk.plethysm(f2)


def _inverse_case(rng) -> bool:
    p1 = SymSeries.power_sum(1, 8)
    f = p1 + _random_sparse_min2(rng, 8)
    g = f.pleth_inverse()
    return f.plethysm(g) == p1 and g.plethysm(f) == p1


def _exp_log_case(rng) -> bool:
    f = _random_sparse(rng, 8)
    if f.exp_series().log_series() != f:
        return False
    b = BiSymSeries.inject(_random_sparse(rng, 8, max_terms=2), 2) + BiSymSeries.inject(
        _random_sparse(rng, 8, max_terms=2), 1
    ) * BiSymSeries.power_sum(1, 2, 8)
    return b.exp2().log2() == b


def _rank_composition_case(rng) -> bool:
    """rank2 carries factor-2 plethysm into composition in y."""
    f = _random_sparse_bi(rng, 6)
    g = _random_sparse_bi(rng, 6)
    lhs = f.pleth2(g).rank2()
    rf, rg = f.rank2(), g.rank2()
    acc = FormalPS2.zero(("x", "y"), 6)
    xv = FormalPS2.variable(("x", "y"), 1, 6)
    for (i, j), c in rf.coeffs.items():
        term = FormalPS2(("x", "y"), {(0, 0): c}, 6)
        for factor in [xv] * i + [rg] * j:
            term = term * factor
        acc = acc + term
    return acc == lhs


def _coproduct_case(rng) -> bool:
    """The coproduct is a cocommutative ring map with counit."""
    f = _random_sparse(rng, 6, zero_constant=False)
    g = _random_sparse(rng, 6, zero_constant=False)
    if coproduct(f * g) != coproduct(f) * coproduct(g):
        return False
    cf = coproduct(f)
    return cf.swap_factors() == cf and cf.set_factor2_to_zero() == f


def _character_orthogonality() -> tuple:
    bad, dims_ok = [], True
    for n in range(8):
        parts = gen_partitions(n)
        for mu in parts:
            for nu in parts:
                s = sum(mn_character(l, mu) * mn_character(l, nu) for l in parts)
                if s != (z_of(mu) if mu == nu else 0):
                    bad.append(f"{mu},{nu}")
        positive = all(mn_character(l, (1,) * n) > 0 for l in parts)
        dims_ok &= positive and sum(mn_character(l, (1,) * n) ** 2 for l in parts) == factorial(n)
    return dims_ok and not bad, ";".join(bad)


def _purity(res) -> tuple:
    for (lam, mu), c in res.data.coeffs.items():
        m, n = sum(lam), sum(mu)
        if m + n <= GENUS1_PURE_ARITY and not c.is_palindromic(m + n):
            return False, f"({m},{n}) key {(lam, mu)}"
    return True, ""


def _stability_vanishing(res, res_open1, smooth0) -> tuple:
    w0 = open_series(load_fixture("genus2_smooth_weight0"))
    results = ((1, res), (2, w0), (1, res_open1), (0, open_series(smooth0, trunc=6)))
    return all(
        stability_ok(g, m, total - m) or not result.component(m, total - m).coeffs
        for g, result in results
        for total in range(result.data.trunc + 1)
        for m in range(total + 1)
    ), ""


def _slice_matches(pairs) -> tuple:
    """The single-light-marking slice from the derivative formula, per (fixture, result)."""
    for fx, result in pairs:
        for m in range(0, min(4, fx.trunc - 1) + 1):
            got = slice_n1(fx, m)
            if not stability_ok(fx.genus, m, 1):
                got = BiSymSeries.zero(got.trunc)
            if got != result.component(m, 1):
                return False, ""
    return True, ""


def _tail_free_factorization(stable1, smooth0, stable0) -> tuple:
    """coproduct(stable) = core o (p1 + d stable0 / dp1)."""
    t = min(stable1.trunc, stable0.trunc - 1, 6)
    core = tail_free_series(stable1, smooth0, trunc=t)
    inner = BiSymSeries.power_sum(1, 2, t) + BiSymSeries.inject(
        stable0.data.d_dp1().truncate(t), 2
    )
    return core.pleth2(inner) == coproduct(stable1.data.truncate(t)), f"arity {t}"


def _weight_zero_commutes(smooth1) -> tuple:
    """Weight-zero specialization commutes with the open pipeline."""
    t = 5
    data = smooth1.data.truncate(t).weight_zero()
    spec_first = open_series(replace(smooth1, variant="weight0", trunc=t, data=data))
    spec_last = open_series(smooth1, trunc=t)
    return spec_first.data == spec_last.data.weight_zero(), f"arity {t}"


def _stirling_recurrence() -> tuple:
    pairs = ((n, k) for n in (*range(9), 12) for k in range(n + 1))
    return all(stirling2(n, k) == stirling2_recurrence(n, k) for n, k in pairs), ""


def property_suite() -> list:
    rng = random.Random(SEED)
    smooth0, stable0, stable1, smooth1 = map(
        load_fixture, ("genus0_smooth", "genus0_stable", "genus1_stable", "genus1_smooth")
    )
    pair_ok, rank_ok = _genus0_gates(smooth0, stable0)
    res = closed_series(stable1, smooth0)
    res_open1 = open_series(smooth1)
    purity = f"purity and palindromy of genus-1 closed outputs (m+n <= {GENUS1_PURE_ARITY})"
    return _run((
        ("plethysm associativity (random sparse, arity <= 6)",
         lambda: _cases(rng, CASES, _associativity_case)),
        ("plethysm ring-map axioms (random sparse)", lambda: _cases(rng, CASES, _ring_map_case)),
        ("plethystic inverse round trip (arity 8)", lambda: _cases(rng, 10, _inverse_case)),
        ("exp/log round trips (arity 8)", lambda: _cases(rng, 10, _exp_log_case)),
        ("character orthogonality and dimensions (n <= 7)", _character_orthogonality),
        ("genus-0 inverse pair (arity 8)",
         lambda: (pair_ok, f"truncations {smooth0.trunc}/{stable0.trunc}")),
        ("genus-0 fixture rank matches the closed form", lambda: (rank_ok, "")),
        (purity, lambda: _purity(res)),
        ("stability support vanishing", lambda: _stability_vanishing(res, res_open1, smooth0)),
        ("single-light-marking slice matches the pipeline",
         lambda: _slice_matches(((stable1, res), (smooth1, res_open1)))),
        ("tail-free factorization of the stable coproduct",
         lambda: _tail_free_factorization(stable1, smooth0, stable0)),
        ("weight-zero specialization commutes with the pipeline",
         lambda: _weight_zero_commutes(smooth1)),
        ("rank carries plethysm into composition", lambda: _cases(rng, 10, _rank_composition_case)),
        ("coproduct ring map, cocommutativity, counit", lambda: _cases(rng, 10, _coproduct_case)),
        ("set-partition counts match the recurrence", _stirling_recurrence),
    ))


def _numeric_rank(eq, num) -> tuple:
    t = min(eq.trunc, num.trunc)
    return eq.data.rank1("x").truncate(t) == num.data.rank1("x").truncate(t), f"order {t}"


def _numeric_duality(num) -> tuple:
    ok = True
    for n in range(1, num.trunc + 1):
        poly = num.data[(1,) * n] * factorial(n)
        dual = not any(a > n or b > n for a, b in poly.nums) and poly.mirror(n) == poly
        ok &= dual and (n > GENUS1_PURE_ARITY or poly.is_palindromic(n))
    return ok, ""


def _light_euler(num) -> tuple:
    chi = genus1_light_chi_egf(num.trunc)
    table = closed_series_numeric(num.data.rank1("x"))
    return all(
        (table[(0, n)] * factorial(n)).eval(1, 1) == chi[n].constant_term() * factorial(n)
        for n in range(1, num.trunc + 1)
    ), ""


SCHUR_FIXTURES = (
    "genus0_smooth", "genus1_smooth", "genus0_stable", "genus1_stable", "genus2_smooth_weight0"
)
# The proper fixtures, whose Schur multiplicities must be nonnegative up to this arity.
NONNEGATIVE_UP_TO = {"genus0_stable": inf, "genus1_stable": GENUS1_PURE_ARITY}


def _schur_integrality(fixtures, num) -> tuple:
    """Structural gate invisible to rank-level checks: in the Schur basis
    every fixture coefficient must have integer entries, and the proper
    even-cohomology series must have nonnegative ones (they are
    representation multiplicities per cohomological degree).  The detail
    names the last offending coefficient."""
    bad = []
    for name in SCHUR_FIXTURES:
        for lam, poly in fixtures[name].data.to_schur().items():
            nonneg = sum(lam) <= NONNEGATIVE_UP_TO.get(name, -1)
            for c in poly.terms.values():
                if c.denominator != 1:
                    bad.append(f"{name} {lam}: non-integer {c}")
                if nonneg and c < 0:
                    bad.append(f"{name} {lam}: negative multiplicity {c}")
    for n in range(1, num.trunc + 1):
        for c in (num.data[(1,) * n] * factorial(n)).terms.values():
            if c.denominator != 1 or (n <= GENUS1_PURE_ARITY and c < 0):
                bad.append(f"numeric arity {n}: bad coefficient {c}")
    return not bad, bad[-1] if bad else ""


def fixture_suite() -> list:
    rows, fixtures = [], {}
    for name in SHIPPED:
        try:
            fx = fixtures[name] = load_fixture(name)
            ok, detail = fx.data.trunc == fx.trunc and fx.stability_bound_ok(), f"trunc {fx.trunc}"
        except Exception as exc:  # noqa: BLE001 - report, do not crash the suite
            ok, detail = False, str(exc)
        rows.append((f"fixture {name} parses and satisfies bounds", ok, detail))
    if len(fixtures) < len(SHIPPED):
        return rows
    num = fixtures["genus1_stable_numeric"]
    pair_ok, rank_ok = _genus0_gates(fixtures["genus0_smooth"], fixtures["genus0_stable"])
    return rows + _run((
        ("genus-0 inverse pair on shipped fixtures", lambda: (pair_ok, "arity 8")),
        ("genus-0 smooth rank gate", lambda: (rank_ok, "")),
        ("genus-1 equivariant rank equals the numeric fixture",
         lambda: _numeric_rank(fixtures["genus1_stable"], num)),
        ("genus-1 numeric fixture duality symmetry", lambda: _numeric_duality(num)),
        ("all-light Euler characteristics match the closed form", lambda: _light_euler(num)),
        ("Schur multiplicities are integral (and nonnegative where proper)",
         lambda: _schur_integrality(fixtures, num)),
    ))


def _golden_pairs(result, filename, numeric=False) -> tuple:
    problems = []
    for row in parse_golden_pairs(GOLDEN_DIR / filename):
        component = result.component(row.m, row.n)
        for p in compare_row_to_golden(component, row):
            problems.append(f"({row.m},{row.n}): {p}")
        if numeric:
            num = numeric_value(component, row.m, row.n).constant_term()
            if num != row.numeric:
                problems.append(f"({row.m},{row.n}): numeric {num} != {row.numeric}")
    return not problems, "; ".join(problems[:3])


def _golden_numeric(numeric) -> tuple:
    table = closed_series_numeric(numeric.data.rank1("x"))
    golden = parse_golden_numeric(GOLDEN_DIR / "genus1_numeric_table.txt")
    problems = [f"n={n}" for n, (poly, _) in golden.items() if table[(0, n)] * factorial(n) != poly]
    return not problems, "; ".join(problems)


def table_suite() -> list:
    smooth0, stable1 = map(load_fixture, ("genus0_smooth", "genus1_stable"))
    return _run((
        ("genus-1 equivariant table", lambda: _golden_pairs(
            closed_series(stable1, smooth0, trunc=5), "genus1_poincare_table.txt")),
        ("genus-1 numeric table", lambda: _golden_numeric(load_fixture("genus1_stable_numeric"))),
        ("genus-2 weight-zero table", lambda: _golden_pairs(
            open_series(load_fixture("genus2_smooth_weight0")), "genus2_weight0_table.txt",
            numeric=True)),
    ))


def oracle_suite() -> list:
    rows = []
    for genus, name, label in (
        (1, "genus1_smooth", "genus 1"),
        (2, "genus2_smooth_weight0", "genus 2 weight-zero"),
    ):
        fx = load_fixture(name)
        res = open_series(fx, trunc=ORACLE_ARITY)
        for m, n, ok in oracle_compare(genus, fx, res, ORACLE_ARITY):
            rows.append((f"oracle {label} ({m},{n})", ok, ""))
    return rows


def _corb_open(smooth1) -> tuple:
    t = min(CORB_ARITY, smooth1.trunc)
    direct = open_series_numeric(smooth1.data.rank1("x"), t)
    return open_series(smooth1, trunc=t).data.rank2() == direct, f"arity {t}"


def _corb_closed(stable1, smooth0) -> tuple:
    t = min(CORB_ARITY, stable1.trunc, smooth0.trunc - 1)
    resc = closed_series(stable1, smooth0, trunc=t)
    directc = closed_series_numeric(stable1.data.rank1("x"), t)
    # mask unstable corner (0,0) which the equivariant pipeline removes
    masked = {k: c for k, c in directc.coeffs.items() if stability_ok(1, k[0], k[1])}
    return resc.data.rank2() == FormalPS2(("x", "y"), masked, directc.order), f"arity {t}"


def corb_suite() -> list:
    """Numeric change-of-variables against the rank of the equivariant pipeline."""
    smooth0 = load_fixture("genus0_smooth")
    smooth1 = load_fixture("genus1_smooth")
    stable1 = load_fixture("genus1_stable")
    return _run((
        ("numeric open pipeline equals equivariant rank (genus 1)", lambda: _corb_open(smooth1)),
        ("numeric closed pipeline equals equivariant rank (genus 1)",
         lambda: _corb_closed(stable1, smooth0)),
    ))


# Suite name -> the suites it runs, in order.  They are named rather than held,
# so that a call goes through the module attribute, which a profiler may wrap.
SUITES = {
    "all": ("fixture_suite", "table_suite", "property_suite", "corb_suite", "oracle_suite"),
    "fixtures": ("fixture_suite",),
    "tables": ("table_suite",),
    "properties": ("property_suite",),
}


def run_suite(name: str) -> list:
    """Every row of the named suites.  A suite that cannot read its inputs
    (an unreadable or malformed fixture) gives one FAIL row naming it."""
    rows = []
    for suite in SUITES[name]:
        try:
            rows += globals()[suite]()
        except (OSError, ValueError) as exc:
            rows.append((f"{suite} runs", False, str(exc)))
    return rows
