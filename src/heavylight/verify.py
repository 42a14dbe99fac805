"""Verification suites run by `hl verify` and reused by the test suite.

Every check is a module-level function that returns (ok, detail).  A
randomized check is a `case(rng) -> bool`, run by `_cases` until its first
failure.  One `run_suite` call shares the fixtures and the pipeline results
its suites need through one `RunInputs`, which loads or computes each of them
once.  Each suite runs one ordered table of (name, check) rows through `_run`,
which turns it into (name, ok, detail) rows.  Only `property_suite` draws,
from one fixed seed in table order.  Its generators `random_sparse` and
`random_bi` are public, for the tests.  A changed draw keeps the digest
(details read "N cases") if every check still passes.
"""

import random
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
    genus0_corrector,
    genus0_numeric_closed_form,
    genus1_light_chi_egf,
    legendre_check,
    numeric_rows,
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
ORACLE_ARITY = 5  # the oracle reaches 7; 5 keeps the report's pinned rows and digest


def _random_terms(rng, lowest, trunc, key) -> dict:
    """One to three keys `key(rng, n)` of arities lowest <= n <= trunc, each with a
    constant or a u^a v^b coefficient (a, b <= 1), half the time each; equal keys add."""
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        k = key(rng, rng.randint(lowest, trunc))
        c = Fraction(rng.choice([-2, -1, 1, 1, 2]), rng.choice([1, 1, 2]))
        if rng.random() < 0.5:
            poly = UVPoly.monomial(rng.randint(0, 1), rng.randint(0, 1), c)
        else:
            poly = UVPoly.const(c)
        coeffs[k] = coeffs.get(k, UVPoly.zero()) + poly
    return coeffs


def _partition(rng, n) -> tuple:
    parts = gen_partitions(n)
    return parts[rng.randrange(len(parts))]


def _pair(rng, total) -> tuple:
    m = rng.randint(0, total)
    return _partition(rng, m), _partition(rng, total - m)


def random_sparse(rng, trunc, lowest=1) -> SymSeries:
    """A small random series supported in arities >= lowest: few partition keys, small
    coefficients."""
    return SymSeries(_random_terms(rng, lowest, trunc, _partition), trunc)


def random_bi(rng, trunc) -> BiSymSeries:
    """A small random series in two factors: keys (lam, mu) of total arity >= 1, small
    coefficients."""
    return BiSymSeries(_random_terms(rng, 1, trunc, _pair), trunc)


def _cases(rng, count, case) -> tuple:
    """Run `case(rng)` up to `count` times, stopping at the first failure."""
    return all(case(rng) for _ in range(count)), f"{count} cases"


def _run(table) -> list:
    """The (name, ok, detail) rows of a table of (name, check) rows, in order."""
    return [(name, *check()) for name, check in table]


class RunInputs:
    """The inputs that the suites of one run share, each loaded or computed at most
    once: the shipped fixtures by name, `open_series` results by fixture name and
    truncation, the genus-0 gates and the genus-1 numeric table.  A run creates one
    and passes it to each of its suites, so nothing outlives the run.  A load that
    raised is not kept: the next suite that needs the fixture reads it again and
    reports the same error."""

    def __init__(self):
        self._done = {}

    def _once(self, key, compute):
        if key not in self._done:
            self._done[key] = compute()
        return self._done[key]

    def fixture(self, name: str) -> SeriesFixture:
        return self._once(("fixture", name), lambda: load_fixture(name))

    def open_series(self, name: str, trunc: int | None = None):
        """`open_series` of the named fixture at `trunc`, by default its own truncation."""
        fx = self.fixture(name)
        t = fx.trunc if trunc is None else trunc
        return self._once(("open_series", name, t), lambda: open_series(fx, trunc=t))

    def genus0_gates(self) -> tuple:
        smooth0, stable0 = self.fixture("genus0_smooth"), self.fixture("genus0_stable")
        return self._once(("genus-0 gates",), lambda: _genus0_gates(smooth0, stable0))

    def numeric_table(self) -> dict:
        """The `numeric_rows` of the closed genus-1 numeric table."""
        num = self.fixture("genus1_stable_numeric")
        return self._once(("numeric table",), lambda: numeric_rows(
            closed_series_numeric(num.data.rank1("x")), num.genus))


def _genus0_gates(smooth0: SeriesFixture, stable0: SeriesFixture) -> tuple:
    """Genus-0 inverse pair at arity 8; rank of the corrector against its closed form."""
    t = smooth0.trunc - 1
    rank_ok = genus0_corrector(smooth0.data, t).rank1("y") == genus0_numeric_closed_form(t)
    return legendre_check(smooth0, stable0, trunc=8), rank_ok


def _associativity_case(rng) -> bool:
    f = random_sparse(rng, 6)
    g = random_sparse(rng, 6)
    h = random_sparse(rng, 6)
    return (f.plethysm(g)).plethysm(h) == f.plethysm(g.plethysm(h))


def _ring_map_case(rng) -> bool:
    f1 = random_sparse(rng, 6)
    f2 = random_sparse(rng, 6)
    g = random_sparse(rng, 6)
    if (f1 * f2).plethysm(g) != f1.plethysm(g) * f2.plethysm(g):
        return False
    k = rng.randint(1, 4)
    pk, u = SymSeries.power_sum(k, 6), UVPoly.monomial(1, 0)
    pk_f1 = pk.plethysm(f1)
    return pk.plethysm(f1 * f2) == pk_f1 * pk.plethysm(f2) and pk.plethysm(f1 * u) == pk_f1 * u.adams(k)


def _inverse_case(rng) -> bool:
    p1 = SymSeries.power_sum(1, 8)
    f = p1 + random_sparse(rng, 8, lowest=2)
    g = f.pleth_inverse()
    return f.plethysm(g) == p1 and g.plethysm(f) == p1


def _exp_log_case(rng) -> bool:
    f = random_sparse(rng, 8)
    if f.exp_series().log_series() != f:
        return False
    b = random_bi(rng, 8)
    return b.exp2().log2() == b


def _rank_composition_case(rng) -> bool:
    """rank2 carries factor-2 plethysm into composition in y."""
    f = random_bi(rng, 6)
    g = random_bi(rng, 6)
    lhs = f.pleth2(g).rank2()
    rf, rg = f.rank2(), g.rank2()
    acc = FormalPS2(("x", "y"), {}, 6)
    xv = FormalPS2.variable(("x", "y"), 1, 6)
    for (i, j), c in rf.coeffs.items():
        term = FormalPS2(("x", "y"), {(0, 0): c}, 6)
        for factor in [xv] * i + [rg] * j:
            term = term * factor
        acc = acc + term
    return acc == lhs


def _coproduct_case(rng) -> bool:
    """The coproduct is a cocommutative ring map with counit."""
    f = random_sparse(rng, 6, lowest=0)
    g = random_sparse(rng, 6, lowest=0)
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


def _stability_vanishing(run, res, res_open1) -> tuple:
    w0, open0 = run.open_series("genus2_smooth_weight0"), run.open_series("genus0_smooth", 6)
    return all(
        stability_ok(result.genus, m, total - m) or not result.component(m, total - m).coeffs
        for result in (res, w0, res_open1, open0)
        for total in range(result.data.trunc + 1)
        for m in range(total + 1)
    ), ""


def _slice_matches(pairs) -> tuple:
    """The single-light-marking slice from the derivative formula, per (fixture, result)."""
    for fx, result in pairs:
        for m in range(0, min(4, fx.trunc - 1) + 1):
            if slice_n1(fx, m) != result.component(m, 1):
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


def _weight_zero_commutes(run) -> tuple:
    """Weight-zero specialization commutes with the open pipeline."""
    t, smooth1 = 5, run.fixture("genus1_smooth")
    data = smooth1.data.truncate(t).weight_zero()
    spec_first = open_series(smooth1._replace(variant="weight0", data=data))
    spec_last = run.open_series("genus1_smooth", trunc=t)
    return spec_first.data == spec_last.data.weight_zero(), f"arity {t}"


def _stirling_recurrence() -> tuple:
    pairs = ((n, k) for n in (*range(9), 12) for k in range(n + 1))
    return all(stirling2(n, k) == stirling2_recurrence(n, k) for n, k in pairs), ""


def property_suite(run: RunInputs) -> list:
    rng = random.Random(SEED)
    smooth0, stable0, stable1, smooth1 = map(
        run.fixture, ("genus0_smooth", "genus0_stable", "genus1_stable", "genus1_smooth")
    )
    pair_ok, rank_ok = run.genus0_gates()
    res = closed_series(stable1, smooth0)
    res_open1 = run.open_series("genus1_smooth")
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
        ("stability support vanishing", lambda: _stability_vanishing(run, res, res_open1)),
        ("single-light-marking slice matches the pipeline",
         lambda: _slice_matches(((stable1, res), (smooth1, res_open1)))),
        ("tail-free factorization of the stable coproduct",
         lambda: _tail_free_factorization(stable1, smooth0, stable0)),
        ("weight-zero specialization commutes with the pipeline",
         lambda: _weight_zero_commutes(run)),
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
        poly = num.data.trace_from_ch((1,) * n)
        dual = not any(a > n or b > n for a, b in poly.nums) and poly.mirror(n) == poly
        ok &= dual and (n > GENUS1_PURE_ARITY or poly.is_palindromic(n))
    return ok, ""


def _light_euler(num, rows) -> tuple:
    chi = genus1_light_chi_egf(num.trunc)
    return all(
        rows.get((0, n), UVPoly.zero()).eval(1, 1) == chi[n].constant_term() * factorial(n)
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
            for x in poly.nums.values():
                if x % poly.den:
                    bad.append(f"{name} {lam}: non-integer {Fraction(x, poly.den)}")
                if nonneg and x < 0:
                    bad.append(f"{name} {lam}: negative multiplicity {Fraction(x, poly.den)}")
    for n in range(1, num.trunc + 1):
        poly = num.data.trace_from_ch((1,) * n)
        for x in poly.nums.values():
            if x % poly.den or (n <= GENUS1_PURE_ARITY and x < 0):
                bad.append(f"numeric arity {n}: bad coefficient {Fraction(x, poly.den)}")
    return not bad, bad[-1] if bad else ""


def fixture_suite(run: RunInputs) -> list:
    rows, fixtures = [], {}
    for name in SHIPPED:
        try:
            fx = fixtures[name] = run.fixture(name)
            ok = all(stability_ok(fx.genus, sum(lam), 0) for lam in fx.data.coeffs)
            detail = f"trunc {fx.trunc}"
        except (OSError, ValueError) as exc:  # as in run_suite: a loading bug still raises
            ok, detail = False, str(exc)
        rows.append((f"fixture {name} parses and satisfies bounds", ok, detail))
    if len(fixtures) < len(SHIPPED):
        return rows
    num = fixtures["genus1_stable_numeric"]
    pair_ok, rank_ok = run.genus0_gates()
    return rows + _run((
        ("genus-0 inverse pair on shipped fixtures", lambda: (pair_ok, "arity 8")),
        ("genus-0 smooth rank gate", lambda: (rank_ok, "")),
        ("genus-1 equivariant rank equals the numeric fixture",
         lambda: _numeric_rank(fixtures["genus1_stable"], num)),
        ("genus-1 numeric fixture duality symmetry", lambda: _numeric_duality(num)),
        ("all-light Euler characteristics match the closed form",
         lambda: _light_euler(num, run.numeric_table())),
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


def _golden_numeric(rows) -> tuple:
    golden = parse_golden_numeric(GOLDEN_DIR / "genus1_numeric_table.txt")
    problems = [f"n={n}" for n, (poly, _) in golden.items()
                if rows.get((0, n), UVPoly.zero()) != poly]
    return not problems, "; ".join(problems)


def table_suite(run: RunInputs) -> list:
    smooth0, stable1 = map(run.fixture, ("genus0_smooth", "genus1_stable"))
    return _run((
        ("genus-1 equivariant table", lambda: _golden_pairs(
            closed_series(stable1, smooth0, trunc=5), "genus1_poincare_table.txt")),
        ("genus-1 numeric table", lambda: _golden_numeric(run.numeric_table())),
        ("genus-2 weight-zero table", lambda: _golden_pairs(
            run.open_series("genus2_smooth_weight0"), "genus2_weight0_table.txt",
            numeric=True)),
    ))


def oracle_suite(run: RunInputs) -> list:
    rows = []
    for name, label in (("genus1_smooth", "genus 1"), ("genus2_smooth_weight0", "genus 2 weight-zero")):
        res = run.open_series(name, trunc=ORACLE_ARITY)
        for m, n, ok in oracle_compare(run.fixture(name), res, ORACLE_ARITY):
            rows.append((f"oracle {label} ({m},{n})", ok, ""))
    return rows


def _corb_open(run) -> tuple:
    smooth1 = run.fixture("genus1_smooth")
    t = min(CORB_ARITY, smooth1.trunc)
    direct = open_series_numeric(smooth1.data.rank1("x"), t)
    return run.open_series("genus1_smooth", trunc=t).data.rank2() == direct, f"arity {t}"


def _corb_closed(stable1, smooth0) -> tuple:
    t = min(CORB_ARITY, stable1.trunc, smooth0.trunc - 1)
    resc = closed_series(stable1, smooth0, trunc=t)
    directc = closed_series_numeric(stable1.data.rank1("x"), t)
    # the rows keep the stable cells, the ones the equivariant pipeline keeps
    rows = numeric_rows(resc.data.rank2(), resc.genus)
    return rows == numeric_rows(directc, resc.genus), f"arity {t}"


def corb_suite(run: RunInputs) -> list:
    """Numeric change-of-variables against the rank of the equivariant pipeline."""
    smooth0, stable1 = run.fixture("genus0_smooth"), run.fixture("genus1_stable")
    return _run((
        ("numeric open pipeline equals equivariant rank (genus 1)", lambda: _corb_open(run)),
        ("numeric closed pipeline equals equivariant rank (genus 1)",
         lambda: _corb_closed(stable1, smooth0)),
    ))


# Suite name -> the suites it runs, in order.  They are named rather than held, so that
# a call goes through the module attribute, which a profiler or a test may wrap.
SUITES = {
    "all": ("fixture_suite", "table_suite", "property_suite", "corb_suite", "oracle_suite"),
    "fixtures": ("fixture_suite",),
    "tables": ("table_suite",),
    "properties": ("property_suite",),
}


def run_suite(name: str) -> list:
    """Every row of the named suites, which share one `RunInputs`.  A suite that
    cannot read its inputs (an unreadable or malformed fixture) gives one FAIL row
    naming it."""
    rows, run = [], RunInputs()
    for suite in SUITES[name]:
        try:
            rows += globals()[suite](run)
        except (OSError, ValueError) as exc:
            rows.append((f"{suite} runs", False, str(exc)))
    return rows
