#!/usr/bin/env python3
"""Regenerate the shipped series fixtures from first principles.

Derivations (all exact):

* genus-0 smooth: per conjugacy class, the twisted point count of the
  configuration space of n points on the projective line is a closed-form
  polynomial in q (orbit counting over the Frobenius), and dividing by the
  order q^3 - q of the automorphism group of the line gives the trace on the
  moduli space.  Cross-checked against an independent plethysm route
  (ordered tuples = configurations composed with nonempty sets).
* genus-0 stable: hanging-tree dissymmetry.  For any tree automorphism the
  fixed subtree has Euler characteristic one, counting an inverted fixed
  edge as +1; the rooted series is the plethystic inverse of p_1 minus the
  smooth derivative, and the stable series is
  smooth o (p_1 + rooted) - e_2 o rooted.
* genus-1 smooth: groupoid point counts of elliptic curves with marked
  points over many prime fields, aggregated by Frobenius trace, then exact
  polynomial interpolation in q.  The Weierstrass pairs (a, b) are counted
  by trace over the isomorphism classes, the orbits of (a, b) -> (l^4 a,
  l^6 b), from one representative each: one character sum at (c, c) gives
  the trace of its orbit and, negated, of its quadratic twist's, and with a
  or b zero the orbits are cosets of the 4th or 6th powers, each weighted by
  its size.  Each prime gets one table of twisted counts by cycle length
  and multiplicity, one column of Frobenius orbit counts per trace; a
  conjugacy class counts, on each curve, the product of its cycles' entries,
  built one prime at a time as one list product per further cycle group
  (`class_counts`), and divided exactly by the curve's rational points (its
  translations, which act freely on configurations).  Each arity is fitted
  by one exact fraction-free (Bareiss) elimination of its integer matrix in
  the primes, with one right-hand side per conjugacy class, and every prime
  beyond the unknowns stays a consistency equation for every class.  The weight-12
  cusp-form correction enters at arity 11 and is detected by fitting
  against the discriminant-form coefficients and replaced by its Hodge
  realization u^11 + v^11.
* genus-1 stable: core-and-trees assembly.  A stable genus-1 curve is a
  core (smooth elliptic vertex, or an unoriented necklace of rational
  vertices) with rational trees hanging from its slots; the necklace series
  is a dihedral Burnside sum over rotations and reflections.
* genus-2 weight-zero: the reference table's all-light rows are the series
  under plethysm by Exp(p_1) = sum_n h_n (the open pipeline with no heavy
  points), and the plethystic inverse of Exp(p_1) undoes that plethysm.

Run `python tools/generate_fixtures.py --phase all` from the repo root.  The
run is one pass that hands each series on in memory; the three
`tools/_cache/*.hlf` files are intermediate series written for the record
and the benchmark's digests, and nothing reads them back.

Three kinds of check gate a run, and each fact is checked once: known-value
assertions (the first arities, the genus-0 Euler characteristics, the
weight-zero constants, the discriminant-form coefficients), cross-route
equalities (twisted counts against plethysm, the corrector's rank against
its numeric closed form, the Legendre pair, the dissymmetry derivative, the
ends-swapped vertex's rank against its running product, the genus-1 Euler
characteristics of the numeric assembly against their closed form and the
equivariant rank against that assembly), and a final
`table_suite` on the fixtures just written, which reproduces every golden
table, numeric columns included, and is the one check of the genus-2
weight-zero series, which is read from the light rows of the table it checks.
A check that one of these already implies is not repeated.
"""

import argparse
import os
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from heavylight.fixtures import SeriesFixture, save_fixture, write_fixture  # noqa: E402
from heavylight.partitions import gen_partitions, multiplicities, z_of  # noqa: E402
from heavylight.pipeline import (  # noqa: E402
    GENUS1_PURE_ARITY,
    genus0_corrector,
    genus0_numeric_closed_form,
    genus1_stable_chi_egf,
    legendre_check,
)
from heavylight.powerseries import FormalPS1  # noqa: E402
from heavylight.symseries import SymSeries, mobius  # noqa: E402
from heavylight.tables import GOLDEN_DIR, parse_golden_pairs  # noqa: E402
from heavylight.uvpoly import UVPoly, divide_diagonal_exact  # noqa: E402

DATA_DIR = REPO / "src" / "heavylight" / "data"
CACHE_DIR = REPO / "tools" / "_cache"

PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]

STABLE1_TRUNC = 10
SMOOTH0_INTERNAL_TRUNC = STABLE1_TRUNC + 2  # the vertex series differentiate it twice
SMOOTH0_SHIP_TRUNC = 11
STABLE0_SHIP_TRUNC = 9
SMOOTH1_SHIP_TRUNC = 6
NUMERIC1_TRUNC = 11
WEIGHT0_TRUNC = 6


def log(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


@lru_cache(maxsize=None)
def divisor_mobius(n: int) -> tuple:
    """The pairs (d, mu(n/d)) over the divisors d of n with mu(n/d) != 0: the
    weights of every Moebius inversion here, filled for each n on first use."""
    return tuple((d, mu) for d in range(1, n + 1) if n % d == 0 and (mu := mobius(n // d)))


def euler_phi(n: int) -> int:
    """phi(n) = sum over d | n of mu(n/d) d."""
    return sum(mu * d for d, mu in divisor_mobius(n))


# ---------------------------------------------------------------------------
# Phase: genus 0
# ---------------------------------------------------------------------------


def falling_table(columns: list, top: int) -> dict:
    """Twisted counts of marked-point configurations, one cycle length at a time:
    {(l, c): one entry l^c O_l (O_l - 1) ... (O_l - c + 1) per column} for l c <= top,
    where a column is one curve's list of O_l, its number of exact-period-l Frobenius
    orbits, ints or polynomials in q.  Cycles of length l consume whole exact-period-l
    orbits; cycles of equal length need distinct orbits and each orbit admits l phases,
    so a class with c cycles of each length l counts the product of its entries (l, c).
    """
    table = {}
    for l in range(1, top + 1):
        entry = [1] * len(columns)
        for c in range(1, top // l + 1):
            entry = [e * (o[l] - c + 1) * l for e, o in zip(entry, columns)]
            table[l, c] = entry
    return table


def class_counts(table: dict, cycles) -> list:
    """A conjugacy class's twisted counts on the columns of a `falling_table`, one per
    column: the column of its first cycle group (l, c) times, elementwise, the column
    of each further group."""
    first, *rest = cycles
    counts = table[first]
    for lc in rest:
        counts = [x * y for x, y in zip(counts, table[lc])]
    return counts


def genus0_smooth(trunc: int) -> SymSeries:
    """Per conjugacy class, the twisted configuration count of the
    projective line divided exactly by q^3 - q.  Its exact-period-l
    Frobenius orbits number (1/l) sum_{d | l} mu(l/d) (q^d + 1)."""
    orbits = [UVPoly.zero()] + [
        sum((UVPoly.uv_power(d) + 1) * mu for d, mu in divisor_mobius(l)) / l
        for l in range(1, trunc + 1)
    ]
    aut = UVPoly.uv_power(3) - UVPoly.uv_power(1)
    table = falling_table([orbits], trunc)
    coeffs = {}
    for n in range(3, trunc + 1):
        for lam in gen_partitions(n):
            count = prod(table[lc][0] for lc in multiplicities(lam).items())
            tr = divide_diagonal_exact(count, aut)
            if not tr.is_zero():
                coeffs[lam] = tr * Fraction(1, z_of(lam))
    return SymSeries(coeffs, trunc)


def genus0_smooth_plethysm_route(trunc: int) -> SymSeries:
    """Independent derivation: ordered tuples on the line are configurations
    of the blocks of a set partition, so the configuration series is the
    tuple series composed with the inverse of the nonempty-sets series."""
    e_line = UVPoly.one() + UVPoly.uv_power(1)
    tuples = SymSeries.one(trunc) + (SymSeries.power_sum(1, trunc) * e_line).exp_series()
    exp_p1 = SymSeries.power_sum(1, trunc).exp_series()  # sum_n h_n
    conf = tuples.plethysm(exp_p1.pleth_inverse())
    coeffs = {}
    for n in range(3, trunc + 1):
        part = conf.arity_part(n)
        for lam, c in part.coeffs.items():
            coeffs[lam] = divide_diagonal_exact(c, UVPoly.uv_power(3) - UVPoly.uv_power(1))
    return SymSeries(coeffs, trunc)


def phase_genus0():
    t_int = SMOOTH0_INTERNAL_TRUNC
    t_rooted = STABLE1_TRUNC  # the genus-1 assembly substitutes the rooted trees
    t_stable = STABLE0_SHIP_TRUNC

    log(f"genus-0 smooth series via twisted counts, truncation {t_int}")
    smooth = genus0_smooth(t_int)

    log("cross-check against the plethysm route (truncation 7)")
    alt = genus0_smooth_plethysm_route(7)
    assert smooth.truncate(7) == alt, "twisted-count and plethysm routes disagree"

    assert smooth.arity_part(3) == SymSeries.homogeneous_h(3, t_int), "arity 3 must be a point"

    log("cross-check the corrector's rank against the numeric closed form")
    closed = genus0_numeric_closed_form(t_int - 1)
    assert genus0_corrector(smooth, t_int - 1).rank1("y") == closed, "corrector rank mismatch"

    log(f"rooted-tree inverse series, truncation {t_rooted}")
    pd = genus0_corrector(smooth, t_rooted).pleth_inverse()
    rooted = pd - SymSeries.power_sum(1, t_rooted)

    log(f"stable genus-0 by dissymmetry, truncation {t_stable}")
    # marked-vertex sum minus the edge correction; the edge term is the
    # *antisymmetric* pair series e_2 o rooted = (rooted^2 - psi_2 rooted)/2
    # because an inverted fixed edge contributes +1, not -1, to the fixed
    # subtree Euler characteristic.
    r = rooted.truncate(t_stable)
    edge = (r * r - r.adams(2)) * Fraction(1, 2)
    stable = smooth.truncate(t_stable).plethysm(pd.truncate(t_stable)) - edge

    assert stable.arity_part(3) == SymSeries.homogeneous_h(3, t_stable)
    expected4 = SymSeries.homogeneous_h(4, t_stable) * (UVPoly.one() + UVPoly.uv_power(1))
    assert stable.arity_part(4) == expected4, "stable arity 4 must be the line"
    known = {3: 1, 4: 2, 5: 7, 6: 34, 7: 213, 8: 1630}
    for n, val in known.items():
        if n <= t_stable:
            chi = stable.trace_from_ch((1,) * n).eval(1, 1)
            assert chi == val, f"stable genus-0 chi({n}) = {chi} != {val}"

    deriv_stable = stable.d_dp1().truncate(t_stable - 1)
    assert deriv_stable == rooted.truncate(t_stable - 1), "dissymmetry derivative mismatch"

    smooth_fx = SeriesFixture("genus0_smooth", 0, "open", smooth.truncate(SMOOTH0_SHIP_TRUNC))
    stable_fx = SeriesFixture("genus0_stable", 0, "closed", stable)
    assert legendre_check(smooth_fx, stable_fx), "genus-0 inverse check failed"
    save_fixture(smooth_fx, DATA_DIR)
    save_fixture(stable_fx, DATA_DIR)

    CACHE_DIR.mkdir(exist_ok=True)
    cache_fx = SeriesFixture("_cache_rooted_inverse", 0, "open", pd)
    (CACHE_DIR / "rooted_inverse.hlf").write_text(write_fixture(cache_fx))
    log("genus-0 fixtures written")
    return smooth, pd


# ---------------------------------------------------------------------------
# Phase: genus 1 point counts
# ---------------------------------------------------------------------------


def elliptic_trace_histogram(p: int) -> dict:
    """Count the nonsingular Weierstrass pairs (a, b) over F_p by Frobenius trace.

    (x, y) -> (l^2 x, l^3 y) maps y^2 = x^3 + a x + b onto the curve of (l^4 a, l^6 b),
    so the trace, minus the sum over x of the quadratic character of x^3 + a x + b,
    is computed once per orbit of F_p^* and counted with the orbit's size.  With
    a b != 0, (c, c) and its quadratic twist, of opposite trace, are the two orbits
    of size (p - 1)/2 with a^3 / b^2 = c; with b = 0 or a = 0 the orbits are the
    cosets of the 4th or the 6th powers.
    """
    sqs = {(x * x) % p for x in range(1, p)}
    chi = [0] + [1 if v in sqs else -1 for v in range(1, p)]
    cubes = [x * x * x % p for x in range(p)]

    def trace(a, b):
        return -sum(chi[(cube + a * x + b) % p] for x, cube in enumerate(cubes))

    hist: dict = {}
    half = (p - 1) // 2
    for c in range(1, p):
        if (4 * c**3 + 27 * c**2) % p:
            t = trace(c, c)
            hist[t] = hist.get(t, 0) + half
            hist[-t] = hist.get(-t, 0) + half
    # with m the gcd of k and p - 1, r -> r^((p - 1)/m) maps F_p^* onto the m-th
    # roots of unity with the k-th powers as its kernel: one representative per coset
    for k in (4, 6):
        m = gcd(k, p - 1)
        for r in {pow(r, (p - 1) // m, p): r for r in range(1, p)}.values():
            t = trace(r, 0) if k == 4 else trace(0, r)
            hist[t] = hist.get(t, 0) + (p - 1) // m
    return hist


def frobenius_orbit_counts(p: int, traces) -> list:
    """Frobenius orbits of exact period l on curves over F_p, one tuple per trace t.

    Entry l, for 1 <= l <= NUMERIC1_TRUNC, is the number of such orbits;
    entry 0 is 0.  The curve has p^d + 1 - s_d points over F_{p^d}, where
    s_d = alpha^d + beta^d for the Frobenius eigenvalues, and Moebius
    inversion over the divisors of l leaves the points of exact period l.
    """
    line = [p**d + 1 for d in range(NUMERIC1_TRUNC + 1)]
    counts = []
    for t in traces:
        s = [2, t]
        for d in range(2, NUMERIC1_TRUNC + 1):
            s.append(t * s[d - 1] - p * s[d - 2])
        orbits = [0]
        for l in range(1, NUMERIC1_TRUNC + 1):
            m_l = sum(mu * (line[d] - s[d]) for d, mu in divisor_mobius(l))
            assert m_l % l == 0, "period count not divisible by period"
            orbits.append(m_l // l)
        counts.append(tuple(orbits))
    return counts


def linsolve_exact(rows: list, rhs_cols: list) -> list:
    """Solve rows * x = b exactly for each column b of `rhs_cols`, by one
    fraction-free (Bareiss) Gauss-Jordan elimination of the matrix augmented
    with every column; entries are ints or Fractions.

    Returns one solution per column.  Raises if the matrix has a nontrivial
    kernel, or if any one column is inconsistent with the rows: with more
    rows than unknowns, every surplus row is a consistency equation for
    every column.
    """
    m = []
    for i, row in enumerate(rows):
        entries = list(row) + [col[i] for col in rhs_cols]
        d = lcm(*(e.denominator for e in entries))
        m.append([e.numerator * (d // e.denominator) for e in entries])
    ncols = len(rows[0])
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        # Sylvester's identity: every entry is a minor of the scaled matrix,
        # so the division by the previous pivot is exact.
        for i in range(len(m)):
            if i != r:
                f = m[i][c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], m[r])]
        prev = p
        r += 1
        if r == len(m):
            break
    for j in range(ncols, ncols + len(rhs_cols)):
        if any(m[i][j] != 0 for i in range(r, len(m))):
            raise ValueError("inconsistent linear system")
    if r < ncols:
        raise ValueError("underdetermined linear system")
    # every pivot row now reads prev * x_c = m[c][j]
    return [
        [Fraction(m[c][j], prev) for c in range(ncols)]
        for j in range(ncols, ncols + len(rhs_cols))
    ]


def qpolynomial_rows(degree: int, extra_tau: dict | None = None) -> list:
    """One row per prime p for fitting values[p] = sum_i c_i p^i (+ c_tau *
    tau(p)): every prime participates as a consistency equation."""
    rows = []
    for p in PRIMES:
        row = [p**i for i in range(degree + 1)]
        if extra_tau is not None:
            row.append(extra_tau[p])
        rows.append(row)
    return rows


def discriminant_form_coefficients(limit: int) -> dict:
    """Coefficients tau(n) of Delta = q * E^24 up to q^limit, E = prod_k (1 - q^k):
    E once, then E^24 = E^16 E^8 by squaring."""
    e = [1] + [0] * (limit - 1)  # E up to q^(limit - 1)
    for k in range(1, limit):
        for i in range(limit - 1, k - 1, -1):
            e[i] -= e[i - k]

    def mul(f, g):
        return [sum(f[i] * g[n - i] for i in range(n + 1)) for n in range(limit)]

    e8 = e
    for _ in range(3):
        e8 = mul(e8, e8)
    e24 = mul(mul(e8, e8), e8)
    return {n: e24[n - 1] for n in range(1, limit + 1)}


def phase_genus1():
    trunc = STABLE1_TRUNC
    numeric_trunc = NUMERIC1_TRUNC
    log(f"elliptic histograms over primes {PRIMES}")
    hists = {p: elliptic_trace_histogram(p) for p in PRIMES}
    for p in PRIMES:
        total = sum(hists[p].values())
        assert total == p * p - p, f"nonsingular pair count wrong for {p}"

    tau = discriminant_form_coefficients(max(PRIMES))
    assert tau[2] == -24 and tau[3] == 252 and tau[5] == 4830 and tau[7] == -16744

    log(f"fitting twisted traces through arity {trunc} (+ numeric {numeric_trunc})")
    arities = sorted(set(range(1, trunc + 1)) | {numeric_trunc})
    # per prime: the pair count and rational points of each trace, and one table
    # column of Frobenius orbit counts per trace
    curves = {
        p: (list(hists[p].values()), [p + 1 - t for t in hists[p]],
            falling_table(frobenius_orbit_counts(p, hists[p]), numeric_trunc))
        for p in PRIMES
    }
    trace_polys: dict = {}
    numeric_coeffs = {}
    for n in arities:
        lams = [lam for lam in gen_partitions(n) if n <= trunc or lam == (1,) * n]
        classes = [multiplicities(lam).items() for lam in lams]
        columns = [[] for _ in lams]
        for p in PRIMES:
            cnts, n1s, table = curves[p]
            for cycles, col in zip(classes, columns):
                acc = 0
                # a genus-1 curve with no distinguished origin has its rational
                # translations as extra automorphisms, and they act freely
                for cnt, n1, total in zip(cnts, n1s, class_counts(table, cycles)):
                    q, r = divmod(total, n1)
                    assert not r, "translation action must be free on configurations"
                    acc += cnt * q
                col.append(Fraction(acc, p - 1))
        use_tau = n >= 11
        sols = linsolve_exact(qpolynomial_rows(n + 1, tau if use_tau else None), columns)
        for lam, sol in zip(lams, sols):
            terms = {(i, i): c for i, c in enumerate(sol[: n + 2])}
            if use_tau:
                terms[11, 0] = terms[0, 11] = sol[-1]
            poly = trace_polys[lam] = UVPoly(terms)
            if lam == (1,) * n:
                numeric_coeffs[lam] = poly * Fraction(1, factorial(n))

    assert trace_polys[(1,)] == UVPoly.uv_power(1), "the one-marking space must be the affine line"

    # weight-zero values against the wedge-of-spheres Euler characteristics
    for m in range(3, min(6, trunc) + 1):
        idclass = (1,) * m
        got = trace_polys[idclass].constant_term()
        want = Fraction((-1) ** m * factorial(m - 1), 2)
        assert got == want, f"weight-zero constant at arity {m}: {got} != {want}"

    coeffs = {}
    for lam, poly in trace_polys.items():
        if sum(lam) <= trunc and not poly.is_zero():
            coeffs[lam] = poly * Fraction(1, z_of(lam))
    smooth1 = SymSeries(coeffs, trunc)

    CACHE_DIR.mkdir(exist_ok=True)
    fx = SeriesFixture("_cache_genus1_smooth_deep", 1, "open", smooth1)
    (CACHE_DIR / "genus1_smooth_deep.hlf").write_text(write_fixture(fx))
    numeric1 = SymSeries(numeric_coeffs, numeric_trunc)
    numeric_fx = SeriesFixture("_cache_genus1_smooth_numeric", 1, "open", numeric1)
    (CACHE_DIR / "genus1_smooth_numeric.hlf").write_text(write_fixture(numeric_fx))

    ship = SeriesFixture("genus1_smooth", 1, "open", smooth1.truncate(SMOOTH1_SHIP_TRUNC))
    save_fixture(ship, DATA_DIR)
    log("genus-1 smooth fixtures written")
    return smooth1, numeric1


# ---------------------------------------------------------------------------
# Phase: genus-1 stable assembly
# ---------------------------------------------------------------------------


def necklace_series(vp: SymSeries, vm: SymSeries) -> SymSeries:
    """Dihedral Burnside sum over necklaces of rational vertices, to the
    truncation of the vertex series V+ = vp and V- = vm.

    Rotations contribute sum_d phi(d)/(2d) * sum_m psi_d(V+)^m / m; a
    reflection fixes a vertex with its two ends swapped (V-) and pairs the
    remaining vertices (psi_2 of V+).  The Adams maps are ring maps, so
    psi_d(V+)^m = psi_d(V+^m), and both sums are read off the one list of
    powers V+^m: rotations are sum_d phi(d)/(2d) psi_d(L) with
    L = sum_{m>=1} V+^m / m, reflections are
    (2 V- + V-^2 + psi_2 V+) psi_2(G) / 4 with G = sum_{m>=0} V+^m.
    """
    trunc = min(vp.trunc, vm.trunc)
    powers = [vp]  # V+^m for m = 1, 2, ... up to the first that vanishes
    while powers[-1].coeffs:
        powers.append(powers[-1] * vp)
    log_sum = SymSeries.linear(((Fraction(1, m), pw) for m, pw in enumerate(powers, 1)), trunc)
    geom = SymSeries.linear(((1, pw) for pw in [SymSeries.one(trunc)] + powers), trunc)
    refl = SymSeries.linear(((2, vm), (1, vm * vm), (1, vp.adams(2))), trunc) * geom.adams(2)
    rot = [(Fraction(euler_phi(d), 2 * d), log_sum.adams(d)) for d in range(1, trunc + 1)]
    return SymSeries.linear(rot + [(Fraction(1, 4), refl)], trunc)


def numeric_necklace_rank(closed: FormalPS1):
    """Rank shadow of the necklace series and the ends-swapped rank series,
    to order closed.order - 1, from the numeric genus-0 corrector `closed`."""
    order = closed.order - 1
    rk_vp = (FormalPS1.identity("y", closed.order) - closed).derivative()
    # ends-swapped trace series: prod_{i=0}^{k-2} (q - i) / k!, a running product
    coeffs = [UVPoly.zero(), UVPoly.one()]
    for k in range(1, order):
        coeffs.append(coeffs[k] * (UVPoly.uv_power(1) - (k - 1)) / (k + 1))
    rk_vm = FormalPS1("y", coeffs[: order + 1], order)
    one = FormalPS1("y", [UVPoly.one()], order)
    log1m = (one - rk_vp).log()
    return log1m * Fraction(-1, 2) + (rk_vm * 2 + rk_vm * rk_vm) * Fraction(1, 4), rk_vm


def phase_assemble(smooth0: SymSeries, pd: SymSeries, smooth1: SymSeries, numeric1: SymSeries):
    trunc = STABLE1_TRUNC
    numeric_trunc = NUMERIC1_TRUNC

    log("vertex series with two orientation slots")
    vp = smooth0.d_dp1().d_dp1().truncate(trunc)
    vm = smooth0.d_dpk(2).truncate(trunc) * 2

    closed = genus0_numeric_closed_form(numeric_trunc + 1)
    rk_neck, rk_vm_closed = numeric_necklace_rank(closed)
    assert vm.rank1("y") == rk_vm_closed.truncate(trunc), "ends-swapped rank closed form mismatch"

    log(f"necklace series, truncation {trunc}")
    neck = necklace_series(vp, vm)

    log("core-and-trees assembly")
    core = smooth1 + neck
    stable1 = core.plethysm(pd)

    expected1 = SymSeries({(1,): UVPoly.one() + UVPoly.uv_power(1)}, trunc)
    assert stable1.arity_part(1) == expected1, "one-marking stable space must be the projective line"

    log(f"numeric assembly and Euler-characteristic check, order {numeric_trunc}")
    rk_core = numeric1.rank1("y") + rk_neck
    g_num = closed.truncate(numeric_trunc).reversion()
    stable1_numeric = rk_core.compose(g_num)

    chi_series = genus1_stable_chi_egf(numeric_trunc)
    for n in range(1, numeric_trunc + 1):
        got = stable1_numeric[n].eval(1, 1)
        want = chi_series[n].constant_term()
        assert got == want, f"numeric chi mismatch at {n}: {got} != {want}"
        poly = stable1_numeric[n] * factorial(n)
        assert poly.is_palindromic(n) or n > GENUS1_PURE_ARITY, f"palindromy fails at {n}"

    assert stable1.rank1("y") == stable1_numeric.truncate(trunc), (
        "equivariant rank disagrees with the numeric assembly"
    )

    stable_fx = SeriesFixture("genus1_stable", 1, "closed", stable1)
    save_fixture(stable_fx, DATA_DIR)
    numeric_data = SymSeries(
        {(1,) * n: stable1_numeric[n] for n in range(1, numeric_trunc + 1)},
        numeric_trunc,
    )
    numeric_fx = SeriesFixture("genus1_stable_numeric", 1, "closed", numeric_data)
    save_fixture(numeric_fx, DATA_DIR)
    log("genus-1 stable fixtures written")


# ---------------------------------------------------------------------------
# Phase: genus-2 weight-zero series
# ---------------------------------------------------------------------------


def light_rows_series(rows: list, trunc: int) -> SymSeries:
    """The series B of a smooth heavy/light table: with no heavy points the light
    markings of `open_series` substitute Exp(p_1) = sum_n h_n into B, so the rows
    with m = 0 hold L = B o Exp(p_1) in Schur pairs, and B = L o Exp(p_1)^<-1>."""
    light = {mu: c for row in rows if row.m == 0 for (_, mu), c in row.pairs.items()}
    exp_p1 = SymSeries.power_sum(1, trunc).exp_series()
    return SymSeries.from_schur(light, trunc).plethysm(exp_p1.pleth_inverse())


def phase_weight0():
    log("genus-2 weight-zero series: the table's light rows under the inverse of Exp(p_1)")
    golden = parse_golden_pairs(GOLDEN_DIR / "genus2_weight0_table.txt")
    data = light_rows_series(golden, WEIGHT0_TRUNC)
    save_fixture(SeriesFixture("genus2_smooth_weight0", 2, "weight0", data), DATA_DIR)
    log("genus-2 weight-zero fixture written")


# ---------------------------------------------------------------------------
# Phase: final table gate
# ---------------------------------------------------------------------------


def phase_verify():
    from heavylight.verify import RunInputs, table_suite

    log("final gate: reference tables through the pipelines")
    os.environ["HL_FIXTURE_DIR"] = str(DATA_DIR)  # table_suite loads the fixtures just written
    checks = table_suite(RunInputs())
    failed = [f"{name}: {detail}" for name, ok, detail in checks if not ok]
    assert not failed, "reference table mismatches:\n" + "\n".join(failed)
    log(f"{len(checks)} reference tables reproduced")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--phase", default="all", choices=["all"])
    ap.parse_args()
    start = time.time()
    smooth0, pd = phase_genus0()
    smooth1, numeric1 = phase_genus1()
    phase_assemble(smooth0, pd, smooth1, numeric1)
    phase_weight0()
    phase_verify()
    log(f"done in {time.time() - start:.1f}s")


if __name__ == "__main__":
    main()
