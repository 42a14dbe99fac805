"""The point counts, the genus-1 fit and the genus-2 weight-zero route of
tools/generate_fixtures.py.

The generator is the independent route that produces every shipped
fixture.  These tests check its elliptic histograms, counted over
isomorphism classes and quadratic twists, its exact batched solver, its
Frobenius orbit counts and its table of twisted counts on elliptic curves
and on the projective line against brute-force, per-column and per-call
references written here; its discriminant-form coefficients against
Ramanujan's tau (multiplicativity and the Hecke recursion); and its
inversion of the light rows of a heavy/light table against `open_series`.
The module is loaded by path, the way `python tools/generate_fixtures.py`
runs it.
"""

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, gcd
from pathlib import Path
from types import SimpleNamespace

import pytest

from heavylight.fixtures import SeriesFixture, load_fixture
from heavylight.partitions import gen_partitions, multiplicities, z_of
from heavylight.pipeline import genus0_numeric_closed_form, open_series
from heavylight.symseries import SymSeries, mobius
from heavylight.tables import GOLDEN_DIR, parse_golden_pairs

from helpers import load_path

ROOT = Path(__file__).resolve().parents[1]
GENERATOR = ROOT / "tools" / "generate_fixtures.py"
gen = load_path("generate_fixtures", GENERATOR)


@pytest.fixture(scope="module")
def histograms():
    return {p: gen.elliptic_trace_histogram(p) for p in gen.PRIMES}


def reference_trace_histogram(p: int) -> dict:
    """Weierstrass pairs (a, b) over F_p by Frobenius trace, one character
    sum over every x for every nonsingular pair."""
    sqs = {(x * x) % p for x in range(p)}
    chi = [0] * p
    for t in range(1, p):
        chi[t] = 1 if t in sqs else -1
    hist: dict = {}
    for a in range(p):
        vals = [(x * x * x + a * x) % p for x in range(p)]
        counts = [0] * p
        for v in vals:
            counts[v] += 1
        for b in range(p):
            if (4 * a * a * a + 27 * b * b) % p == 0:
                continue
            s = 0
            for v in range(p):
                cv = counts[v]
                if cv:
                    s += cv * chi[(v + b) % p]
            n_points = p + 1 + s
            t = p + 1 - n_points
            hist[t] = hist.get(t, 0) + 1
    return hist


def power_sum_of_roots(t: int, p: int, l: int) -> int:
    """alpha^l + beta^l for the roots of x^2 - t x + p, by the closed form
    sum_k (-1)^k l/(l-k) C(l-k, k) p^k t^(l-2k)."""
    return sum(
        (-1) ** k * l * comb(l - k, k) // (l - k) * p**k * t ** (l - 2 * k)
        for k in range(l // 2 + 1)
    )


def reference_marked_count(lam: tuple, t: int, p: int) -> int:
    """The twisted marked count computed from scratch for one call."""
    total = 1
    for l, c in multiplicities(lam).items():
        divisors = [d for d in range(1, l + 1) if l % d == 0]
        exact = sum(mobius(l // d) * (p**d + 1 - power_sum_of_roots(t, p, d)) for d in divisors)
        for i in range(c):
            total *= exact // l - i
        total *= l**c
    return total // (p + 1 - t)


def random_system(rng, nrows, ncols, nrhs):
    rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]

    def value():
        return Fraction(rng.randint(-20, 20), rng.randint(1, 7))

    sols = [[value() for _ in range(ncols)] for _ in range(nrhs)]
    cols = [[sum(a * x for a, x in zip(row, sol)) for row in rows] for sol in sols]
    return rows, cols, sols


@pytest.mark.parametrize("seed", range(6))
def test_batched_solve_equals_one_solve_per_column(seed):
    rng = random.Random(seed)
    ncols = rng.randint(1, 8)
    rows, cols, sols = random_system(rng, ncols + rng.randint(0, 6), ncols, rng.randint(1, 9))
    batched = gen.linsolve_exact(rows, cols)
    assert batched == [gen.linsolve_exact(rows, [col])[0] for col in cols] == sols


@pytest.mark.parametrize("bad", range(5))
def test_one_inconsistent_column_raises(bad):
    rng = random.Random(100 + bad)
    rows, cols, _ = random_system(rng, 9, 4, 5)
    cols[bad][rng.randrange(9)] += Fraction(1, 3)
    with pytest.raises(ValueError, match="inconsistent"):
        gen.linsolve_exact(rows, cols)
    gen.linsolve_exact(rows, cols[:bad] + cols[bad + 1:])


def test_underdetermined_system_raises():
    rng = random.Random(7)
    rows, cols, _ = random_system(rng, 6, 3, 2)
    rows = [row + [row[0] + row[1]] for row in rows]  # a fourth, dependent column
    with pytest.raises(ValueError, match="underdetermined"):
        gen.linsolve_exact(rows, cols)


def seeded_system(seed):
    """The system of `test_batched_solve_equals_one_solve_per_column`."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 8)
    return rng, random_system(rng, ncols + rng.randint(0, 6), ncols, rng.randint(1, 9))


def substitute(rows, x):
    return [sum(a * xi for a, xi in zip(row, x)) for row in rows]


@pytest.mark.parametrize("seed", range(6))
def test_every_solution_satisfies_every_row(seed):
    _, (rows, cols, _) = seeded_system(seed)
    sols = gen.linsolve_exact(rows, cols)
    assert len(sols) == len(cols)
    for x, col in zip(sols, cols):
        assert substitute(rows, x) == col


@pytest.mark.parametrize("seed", range(6))
def test_rows_with_fraction_entries(seed):
    # Each row and its right-hand sides scaled by an odd number of halves,
    # quarters, sixths or eighths: never integral, and the solutions stay.
    rng, (rows, cols, sols) = seeded_system(seed)
    scales = [Fraction(2 * rng.randint(-5, 4) + 1, 2 * rng.randint(1, 4)) for _ in rows]
    rows = [[a * s for a in row] for row, s in zip(rows, scales)]
    cols = [[b * s for b, s in zip(col, scales)] for col in cols]
    assert gen.linsolve_exact(rows, cols) == sols


def test_zero_first_pivot_forces_a_row_swap():
    rows = [[0, 2, 1], [3, 0, 1], [1, 1, 0], [2, -1, 4]]
    sols = [[Fraction(1, 2), -3, 2], [0, Fraction(5, 3), 1], [7, 0, Fraction(-1, 4)]]
    assert gen.linsolve_exact(rows, [substitute(rows, x) for x in sols]) == sols


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 37, 61])
def test_orbit_reduced_histogram_matches_the_brute_force_count(p):
    assert gen.elliptic_trace_histogram(p) == reference_trace_histogram(p)


def test_discriminant_coefficients_satisfy_the_hecke_relations():
    # Ramanujan's tau: tau(1) = 1, tau(11) = 534612, tau(m n) = tau(m) tau(n) for
    # coprime m, n, and tau(p^(k+1)) = tau(p) tau(p^k) - p^11 tau(p^(k-1))
    tau = gen.discriminant_form_coefficients(61)
    assert sorted(tau) == list(range(1, 62))
    assert tau[1] == 1 and tau[11] == 534612
    for m in range(2, 62):
        for n in range(2, 61 // m + 1):
            if gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)
    for p in (2, 3, 5, 7):
        k = 1
        while p ** (k + 1) <= 61:
            assert tau[p ** (k + 1)] == tau[p] * tau[p**k] - p**11 * tau[p ** (k - 1)], (p, k)
            k += 1


def test_orbit_counts_rebuild_the_point_counts(histograms):
    for p, hist in histograms.items():
        for t, orbits in zip(hist, gen.frobenius_orbit_counts(p, hist)):
            assert len(orbits) == gen.NUMERIC1_TRUNC + 1 and orbits[0] == 0
            for l in range(1, gen.NUMERIC1_TRUNC + 1):
                assert orbits[l] >= 0
                got = sum(d * orbits[d] for d in range(1, l + 1) if l % d == 0)
                assert got == p**l + 1 - power_sum_of_roots(t, p, l), (t, p, l)


def test_twisted_marked_count_matches_the_per_call_reference(histograms):
    # every class of arity <= 6 and (1^11), the class fitted at arity 11: the
    # product of its table entries on each curve, divided by the rational points
    lams = [lam for n in range(1, 7) for lam in gen_partitions(n)] + [(1,) * 11]
    for p, hist in histograms.items():
        table = gen.falling_table(gen.frobenius_orbit_counts(p, hist), gen.NUMERIC1_TRUNC)
        for lam in lams:
            counts = gen.class_counts(table, multiplicities(lam).items())
            assert len(counts) == len(hist)
            for t, count in zip(hist, counts):
                assert count == reference_marked_count(lam, t, p) * (p + 1 - t)


def reference_line_count(lam: tuple, p: int) -> int:
    """Twisted count of configurations of type lam on the projective line
    over F_p, from scratch: its exact-period-l Frobenius orbits number
    (1/l) sum_{d | l} mu(l/d) (p^d + 1)."""
    total = 1
    for l, c in multiplicities(lam).items():
        divisors = [d for d in range(1, l + 1) if l % d == 0]
        exact = sum(mobius(l // d) * (p**d + 1) for d in divisors) // l
        for i in range(c):
            total *= exact - i
        total *= l**c
    return total


def test_genus0_smooth_matches_the_line_count():
    smooth = gen.genus0_smooth(8)
    for lam in (lam for n in range(3, 9) for lam in gen_partitions(n)):
        poly = smooth[lam] * z_of(lam)
        for p in gen.PRIMES:
            assert poly.eval(p, 1) * (p**3 - p) == reference_line_count(lam, p), (lam, p)


def test_numeric_necklace_rank_at_order_11_truncates_to_order_10():
    # The generator builds the necklace rank and the ends-swapped rank once,
    # at order 11, and reads the order-10 truncation of the second.
    big = gen.numeric_necklace_rank(genus0_numeric_closed_form(12))
    small = gen.numeric_necklace_rank(genus0_numeric_closed_form(11))
    assert [part.order for part in big + small] == [11, 11, 10, 10]
    for b, s in zip(big, small):
        assert b.truncate(10) == s and str(b.truncate(10)) == str(s)


def test_ends_swapped_rank_is_the_falling_product():
    # k! [y^k] of the ends-swapped rank is q (q - 1) ... (q - k + 2) for k >= 1
    _, rk_vm = gen.numeric_necklace_rank(genus0_numeric_closed_form(9))
    for k in range(1, 9):
        want = 1
        for i in range(k - 1):
            want *= 5 - i
        assert rk_vm[k].eval(5, 1) * factorial(k) == want, k


def test_light_rows_give_the_series_back():
    # The shipped table's light rows give the shipped fixture, and the light
    # components of a seeded random series' heavy/light series give it back;
    # the heavy rows are handed over too, and must not be read.
    golden = parse_golden_pairs(GOLDEN_DIR / "genus2_weight0_table.txt")
    shipped = load_fixture("genus2_smooth_weight0").data
    assert gen.light_rows_series(golden, shipped.trunc) == shipped
    rng = random.Random(11)
    lams = [lam for n in range(1, 7) for lam in gen_partitions(n)]
    b = SymSeries({lam: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for lam in lams}, 6)
    res = open_series(SeriesFixture("random", 2, "weight0", b))
    rows = [SimpleNamespace(m=m, pairs=res.component(m, n).to_schur_pairs())
            for n in range(7) for m in range(7 - n)]
    assert gen.light_rows_series(rows, 6) == b


def test_regeneration_writes_the_benchmark_digests(tmp_path):
    # Regenerate every fixture from first principles on a copy of src/ and
    # tools/ that holds no .hlf, and compare the nine written files with the
    # digests in perfbench/expected.json (read only; the benchmark's record).
    skip = shutil.ignore_patterns("*.hlf", "__pycache__")
    for part in ("src", "tools"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=skip)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "HL_FIXTURE_DIR")}
    subprocess.run(
        [sys.executable, "tools/generate_fixtures.py", "--phase", "all"],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())["regen_sha256"]
    written = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*.hlf")
    }
    assert written == expected
