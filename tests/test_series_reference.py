"""The series kernel against a naive reference, on random series.

The reference keeps {key: {(a, b): Fraction}}, a key being one partition per
tensor factor, shares no code with the package and follows the definitions
(Macdonald, Symmetric Functions and Hall Polynomials, I.7-I.8): a double
loop over keys joining parts as multisets; p_lam o g as the product of the
psi^{lam_i}(g), one part at a time; Exp as the sum of h_n o f; the coproduct
as p_lam o (p_1^(1) + p_1^(2)); d/dp_k as m_k(lam) p_{lam minus one k}, summed
per key.  The coefficients are non-integral, on the off-diagonal monomials u
and v^2, as in the `offdiag` benchmark workload.  Every coefficient the
kernel returns is also checked to be in lowest terms, so that a missing
reduction cannot pass as an equal value, and every series the kernel builds
past the public constructor's checks is checked to pass them unchanged.

`pleth_inverse` is also compared with an arity-by-arity reference built on
the package's plethysm: it solves f o g = p_1 with one truncated plethysm
per arity, keeping its top arity, while the kernel solves g o f = p_1 in
one pass.  The two inverses must agree coefficient for coefficient.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, gcd, prod

from hypothesis import given, settings, strategies as st

from heavylight.bisymseries import BiSymSeries, coproduct
from heavylight.fixtures import load_fixture
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly

ARITY = 6


def partitions(n, top=None):
    """The partitions of n with parts at most `top`, weakly decreasing."""
    if n == 0:
        yield ()
    for k in range(min(n, top or n), 0, -1):
        for rest in partitions(n - k, k):
            yield (k,) + rest


def arity(key):
    return sum(map(sum, key))


def mul(f, g, out):
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            if arity(k1) + arity(k2) <= ARITY:
                key = tuple(tuple(sorted(a + b, reverse=True)) for a, b in zip(k1, k2))
                c = out.setdefault(key, Counter())
                for (a1, b1), x in c1.items():
                    for (a2, b2), y in c2.items():
                        c[a1 + a2, b1 + b2] += x * y
    return out


def adams(g, k):
    return {
        tuple(tuple(p * k for p in part) for part in key): {(a * k, b * k): x for (a, b), x in c.items()}
        for key, c in g.items()
        if k * arity(key) <= ARITY
    }


def pleth(f, g, factor):
    """f with every p_k of the chosen factor replaced by psi^k(g)."""
    out = {}
    for key, c in f.items():
        term = {key[:factor] + ((),) + key[factor + 1:]: c}
        for k in key[factor]:
            term = mul(term, adams(g, k), {})
        mul(term, {((),) * len(key): {(0, 0): 1}}, out)
    return out


def d_dpk(f, k):
    """The derivative by p_k of a one-factor series, term by term."""
    out = {}
    for (lam,), c in f.items():
        if k in lam:
            rest = list(lam)
            rest.remove(k)
            total = out.setdefault((tuple(rest),), Counter())
            for m, x in c.items():
                total[m] += x * lam.count(k)
    return out


def exp(f, width):
    """The sum over n >= 1 of h_n o f, with h_n = sum_lam p_lam / z_lam."""
    z = {lam: prod(k**m * factorial(m) for k, m in Counter(lam).items()) for lam in PARTITIONS[1:]}
    return pleth({(lam,) + ((),) * (width - 1): {(0, 0): Fraction(1, z[lam])} for lam in z}, f, 0)


def ref(x):
    """A package series, or a reference one with its zero terms dropped."""
    if isinstance(x, (SymSeries, BiSymSeries)):
        x = {(key,) if isinstance(x, SymSeries) else key: c.terms for key, c in x.coeffs.items()}
    terms = {key: {m: v for m, v in c.items() if v} for key, c in x.items()}
    return {key: c for key, c in terms.items() if c}


PARTITIONS = [lam for n in range(ARITY + 1) for lam in partitions(n)]
PAIRS = [(lam, mu) for lam in PARTITIONS for mu in PARTITIONS if sum(lam) + sum(mu) <= ARITY]
NON_INTEGRAL = st.builds(Fraction, st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)), st.sampled_from((5, 7, 11)))
COEFF = st.builds(lambda a, b: UVPoly({(1, 0): a, (0, 2): b}), NON_INTEGRAL, NON_INTEGRAL)
SETTINGS = settings(derandomize=True, database=None, max_examples=25, deadline=None)


def series(cls, keys, trunc=ARITY):
    return st.dictionaries(st.sampled_from(keys), COEFF, max_size=6).map(lambda c: cls(c, trunc))


SYM, SYM0 = series(SymSeries, PARTITIONS), series(SymSeries, PARTITIONS[1:])
BISYM, BISYM0 = series(BiSymSeries, PAIRS), series(BiSymSeries, PAIRS[1:])
INVERTIBLE = series(SymSeries, PARTITIONS[2:]).map(lambda f: f + SymSeries.power_sum(1, ARITY))
DEEP_KEYS = [lam for n in range(2, 9) for lam in partitions(n)]
INVERTIBLE_8 = series(SymSeries, DEEP_KEYS, 8).map(lambda f: f + SymSeries.power_sum(1, 8))


def in_lowest_terms(coeffs):
    """No zero numerator or zero coefficient, den > 0 and gcd(den, *nums) == 1."""
    return all(
        0 not in c.nums.values() and c.nums and c.den > 0 and gcd(c.den, *c.nums.values()) == 1
        for c in coeffs.values()
    )


@SETTINGS
@given(SYM, SYM, BISYM, BISYM)
def test_products_and_coproduct_match_the_reference(f, g, a, b):
    assert ref(f * g) == ref(mul(ref(f), ref(g), {}))
    assert ref(a * b) == ref(mul(ref(a), ref(b), {}))
    split = {((1,), ()): {(0, 0): 1}, ((), (1,)): {(0, 0): 1}}
    assert ref(coproduct(f)) == ref(pleth({key + ((),): c for key, c in ref(f).items()}, split, 0))


@SETTINGS
@given(SYM, SYM0, BISYM, BISYM0)
def test_plethysm_and_pleth2_match_the_reference(f, g, a, b):
    assert ref(f.plethysm(g)) == ref(pleth(ref(f), ref(g), 0))
    assert ref(a.pleth2(b)) == ref(pleth(ref(a), ref(b), 1))


@SETTINGS
@given(SYM0, BISYM0)
def test_exp_and_its_inverse_match_the_reference(f, a):
    assert ref(f.exp_series()) == ref(exp(ref(f), 1))
    assert ref(a.exp2()) == ref(exp(ref(a), 2))
    assert ref(exp(ref(f.log_series()), 1)) == ref(f)


@SETTINGS
@given(SYM)
def test_d_dpk_matches_the_reference(f):
    for k in (1, 2, 3):
        assert ref(f.d_dpk(k)) == ref(d_dpk(ref(f), k))


def passes_the_public_checks(s):
    """The public constructor keeps every key and coefficient of s and its trunc."""
    t = type(s)(s.coeffs, s.trunc)
    return (t.coeffs, t.trunc) == (s.coeffs, s.trunc)


@SETTINGS
@given(SYM, SYM0, BISYM, BISYM0, INVERTIBLE)
def test_kernel_outputs_are_in_lowest_terms(f, g, a, b, h):
    sym = (f * g, f * Fraction(-3, 5), f * 0, f.plethysm(g), g.exp_series(), g.log_series(),
           SymSeries.from_schur(f.coeffs, ARITY), h.pleth_inverse(), f.adams(2), f.adams(3))
    for s in sym:
        assert in_lowest_terms(s.coeffs) and in_lowest_terms(s.to_schur())
    bisym = (a * b, a * Fraction(-3, 5), a * 0, a.pleth2(b), b.exp2(), b.log2(),
             BiSymSeries.from_schur_pairs(a.coeffs, ARITY), a.adams(2), a.adams(3), coproduct(f))
    for s in bisym:
        assert in_lowest_terms(s.coeffs) and in_lowest_terms(s.to_schur_pairs())
    assert all(map(passes_the_public_checks, sym + bisym))


@SETTINGS
@given(INVERTIBLE)
def test_pleth_inverse_is_a_two_sided_inverse_of_the_reference(f):
    g = f.pleth_inverse()
    p1 = {((1,),): {(0, 0): 1}}
    assert ref(pleth(ref(f), ref(g), 0)) == p1
    assert ref(pleth(ref(g), ref(f), 0)) == p1


def reference_pleth_inverse(f):
    """The right inverse g, f o g = p_1, solved arity by arity: the arity-d
    part of g is minus that of (the arity >= 2 part of f) o g."""
    n = f.trunc
    higher = SymSeries({lam: c for lam, c in f.coeffs.items() if sum(lam) >= 2}, n)
    g = SymSeries.power_sum(1, n)
    for d in range(2, n + 1):
        err = higher.truncate(d).plethysm(g.truncate(d)).arity_part(d)
        coeffs = dict(g.coeffs)
        for lam, c in err.coeffs.items():
            coeffs[lam] = g[lam] - c
        g = SymSeries(coeffs, n)
    return g


def same_numerators(g, h):
    """Equal keys, and equal `nums` and `den` on every key."""
    return g.coeffs.keys() == h.coeffs.keys() and all(
        (c.nums, c.den) == (h.coeffs[k].nums, h.coeffs[k].den) for k, c in g.coeffs.items()
    )


@SETTINGS
@given(INVERTIBLE_8)
def test_pleth_inverse_equals_the_arity_by_arity_reference(f):
    assert same_numerators(f.pleth_inverse(), reference_pleth_inverse(f))


def test_rooted_tree_inverse_equals_the_arity_by_arity_reference():
    # The generator's genus-0 rooted-tree inverse: p_1 minus the p_1-derivative
    # of the smooth genus-0 series, at truncation 10.
    smooth = load_fixture("genus0_smooth").data
    f = SymSeries.power_sum(1, 10) - smooth.d_dp1().truncate(10)
    assert same_numerators(f.pleth_inverse(), reference_pleth_inverse(f))
