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
one pass.  The two inverses must agree coefficient for coefficient.  So must
Exp and Log at arity 8 with two routes built on the package's series
products: Exp by the Newton recurrence, Log from the powers of the series.
Their rank specializations must also equal exp and log of the truncated
power series in powerseries.py, the independent route.
"""

from collections import Counter
from fractions import Fraction
from math import factorial, gcd, prod

import pytest
from hypothesis import example, given, strategies as st

from heavylight.bisymseries import BiSymSeries, coproduct
from heavylight.fixtures import load_fixture
from heavylight.pipeline import _mask_stability
from heavylight.symseries import SymSeries, mobius
from heavylight.uvpoly import UVPoly

from strategies import COEFF, examples, key_lists

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


PARTITIONS, PAIRS = key_lists(ARITY, partitions)
SETTINGS = examples(25)


def series(cls, keys, trunc=ARITY):
    return st.dictionaries(st.sampled_from(keys), COEFF, max_size=6).map(lambda c: cls(c, trunc))


SYM, SYM0 = series(SymSeries, PARTITIONS), series(SymSeries, PARTITIONS[1:])
BISYM, BISYM0 = series(BiSymSeries, PAIRS), series(BiSymSeries, PAIRS[1:])
INVERTIBLE = series(SymSeries, PARTITIONS[2:]).map(lambda f: f + SymSeries.power_sum(1, ARITY))
DEEP_KEYS = [lam for n in range(2, 9) for lam in partitions(n)]
INVERTIBLE_8 = series(SymSeries, DEEP_KEYS, 8).map(lambda f: f + SymSeries.power_sum(1, 8))
LOW_KEYS = [lam for lam in PARTITIONS if 0 < sum(lam) <= 3]  # so that products reach arity 8
LOW_PAIRS = [(lam, mu) for lam, mu in PAIRS if 0 < sum(lam) + sum(mu) <= 3]
SYM0_8, BISYM0_8 = series(SymSeries, LOW_KEYS, 8), series(BiSymSeries, LOW_PAIRS, 8)


def in_lowest_terms(coeffs):
    """No zero numerator or zero coefficient, den > 0 and gcd(den, *nums) == 1."""
    return all(
        0 not in c.nums.values() and c.nums and c.den > 0 and gcd(c.den, *c.nums.values()) == 1
        for c in coeffs.values()
    )


def _two_denominators(cls, keys):
    """A product of two two-term series whose key `keys[1]` gets u/5 * u/7 + u/11 * u/2:
    two products over the denominators 35 and 22 on one output key and monomial."""
    def series(c0, c1):
        return cls({keys[0]: UVPoly({(1, 0): c0}), keys[1]: UVPoly({(1, 0): c1})}, ARITY)
    return series(Fraction(1, 5), Fraction(1, 11)), series(Fraction(1, 2), Fraction(1, 7))


@SETTINGS
@given(SYM, SYM, BISYM, BISYM)
@example(*_two_denominators(SymSeries, [(), (1,)]),
         *_two_denominators(BiSymSeries, [((), ()), ((), (1,))]))
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
    assert ref(exp(ref(a.log2()), 2)) == ref(a)


def test_exp_and_log_refuse_a_nonzero_constant_term():
    f = SymSeries({(): Fraction(1, 3), (1,): 1}, 4)
    a = BiSymSeries({((), ()): UVPoly({(1, 0): 1}), ((), (1,)): 1}, 4)
    for op in (f.exp_series, f.log_series, a.exp2, a.log2):
        with pytest.raises(ValueError, match="zero constant term"):
            op()


@SETTINGS
@given(SYM)
def test_d_dpk_matches_the_reference(f):
    for k in (1, 2, 3):
        assert ref(f.d_dpk(k)) == ref(d_dpk(ref(f), k))


def passes_the_public_checks(s):
    """The public constructor keeps every key and coefficient of s and its trunc."""
    t = type(s)(s.coeffs, s.trunc)
    return (t.coeffs, t.trunc) == (s.coeffs, s.trunc)



def test_a_monomial_that_cancels_leaves_no_zero_numerator():
    # (1 + u)(1 - u) = 1 - u^2: the running sum of u is 0 and must not be kept
    f = SymSeries({(1,): UVPoly({(0, 0): 1, (1, 0): 1})}, 2)
    g = SymSeries({(1,): UVPoly({(0, 0): 1, (1, 0): -1})}, 2)
    assert (f * g).coeffs == {(1, 1): UVPoly({(0, 0): 1, (2, 0): -1})}
    assert in_lowest_terms((f * g).coeffs)

@SETTINGS
@given(SYM, SYM0, BISYM, BISYM0, INVERTIBLE)
def test_kernel_outputs_are_in_lowest_terms(f, g, a, b, h):
    sym = (f * g, f * Fraction(-3, 5), f * 0, f.plethysm(g), g.exp_series(), g.log_series(),
           SymSeries.from_schur(f.coeffs, ARITY), h.pleth_inverse(), f.adams(2), f.adams(3))
    for s in sym:
        assert in_lowest_terms(s.coeffs) and in_lowest_terms(s.to_schur())
    sym += (f.truncate(3), -f, f.arity_part(2), f.d_dpk(1), a.set_factor2_to_zero())
    bisym = (a * b, a * Fraction(-3, 5), a * 0, a.pleth2(b), b.exp2(), b.log2(),
             BiSymSeries.from_schur_pairs(a.coeffs, ARITY), a.adams(2), a.adams(3), coproduct(f))
    bisym += (a.truncate(3), -a, a.swap_factors(), _mask_stability(1, a),
              BiSymSeries.inject(f, 1), BiSymSeries.inject(f, 2), *a.arity_components().values())
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


def reference_exp_newton(f):
    """Exp by the Newton recurrence m (h_m o f) = sum_k (p_k o f)(h_{m-k} o f),
    one truncated series product per term."""
    n = f.trunc
    h_of, p_of = [f.one(n)], {k: f.adams(k) for k in range(1, n + 1)}
    for m in range(1, n + 1):
        h_of.append(sum((p_of[k] * h_of[m - k] for k in range(1, m + 1)), f.zero(n)) * Fraction(1, m))
    return sum(h_of[1:], f.zero(n))


def reference_log_powers(f):
    """Log as sum_d mu(d)/d * adams_d(L), with L = log(1 + f) summed from the
    powers f^m as sum_m (-1)^(m-1) f^m / m."""
    n = f.trunc
    log1p, power = f.zero(n), f.one(n)
    for m in range(1, n + 1):
        power = power * f
        log1p = log1p + power * Fraction((-1) ** (m - 1), m)
    return sum((log1p.adams(d) * Fraction(mobius(d), d) for d in range(1, n + 1)), f.zero(n))


@SETTINGS
@given(SYM0_8, BISYM0_8)
def test_exp_and_log_equal_the_old_routes_at_arity_8(f, a):
    assert same_numerators(f.exp_series(), reference_exp_newton(f))
    assert same_numerators(f.log_series(), reference_log_powers(f))
    assert same_numerators(a.exp2(), reference_exp_newton(a))
    assert same_numerators(a.log2(), reference_log_powers(a))


@SETTINGS
@given(SYM0_8)
def test_exp_and_log_match_the_power_series_route_at_arity_8(f):
    # rank1 sends every p_k with k >= 2 to 0, so Exp becomes exp - 1 and Log log(1 + .)
    y = f.rank1("y")
    assert f.exp_series().rank1("y") == y.exp() - 1
    assert f.log_series().rank1("y") == (y + 1).log()
