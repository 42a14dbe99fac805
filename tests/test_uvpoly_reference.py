"""UVPoly against a naive {(a, b) -> Fraction} reference, on random inputs.

The reference keeps one Fraction per term and follows the definitions with
no shared denominator, so a slip in UVPoly's common-denominator bookkeeping
(a missed gcd reduction, an operand left unscaled) shows up as a mismatch.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, strategies as st

from heavylight.uvpoly import UVPoly, parse_uvpoly

from strategies import examples


class Ref:
    """Sum of c * u^a * v^b, one Fraction per term, zero terms dropped."""

    def __init__(self, terms):
        self.terms = {k: Fraction(c) for k, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return Ref(out)

    def __neg__(self):
        return Ref({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Ref):
            return Ref({k: c * other for k, c in self.terms.items()})
        out = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return Ref(out)

    def __truediv__(self, c):
        return Ref({k: v / c for k, v in self.terms.items()})

    def adams(self, k):
        return Ref({(a * k, b * k): c for (a, b), c in self.terms.items()})

    def mirror(self, dim):
        return Ref({(dim - a, dim - b): c for (a, b), c in self.terms.items()})

    def eval(self, u0, v0):
        return sum((c * u0**a * v0**b for (a, b), c in self.terms.items()), Fraction(0))

    def __str__(self):
        keys = sorted(self.terms, reverse=True)
        return "+".join(f"{self.terms[a, b]}*u^{a}*v^{b}" for a, b in keys) or "0"


EXPONENT = st.integers(0, 4)
COEFF = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
TERMS = st.dictionaries(st.tuples(EXPONENT, EXPONENT), COEFF, max_size=6)
SCALAR = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))
SETTINGS = examples(75)


def agrees(p: UVPoly, ref: Ref) -> bool:
    return p.terms == ref.terms and str(p) == str(ref)


@SETTINGS
@given(TERMS, TERMS)
def test_ring_operations_match_the_reference(s, t):
    p, q, rp, rq = UVPoly(s), UVPoly(t), Ref(s), Ref(t)
    assert agrees(p, rp) and agrees(q, rq)
    assert agrees(p + q, rp + rq)
    assert agrees(p - q, rp - rq)
    assert agrees(p * q, rp * rq)
    assert agrees(p + 1, rp + Ref({(0, 0): 1}))
    assert agrees(2 - p, Ref({(0, 0): 2}) - rp)


@SETTINGS
@given(TERMS, SCALAR, st.integers(-9, 9))
def test_scalar_operations_match_the_reference(s, c, k):
    p, rp = UVPoly(s), Ref(s)
    assert agrees(p * c, rp * c) and agrees(c * p, rp * c)
    assert agrees(p / c, rp / c)
    assert agrees(p * k, rp * k)
    assert p.den > 0 and (p / c).den > 0


@SETTINGS
@given(TERMS, TERMS, st.integers(1, 4), st.integers(1, 4), COEFF, COEFF)
def test_adams_mirror_eval_match_the_reference(s, t, k, l, u0, v0):
    p, q, rp = UVPoly(s), UVPoly(t), Ref(s)
    assert agrees(p.adams(k), rp.adams(k))
    assert agrees(p.mirror(4), rp.mirror(4))
    assert p.eval(u0, v0) == rp.eval(u0, v0)
    # Adams operations compose, and evaluation is a ring map
    assert p.adams(k).adams(l) == p.adams(k * l)
    pv, qv = p.eval(u0, v0), q.eval(u0, v0)
    assert (p * q).eval(u0, v0) == pv * qv and (p + q).eval(u0, v0) == pv + qv


@SETTINGS
@given(TERMS)
def test_canonical_form_and_text_round_trip(s):
    p = UVPoly(s)
    assert p - p == UVPoly.zero() and hash(p - p) == hash(UVPoly.zero())
    assert parse_uvpoly(str(p)) == p
    assert p.den > 0 and all(p.nums.values()) and gcd(p.den, *p.nums.values()) == 1
    assert UVPoly(p.terms) == p and hash(UVPoly(p.terms)) == hash(p)


def test_equal_values_are_equal_and_hash_alike():
    half = UVPoly({(0, 0): Fraction(2, 4)})
    assert half == UVPoly.const(Fraction(1, 2))
    assert hash(half) == hash(UVPoly.const(Fraction(1, 2)))
    third = UVPoly.monomial(1, 0, Fraction(1, 6)) + UVPoly.monomial(1, 0, Fraction(1, 6))
    assert third == UVPoly.monomial(1, 0, Fraction(1, 3))
    assert hash(third) == hash(UVPoly.monomial(1, 0, Fraction(1, 3)))
    assert UVPoly.zero().den == 1 and (half - half).den == 1
