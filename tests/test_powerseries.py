import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from heavylight.powerseries import FormalPS1, FormalPS2, compose_ps1_into_ps2
from heavylight.uvpoly import UVPoly
from strategies import COEFF, examples


def const_series(values, var="y"):
    return FormalPS1(var, [UVPoly.const(Fraction(v)) for v in values], len(values) - 1)


def test_exp_of_the_identity_is_the_factorial_series():
    # e^y - 1 at every order, order 0 included, where the identity is zero
    for order in range(16):
        coeffs = [0] + [Fraction(1, factorial(j)) for j in range(1, order + 1)]
        want = FormalPS1("y", coeffs, order)
        got = FormalPS1.identity("y", order).exp() - 1
        assert got == want and str(got) == str(want) and got.order == order


def test_log_small():
    one_minus_y = const_series([1, -1, 0, 0])
    assert one_minus_y.log() == const_series([0, -1, Fraction(-1, 2), Fraction(-1, 3)])


def test_compose():
    # e^y composed with y + y^2 is e^y e^(y^2), a product of two factorial series
    y = FormalPS1.identity("y", 4)
    exp_y = const_series([Fraction(1, factorial(k)) for k in range(5)])
    exp_y2 = const_series([0 if k % 2 else Fraction(1, factorial(k // 2)) for k in range(5)])
    assert y.exp().compose(y + y * y) == exp_y * exp_y2
    with pytest.raises(ValueError):
        y.exp().compose(y + 1)


def test_exp_log_round_trip_random():
    rng = random.Random(3)
    for _ in range(20):
        coeffs = [UVPoly.zero()] + [
            UVPoly.const(Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
            for _ in range(6)
        ]
        f = FormalPS1("y", coeffs, 6)
        assert f.exp().log() == f
        one_plus = f + UVPoly.one()
        assert one_plus.log().exp() == one_plus


@examples(30)
@given(st.integers(1, 8).flatmap(lambda n: st.lists(COEFF, min_size=n, max_size=n)))
def test_exp_and_log_solve_their_defining_equations(tail):
    # off-diagonal, non-integral coefficients at orders 1 to 8: e = exp(f) is the
    # solution of e' = f' e with e_0 = 1, and lg = log(g) that of lg' g = g' with lg_0 = 0
    f = FormalPS1("y", [0, *tail], len(tail))
    e = f.exp()
    assert e[0] == UVPoly.one() and e.derivative() == f.derivative() * e
    g = f + 1
    lg = g.log()
    assert lg[0].is_zero() and lg.derivative() * g == g.derivative()


def reference_reversion(f):
    """The inverse corrected one order at a time: one full composition per order."""
    inv = FormalPS1.identity(f.var, f.order)
    for n in range(2, f.order + 1):
        err = f.compose(inv.truncate(n))[n]
        inv = FormalPS1(f.var, [inv[k] for k in range(n)] + [inv[n] - err], f.order)
    return inv


def test_reversion():
    y = FormalPS1.identity("y", 6)
    f = y.exp() - 1
    g = f.reversion()
    # inverse of e^y - 1 is log(1+y)
    expected = (y + 1).log()
    assert g == expected
    assert f.compose(g) == y and g.compose(f) == y
    # order 11, off-diagonal Fraction coefficients and a zero coefficient of x^2
    rng = random.Random(38)
    tail = random_ps1(rng, 11)
    f = FormalPS1("x", [0, 1, 0] + [tail[k] for k in range(3, 12)], 11)
    assert sum(a != b for c in f.coeffs.values() for a, b in c.nums) >= 3
    g, want = f.reversion(), reference_reversion(f)
    x = FormalPS1.identity("x", 11)
    assert g == want and str(g) == str(want)
    assert f.compose(g) == x and g.compose(f) == x
    for order in (1, 2):  # the lowest orders, with no column or one
        h = (x + x * x).truncate(order)
        assert h.reversion() == reference_reversion(h)


def test_derivative():
    f = const_series([5, 1, Fraction(1, 2), Fraction(1, 6)])
    assert f.derivative() == const_series([1, 1, Fraction(1, 2)])


def test_ps2_multiplication_and_truncation():
    x = FormalPS2.variable(("x", "y"), 1, 3)
    y = FormalPS2.variable(("x", "y"), 2, 3)
    f = (x + y) * (x + y)
    assert f[(2, 0)] == UVPoly.one()
    assert f[(1, 1)] == UVPoly.const(2)
    g = f * f
    assert g.order == 3
    assert all(i + j <= 3 for (i, j) in g.coeffs)


def test_compose_ps1_into_ps2():
    # substitute x -> x + y into e^x
    e = FormalPS1.identity("x", 4).exp()
    w = FormalPS2.variable(("x", "y"), 1, 4) + FormalPS2.variable(("x", "y"), 2, 4)
    out = compose_ps1_into_ps2(e, w)
    from math import comb, factorial

    for i in range(5):
        for j in range(5 - i):
            assert out[(i, j)] == UVPoly.const(
                Fraction(comb(i + j, i), factorial(i + j))
            )
    with pytest.raises(ValueError):
        compose_ps1_into_ps2(e, w + 1)


def random_ps1(rng, order, constant_term=True):
    """A seeded FormalPS1 in x with small rational UVPoly coefficients."""
    coeffs = [
        UVPoly({(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                for _ in range(rng.randint(0, 2))})
        for _ in range(order + 1)
    ]
    if not constant_term:
        coeffs[0] = UVPoly.zero()
    return FormalPS1("x", coeffs, order)


def embed(f):
    """x^i -> x^i y^0: a univariate series as a bivariate one."""
    return FormalPS2(("x", "y"), {(i, 0): c for i, c in f.coeffs.items()}, f.order)


def test_embedding_into_ps2_commutes_with_the_ring():
    # FormalPS1 and FormalPS2 share one ring kernel on two exponent types;
    # each operation on univariate series must match the same operation on
    # their embeddings, term by term and in the truncation order.
    def matches(f, big):
        return f.order == big.order and {(i, 0): c for i, c in f.coeffs.items()} == big.coeffs

    rng = random.Random(7)
    for _ in range(25):
        f, g = random_ps1(rng, rng.randint(0, 6)), random_ps1(rng, rng.randint(0, 6))
        inner = random_ps1(rng, rng.randint(0, 6), constant_term=False)
        k = rng.randint(0, 7)
        assert matches(f + g, embed(f) + embed(g))
        assert matches(f - g, embed(f) - embed(g))
        assert matches(f * g, embed(f) * embed(g))
        assert matches(f.truncate(k), embed(f).truncate(k))
        assert matches(f.compose(inner), compose_ps1_into_ps2(f, embed(inner)))


def test_a_foreign_operand_is_refused_naming_the_operator():
    # these used to fail inside the ring with AttributeError ('coeffs', 'order')
    # or, for a difference, name `+`
    f, big = FormalPS1.identity("y", 3), FormalPS2.variable(("x", "y"), 1, 3)
    for x, y, op in [(f, 0.5, "+"), (f, 0.5, "*"), (f, 0.5, "-"), (0.5, f, "+"), (0.5, f, "*"),
                     (0.5, f, "-"), (f, big, "+"), (f, big, "*"), (big, f, "-"), (f, None, "*")]:
        pair = f"'{type(x).__name__}' and '{type(y).__name__}'"
        with pytest.raises(TypeError, match=f"unsupported operand type\\(s\\) for \\{op}: {pair}"):
            eval(f"x {op} y", {"x": x, "y": y})
    assert UVPoly.one() + f == f + UVPoly.one()


def reference_product(f, g):
    """f * g one UVPoly term product at a time, each added into a UVPoly sum."""
    n = min(f.order, g.order)
    out: dict = {}
    for e1, c1 in f.coeffs.items():
        for e2, c2 in g.coeffs.items():
            if f._degree(e1) + f._degree(e2) <= n:
                e = f._key_add(e1, e2)
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return f._like(out, n)


def reference_substitution(outer, inner):
    """outer(inner) by the power loop, adding each outer[i] * inner^i as a whole series."""
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    acc = inner._like({inner._ONE: outer[0]}, n)
    power = inner._like({inner._ONE: UVPoly.one()}, n)
    for i in range(1, n + 1):
        power = reference_product(power, inner)
        if not outer[i].is_zero():
            acc = acc + power * outer[i]
    return acc


def random_ps2(rng, order, constant_term=True):
    """A seeded FormalPS2 in x, y with off-diagonal Fraction UVPoly coefficients."""
    coeffs = {
        (i, j): UVPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                        Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))
                        for _ in range(rng.randint(0, 3))})
        for i in range(order + 1) for j in range(order + 1 - i)
    }
    if not constant_term:
        coeffs[0, 0] = UVPoly.zero()
    return FormalPS2(("x", "y"), coeffs, order)


def assert_same(got, want):
    assert got == want and str(got) == str(want) and got.order == want.order


@pytest.mark.parametrize("seed", range(4))
def test_products_and_substitution_match_the_reference(seed):
    # orders 0 and 1 included; the outer series once with a zero constant term and once
    # with a nonzero one, and with a zero middle coefficient
    rng = random.Random(400 + seed)
    for order in (0, 1, 2, 3, 5):
        f, g = random_ps1(rng, order), random_ps1(rng, order + rng.randint(0, 2))
        big_f, big_g = random_ps2(rng, order), random_ps2(rng, order + rng.randint(0, 2))
        assert_same(f * g, reference_product(f, g))
        assert_same(big_f * big_g, reference_product(big_f, big_g))
        inner1 = random_ps1(rng, order + rng.randint(0, 1), constant_term=False)
        inner2 = random_ps2(rng, order + rng.randint(0, 1), constant_term=False)
        tail = random_ps1(rng, order)
        for head in (UVPoly.zero(), UVPoly.monomial(1, 0, Fraction(-2, 3))):
            coeffs = [head] + [tail[k] for k in range(1, order + 1)]
            if order >= 3:
                coeffs[2] = UVPoly.zero()
            outer = FormalPS1("x", coeffs, order)
            assert_same(outer.compose(inner1), reference_substitution(outer, inner1))
            assert_same(compose_ps1_into_ps2(outer, inner2), reference_substitution(outer, inner2))
    assert sum(a != b for c in big_f.coeffs.values() for a, b in c.nums) >= 3


def test_a_product_coefficient_that_cancels_is_dropped():
    # u/2 x + v/3 y times -3u/5 x + 2v/5 y: the two terms of x y are uv/5 and -uv/5, added
    # over the lcm 30 of their denominators 10 and 15
    half, third = UVPoly.monomial(1, 0, Fraction(1, 2)), UVPoly.monomial(0, 1, Fraction(1, 3))
    f = FormalPS2(("x", "y"), {(1, 0): half, (0, 1): third}, 2)
    g = FormalPS2(("x", "y"), {(1, 0): UVPoly.monomial(1, 0, Fraction(-3, 5)),
                               (0, 1): UVPoly.monomial(0, 1, Fraction(2, 5))}, 2)
    got = f * g
    assert_same(got, reference_product(f, g))
    assert sorted(got.coeffs) == [(0, 2), (2, 0)]
    assert str(got) == "(2/15*u^0*v^2)*x^0*y^2 + (-3/10*u^2*v^0)*x^2*y^0"
    # and one that cancels to zero by truncation alone
    assert_same(f.truncate(1) * g, FormalPS2(("x", "y"), {}, 1))
