import random
from fractions import Fraction
from math import factorial

import pytest

from heavylight.powerseries import FormalPS1, FormalPS2, compose_ps1_into_ps2
from heavylight.uvpoly import UVPoly


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
    y = FormalPS1.identity("y", 4)
    inner = y + y * y
    outer = y.exp()
    direct = inner.exp()
    assert outer.compose(inner) == direct
    with pytest.raises(ValueError):
        outer.compose(y + 1)


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
