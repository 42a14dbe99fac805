import random
from fractions import Fraction

import pytest

from heavylight.bisymseries import BiSymSeries, coproduct, exp2_of_p1
from heavylight.partitions import gen_partitions
from heavylight.powerseries import FormalPS2
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly
from heavylight.verify import _cases, _coproduct_case, _rank_composition_case, random_bi

T = 6


def P(k, factor, t=T):
    return BiSymSeries.power_sum(k, factor, t)


def test_inject():
    assert BiSymSeries.inject(SymSeries.power_sum(2, T), 2) == P(2, 2)
    assert BiSymSeries.inject(SymSeries.one(T), 1) == BiSymSeries.one(T)
    h2 = SymSeries.homogeneous_h(2, T)
    assert BiSymSeries.inject(h2, 1) == BiSymSeries(
        {((1, 1), ()): Fraction(1, 2), ((2,), ()): Fraction(1, 2)}, T
    )


def test_inject_is_ring_map():
    rng = random.Random(12)
    for _ in range(20):
        f = SymSeries(
            {gen_partitions(rng.randint(0, 3))[0]: rng.randint(1, 3)}, T
        )
        g = SymSeries({gen_partitions(rng.randint(0, 3))[-1]: rng.randint(1, 3)}, T)
        for j in (1, 2):
            assert BiSymSeries.inject(f * g, j) == BiSymSeries.inject(f, j) * BiSymSeries.inject(g, j)


def test_pleth2_axioms():
    assert P(2, 2).pleth2(P(3, 1)) == BiSymSeries({((6,), ()): 1}, T)
    g = P(1, 2) + P(1, 1) * P(1, 2)
    assert P(2, 1).pleth2(g) == P(2, 1)
    u = UVPoly.monomial(1, 0)
    lhs = (P(1, 1) * P(1, 2)).pleth2(BiSymSeries({((), (1,)): u}, T))
    assert lhs == BiSymSeries({((1,), (1,)): u}, T)
    with pytest.raises(ValueError):
        P(1, 2).pleth2(BiSymSeries.one(T))


def test_exp2():
    E = exp2_of_p1(T)
    assert P(1, 2).exp2() == E
    h_sum = sum((SymSeries.homogeneous_h(n, T) for n in range(1, T + 1)), SymSeries.zero(T))
    assert E == BiSymSeries.inject(h_sum, 2)
    r = E.rank2()
    from math import factorial

    for n in range(1, T + 1):
        assert r[(0, n)] == UVPoly.const(Fraction(1, factorial(n)))
    assert BiSymSeries.zero(T).exp2() == BiSymSeries.zero(T)
    comp = P(1, 2).exp2().arity_components()[0, 2]
    assert comp == BiSymSeries.inject(SymSeries.homogeneous_h(2, T), 2)


def test_rank2():
    assert (P(1, 1) * P(1, 2)).rank2()[(1, 1)] == UVPoly.one()
    assert P(2, 1).rank2() == FormalPS2(("x", "y"), {}, T)
    h2 = BiSymSeries.inject(SymSeries.homogeneous_h(2, T), 2)
    assert h2.rank2()[(0, 2)] == UVPoly.const(Fraction(1, 2))


def test_to_schur_pairs():
    sp = (P(1, 1) * P(1, 2)).to_schur_pairs()
    assert sp == {((1,), (1,)): UVPoly.one()}
    h2 = BiSymSeries.inject(SymSeries.homogeneous_h(2, T), 2)
    assert h2.to_schur_pairs() == {((), (2,)): UVPoly.one()}
    sq = (P(1, 2) * P(1, 2)).to_schur_pairs()
    assert sq == {((), (2,)): UVPoly.one(), ((), (1, 1)): UVPoly.one()}


def test_pleth2_associativity_random():
    rng = random.Random(13)
    for _ in range(30):
        f, g, k = (random_bi(rng, 6) for _ in range(3))
        assert f.pleth2(g).pleth2(k) == f.pleth2(g.pleth2(k))


def test_rank2_carries_pleth2_to_composition():
    # the property suite's case, on twice its 10 cases
    assert _cases(random.Random(14), 20, _rank_composition_case) == (True, "20 cases")


def test_coproduct():
    p2 = SymSeries.power_sum(2, T)
    assert coproduct(p2) == P(2, 1) + P(2, 2)
    assert coproduct(SymSeries.one(T)) == BiSymSeries.one(T)
    h2 = SymSeries.homogeneous_h(2, T)
    expected = (
        BiSymSeries.inject(h2, 1)
        + P(1, 1) * P(1, 2)
        + BiSymSeries.inject(h2, 2)
    )
    assert coproduct(h2) == expected


def test_coproduct_keeps_the_coefficient_of_a_weight_one_term():
    c = UVPoly({(1, 2): Fraction(3, 4)})
    out = coproduct(SymSeries({(2, 1, 1): c}, T)).coeffs
    assert out[(2, 1, 1), ()] is c and out[(2,), (1, 1)] is c
    assert out[(2, 1), (1,)] == 2 * c


def test_coproduct_properties():
    # the property suite's case, on twice its 10 cases
    assert _cases(random.Random(15), 20, _coproduct_case) == (True, "20 cases")


def test_exp1():
    # exp2 and log2 serve factor 1 as well: the Adams maps scale both factors
    total = SymSeries.zero(T)
    for n in range(1, T + 1):
        total = total + SymSeries.homogeneous_h(n, T)
    assert P(1, 1).exp2() == BiSymSeries.inject(total, 1)
    assert P(1, 1).exp2().rank2()[(2, 0)] == UVPoly.const(Fraction(1, 2))
    rng = random.Random(17)
    for _ in range(5):
        f = random_bi(rng, 6)
        assert f.exp2().log2() == f
        assert f.swap_factors().exp2() == f.exp2().swap_factors()


def test_operands_of_another_type_are_refused_at_the_boundary():
    # these used to fail inside the kernel, with AttributeError or
    # "unsupported operand type(s) for +: 'int' and 'tuple'"
    s, b = SymSeries.power_sum(1, T), P(1, 2)
    for x, y, op in [(s, 0.5, "*"), (b, 0.5, "*"), (s, 0.5, "+"), (0.5, b, "+"),
                     (s, b, "*"), (b, s, "*"), (s, b, "+"), (b, s, "+")]:
        pair = f"'{type(x).__name__}' and '{type(y).__name__}'"
        with pytest.raises(TypeError, match=f"unsupported operand type\\(s\\) for \\{op}: {pair}"):
            x * y if op == "*" else x + y
    with pytest.raises(TypeError, match="cannot substitute a BiSymSeries into a SymSeries"):
        s.plethysm(b)
    with pytest.raises(TypeError, match="cannot substitute a SymSeries into a BiSymSeries"):
        b.pleth2(s)
    assert UVPoly.monomial(1, 0) * s == s * UVPoly.monomial(1, 0)
