import random
from fractions import Fraction

import pytest

from heavylight.bisymseries import BiSymSeries
from heavylight.partitions import gen_partitions, mn_character, z_of
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly
from heavylight.verify import _cases, _ring_map_case, random_bi, random_sparse

T = 6


def p(k, t=T):
    return SymSeries.power_sum(k, t)


def h(n, t=T):
    return SymSeries.homogeneous_h(n, t)


def test_multiplication():
    assert p(1) * p(1) == SymSeries({(1, 1): 1}, T)
    assert p(2) * SymSeries({(2, 1): 1}, T) == SymSeries({(2, 2, 1): 1}, T)
    # h_2 * h_1 expands and collects in the power-sum basis
    assert h(2) * h(1) == SymSeries(
        {(1, 1, 1): Fraction(1, 2), (2, 1): Fraction(1, 2)}, T
    )


def test_homogeneous():
    assert h(0) == SymSeries.one(T)
    assert h(1) == p(1)
    assert h(2) == SymSeries({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)}, T)


def test_plethysm_examples():
    assert p(2).plethysm(p(1) + p(2)) == p(2) + SymSeries.power_sum(4, T)
    u = UVPoly.monomial(1, 0)
    assert p(2).plethysm(p(1) * u) == SymSeries({(2,): UVPoly.monomial(2, 0)}, T)
    assert h(2).plethysm(p(2)) == SymSeries(
        {(2, 2): Fraction(1, 2), (4,): Fraction(1, 2)}, T
    )
    with pytest.raises(ValueError):
        p(2).plethysm(SymSeries.one(T))


def test_power_sum_plethysm_is_a_ring_map_that_maps_coefficients_by_adams():
    # the property suite's case, on other draws
    assert _cases(random.Random(16), 20, _ring_map_case) == (True, "20 cases")


def test_plethysm_degenerate_zero():
    f = SymSeries({(): 3, (2, 1): 1}, T)
    assert f.plethysm(SymSeries.zero(T)) == SymSeries({(): 3}, T)


def test_exp_series():
    e = p(1, 3).exp_series()
    expected = (
        p(1, 3)
        + h(2, 3)
        + h(3, 3)
    )
    assert e == expected
    assert SymSeries.zero(T).exp_series() == SymSeries.zero(T)
    r = p(1).exp_series().rank1("y")
    from math import factorial

    for n in range(1, T + 1):
        assert r[n] == UVPoly.const(Fraction(1, factorial(n)))
    assert r[0].is_zero()


def test_pleth_inverse():
    assert p(1).pleth_inverse() == p(1)
    f = p(1, 3) + p(1, 3) * p(1, 3)
    g = f.pleth_inverse()
    assert g == SymSeries({(1,): 1, (1, 1): -1, (1, 1, 1): 2}, 3)
    e = SymSeries.zero(8)
    for n in range(1, 9):
        e = e + h(n, 8)
    log = e.pleth_inverse()
    p1 = p(1, 8)
    assert e.plethysm(log) == p1
    assert log.plethysm(e) == p1
    with pytest.raises(ValueError):
        (p(2) + p(1) * 2).pleth_inverse()


def test_the_plethystic_inverse_of_exp_p1_is_log_p1():
    # Exp(g) = H o g with H = sum h_n = Exp(p_1), so Log(p_1), the g with H o g = p_1,
    # is the plethystic inverse of H
    for t in range(1, 11):
        p1 = SymSeries.power_sum(1, t)
        assert p1.exp_series().pleth_inverse() == p1.log_series(), t


def test_exp_log_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        f = random_sparse(rng, 8)
        assert f.exp_series().log_series() == f
        assert f.log_series().exp_series() == f


def test_d_dp1():
    assert SymSeries({(1, 1): 1}, T).d_dp1() == p(1) * 2
    assert p(2).d_dp1() == SymSeries.zero(T)
    assert h(3).d_dp1() == h(2)


def test_schur_conversion():
    assert (p(1) * p(1)).to_schur() == {(2,): UVPoly.one(), (1, 1): UVPoly.one()}
    for n in range(1, 6):
        assert h(n).to_schur() == {(n,): UVPoly.one()}
    s11 = SymSeries.from_schur({(1, 1): 1}, T)
    assert s11 == SymSeries({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}, T)


def test_schur_round_trip_random():
    rng = random.Random(9)
    for _ in range(10):
        f = random_sparse(rng, 8, lowest=0)
        assert SymSeries.from_schur(f.to_schur(), 8) == f
    # converse direction: random Schur data survives the round trip
    for _ in range(10):
        n = rng.randint(0, 8)
        parts = gen_partitions(n)
        data = {parts[rng.randrange(len(parts))]: UVPoly.const(rng.choice([-2, 1, 3]))}
        back = SymSeries.from_schur(data, 8).to_schur()
        assert back == {k: v for k, v in data.items() if not v.is_zero()}


def test_schur_of_the_sign_character():
    # e_3 = s_{1,1,1} is the Frobenius characteristic of the sign character
    sign3 = {lam: Fraction(signature(lam), z_of(lam)) for lam in gen_partitions(3)}
    assert SymSeries.from_schur({(1, 1, 1): 1}, T) == SymSeries(sign3, T)


def signature(lam):
    return (-1) ** (sum(lam) - len(lam))


def test_trace_from_ch():
    assert h(2).trace_from_ch((2,)) == UVPoly.one()
    assert h(2).trace_from_ch((1, 1)) == UVPoly.one()
    assert (p(1) * p(1)).trace_from_ch((1, 1)) == UVPoly.const(2)
    pair = BiSymSeries({((1,), (2, 1)): Fraction(1, 2)}, T)
    assert pair.trace_from_ch(((1,), (2, 1))) == UVPoly.one()
    with pytest.raises(ValueError, match="arity exceeds truncation"):
        h(2).trace_from_ch((1,) * (T + 1))
    with pytest.raises(ValueError, match="arity exceeds truncation"):
        pair.trace_from_ch(((1,), (1,) * T))


def test_rank1():
    assert h(3).rank1()[3] == UVPoly.const(Fraction(1, 6))
    assert p(2).rank1() == SymSeries.zero(T).rank1()
    s21 = SymSeries.from_schur({(2, 1): 1}, T)
    assert s21.rank1()[3] == UVPoly.const(Fraction(1, 3))
    assert mn_character((2, 1), (1, 1, 1)) == 2


def test_non_canonical_keys_are_rejected():
    # (1, 2) and (2, 1) name the same p_1 p_2; accepting both would make
    # equal series compare unequal and break the canonical order.  A Schur
    # key is checked the same way: s_{1,3} is no Schur function.
    for bad in [(1, 2), (0,), (2, -1), (2.0, 1), (1, 3)]:
        for make in (SymSeries, SymSeries.from_schur):
            with pytest.raises(ValueError, match="not canonical"):
                make({bad: 1}, 5)
    for bad in [((1, 2), ()), ((1,),), ((), (1, 3)), ((2,), (1,), ())]:
        for make in (BiSymSeries, BiSymSeries.from_schur_pairs):
            with pytest.raises(ValueError, match="not canonical"):
                make({bad: 1}, 5)
    assert SymSeries({(2, 1): 1}, 5) == p(2, 5) * p(1, 5)
    assert str(BiSymSeries({((2, 1), (1,)): 1}, 5)) == "(1*u^0*v^0)*p1[2,1]*p2[1]"


def test_a_foreign_operand_of_a_difference_is_refused_naming_minus():
    # `-` was `self + (-other)`, so a float operand was reported as one of `+`
    s, b = p(1, 3), BiSymSeries.inject(p(1, 3), 1)
    for x, y in [(s, 0.5), (0.5, s), (s, b), (b, s), (s, None)]:
        pair = f"'{type(x).__name__}' and '{type(y).__name__}'"
        with pytest.raises(TypeError, match=f"unsupported operand type\\(s\\) for -: {pair}"):
            x - y


def test_a_coefficient_on_the_left_of_a_series_sum():
    # UVPoly + series used to be refused as "coefficient must be int or Fraction"
    # while UVPoly * series and series + UVPoly worked
    c = UVPoly.monomial(1, 0, Fraction(1, 2))
    assert c + p(1, 3) == p(1, 3) + c == SymSeries({(): c, (1,): 1}, 3)
    b = BiSymSeries.inject(p(1, 3), 2)
    assert c + b == b + c


@pytest.mark.parametrize("seed", range(4))
def test_linear_is_the_sum_of_the_scalar_multiples(seed):
    # one accumulator for the whole combination: int and Fraction weights, terms
    # of a higher truncation cut to the order asked for, and sums that cancel
    rng = random.Random(seed)
    for cls, make in ((SymSeries, random_sparse), (BiSymSeries, random_bi)):
        fs = [make(rng, rng.randint(3, 6)) for _ in range(4)]
        ws = [rng.choice([2, -1, Fraction(rng.randint(-9, 9), rng.randint(2, 6))]) for _ in fs]
        n = min(f.trunc for f in fs)
        got = cls.linear(zip(ws, fs), n)
        want = sum((f * w for w, f in zip(ws, fs)), cls.zero(n))
        assert got.trunc == want.trunc == n and got.coeffs == want.coeffs
        w, f, g = Fraction(-3, 4), fs[0], fs[1]
        assert cls.linear([(w, f), (Fraction(3, 4), f)], n).coeffs == {}
        assert cls.linear([(w, f), (1, g), (-w, f)], n).coeffs == g.truncate(n).coeffs
        with pytest.raises(ValueError, match="truncated below"):
            cls.linear([(1, f.truncate(n - 1))], n)
