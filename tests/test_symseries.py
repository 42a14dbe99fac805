import random
from fractions import Fraction

import pytest

from heavylight.bisymseries import BiSymSeries
from heavylight.partitions import gen_partitions, mn_character, z_of
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly

T = 6


def p(k, t=T):
    return SymSeries.power_sum(k, t)


def h(n, t=T):
    return SymSeries.homogeneous_h(n, t)


def random_sparse(rng, trunc, zero_constant=True):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(1 if zero_constant else 0, trunc)
        parts = gen_partitions(n)
        lam = parts[rng.randrange(len(parts))]
        c = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2]))
        if rng.random() < 0.5:
            coeffs[lam] = UVPoly.monomial(rng.randint(0, 1), rng.randint(0, 1), c)
        else:
            coeffs[lam] = UVPoly.const(c)
    return SymSeries(coeffs, trunc)


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
    s11 = SymSeries.schur((1, 1), T)
    assert s11 == SymSeries({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)}, T)


def test_schur_round_trip_random():
    rng = random.Random(9)
    for _ in range(10):
        f = random_sparse(rng, 8, zero_constant=False)
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
    assert SymSeries.schur((1, 1, 1), T) == SymSeries(sign3, T)


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
    s21 = SymSeries.schur((2, 1), T)
    assert s21.rank1()[3] == UVPoly.const(Fraction(1, 3))
    assert mn_character((2, 1), (1, 1, 1)) == 2


def test_plethysm_associativity_random():
    rng = random.Random(1)
    for _ in range(50):
        f, g, k = (random_sparse(rng, 6) for _ in range(3))
        assert f.plethysm(g).plethysm(k) == f.plethysm(g.plethysm(k))


def test_plethysm_ring_maps_random():
    rng = random.Random(2)
    for _ in range(50):
        f1, f2, g = (random_sparse(rng, 6) for _ in range(3))
        assert (f1 * f2).plethysm(g) == f1.plethysm(g) * f2.plethysm(g)
        k = rng.randint(1, 4)
        pk = SymSeries.power_sum(k, 6)
        assert pk.plethysm(f1 * f2) == pk.plethysm(f1) * pk.plethysm(f2)


def test_rank_takes_plethysm_to_composition():
    rng = random.Random(4)
    for _ in range(20):
        f = random_sparse(rng, 6)
        g = random_sparse(rng, 6)
        lhs = f.plethysm(g).rank1("x")
        rhs = f.rank1("x").compose(g.rank1("x"))
        assert lhs == rhs


def test_pleth_inverse_round_trip_random():
    rng = random.Random(6)
    p1 = p(1, 8)
    for _ in range(10):
        f = p1 + higher_terms(rng)
        g = f.pleth_inverse()
        assert f.plethysm(g) == p1
        assert g.plethysm(f) == p1


def higher_terms(rng):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        n = rng.randint(2, 8)
        parts = gen_partitions(n)
        coeffs[parts[rng.randrange(len(parts))]] = UVPoly.const(rng.choice([-2, -1, 1, 2]))
    return SymSeries(coeffs, 8)


def test_non_canonical_keys_are_rejected():
    # (1, 2) and (2, 1) name the same p_1 p_2; accepting both would make
    # equal series compare unequal and break the canonical order.  A Schur
    # key is checked the same way: s_{1,3} is no Schur function.
    for bad in [(1, 2), (0,), (2, -1), (2.0, 1), (1, 3)]:
        for make in (SymSeries, SymSeries.from_schur):
            with pytest.raises(ValueError, match="not canonical"):
                make({bad: 1}, 5)
        with pytest.raises(ValueError, match="not canonical"):
            SymSeries.schur(bad, 5)
    for bad in [((1, 2), ()), ((1,),), ((), (1, 3)), ((2,), (1,), ())]:
        for make in (BiSymSeries, BiSymSeries.from_schur_pairs):
            with pytest.raises(ValueError, match="not canonical"):
                make({bad: 1}, 5)
    assert SymSeries({(2, 1): 1}, 5) == p(2, 5) * p(1, 5)
    assert str(BiSymSeries({((2, 1), (1,)): 1}, 5)) == "(1*u^0*v^0)*p1[2,1]*p2[1]"
