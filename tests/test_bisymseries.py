import itertools
import random
from fractions import Fraction

import pytest

from heavylight.bisymseries import BiSymSeries, coproduct, exp2_of_p1
from heavylight.partitions import gen_partitions, mn_character
from heavylight.powerseries import FormalPS2
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly

T = 6


def P(k, factor, t=T):
    return BiSymSeries.power_sum(k, factor, t)


def random_bi(rng, trunc, zero_constant=True):
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        total = rng.randint(1 if zero_constant else 0, trunc)
        m = rng.randint(0, total)
        lam_choices = gen_partitions(m)
        mu_choices = gen_partitions(total - m)
        key = (
            lam_choices[rng.randrange(len(lam_choices))],
            mu_choices[rng.randrange(len(mu_choices))],
        )
        coeffs[key] = UVPoly.const(Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2])))
    return BiSymSeries(coeffs, trunc)


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
    r = E.rank2()
    from math import factorial

    for n in range(1, T + 1):
        assert r[(0, n)] == UVPoly.const(Fraction(1, factorial(n)))
    assert BiSymSeries.zero(T).exp2() == BiSymSeries.zero(T)
    comp = P(1, 2).exp2().arity_components()[0, 2]
    assert comp == BiSymSeries.inject(SymSeries.homogeneous_h(2, T), 2)


def test_rank2():
    assert (P(1, 1) * P(1, 2)).rank2()[(1, 1)] == UVPoly.one()
    assert P(2, 1).rank2() == FormalPS2.zero(("x", "y"), T)
    h2 = BiSymSeries.inject(SymSeries.homogeneous_h(2, T), 2)
    assert h2.rank2()[(0, 2)] == UVPoly.const(Fraction(1, 2))


def test_to_schur_pairs():
    sp = (P(1, 1) * P(1, 2)).to_schur_pairs()
    assert sp == {((1,), (1,)): UVPoly.one()}
    h2 = BiSymSeries.inject(SymSeries.homogeneous_h(2, T), 2)
    assert h2.to_schur_pairs() == {((), (2,)): UVPoly.one()}
    sq = (P(1, 2) * P(1, 2)).to_schur_pairs()
    assert sq == {((), (2,)): UVPoly.one(), ((), (1, 1)): UVPoly.one()}
    # reference: the direct sum of chi^slam(plam) chi^smu(pmu) c over each block
    rng = random.Random(22)
    coeffs = {}
    for total in range(6):
        for m in range(total + 1):
            for key in itertools.product(gen_partitions(m), gen_partitions(total - m)):
                if rng.random() < 0.6:
                    mono = (rng.randint(0, 2), rng.randint(0, 2))
                    coeffs[key] = UVPoly({mono: Fraction(rng.randint(-5, 5), rng.randint(1, 4))})
    f = BiSymSeries(coeffs, 5)
    want = {}
    for total in range(6):
        for m in range(total + 1):
            for slam, smu in itertools.product(gen_partitions(m), gen_partitions(total - m)):
                acc = UVPoly.zero()
                for (plam, pmu), c in f.coeffs.items():
                    if sum(plam) == m and sum(pmu) == total - m:
                        acc = acc + c * (mn_character(slam, plam) * mn_character(smu, pmu))
                if not acc.is_zero():
                    want[(slam, smu)] = acc
    assert f.to_schur_pairs() == want


def test_from_schur_pairs_round_trip():
    rng = random.Random(21)
    for _ in range(10):
        f = random_bi(rng, 5, zero_constant=False)
        assert BiSymSeries.from_schur_pairs(f.to_schur_pairs(), 5) == f


def test_pleth2_associativity_random():
    rng = random.Random(13)
    for _ in range(30):
        f, g, k = (random_bi(rng, 6) for _ in range(3))
        assert f.pleth2(g).pleth2(k) == f.pleth2(g.pleth2(k))


def test_rank2_carries_pleth2_to_composition():
    rng = random.Random(14)
    for _ in range(20):
        f, g = random_bi(rng, 6), random_bi(rng, 6)
        lhs = f.pleth2(g).rank2()
        rf, rg = f.rank2(), g.rank2()
        acc = FormalPS2.zero(("x", "y"), 6)
        xv = FormalPS2.variable(("x", "y"), 1, 6)
        for (i, j), c in rf.coeffs.items():
            term = FormalPS2(("x", "y"), {(0, 0): c}, 6)
            for _k in range(i):
                term = term * xv
            for _k in range(j):
                term = term * rg
            acc = acc + term
        assert acc == lhs


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


def test_coproduct_properties():
    rng = random.Random(15)
    for _ in range(20):
        f = SymSeries({gen_partitions(rng.randint(0, 4))[0]: rng.randint(1, 3)}, T)
        g = SymSeries({gen_partitions(rng.randint(0, 4))[-1]: rng.randint(1, 3)}, T)
        assert coproduct(f * g) == coproduct(f) * coproduct(g)
        cf = coproduct(f)
        assert cf.swap_factors() == cf
        assert cf.set_factor2_to_zero() == f


def test_exp2_log2_round_trip():
    rng = random.Random(16)
    for _ in range(10):
        f = random_bi(rng, 8)
        assert f.exp2().log2() == f


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
