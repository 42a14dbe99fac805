"""The Schur change of basis against its definition, on random series.

`to_schur` and `to_schur_pairs` map each tensor factor in turn.  The
reference here is the direct sum over whole keys,

    [s_lam] f = sum_mu prod_f chi^{lam_f}(mu_f) [p_mu] f,

with no grouping and no per-factor pass, so a slip in the one-factor-at-a-
time bookkeeping (a factor mapped twice or not at all, a transposed
character, a coefficient dropped while summing) shows up as a mismatch.
The inputs carry non-integral rational coefficients on off-diagonal
monomials u^a v^b, as the `offdiag` benchmark workload does.
"""

from fractions import Fraction
from itertools import product
from math import prod
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

from heavylight.bisymseries import BiSymSeries
from heavylight.partitions import gen_partitions, mn_character, z_of
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly

from strategies import NON_INTEGRAL, examples, key_lists

ARITY = 6
PARTITIONS, PAIRS = key_lists(ARITY)
OFF_DIAGONAL = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda ab: ab[0] != ab[1])
COEFF = st.dictionaries(OFF_DIAGONAL, NON_INTEGRAL, min_size=1, max_size=2).map(UVPoly)
SYM = st.dictionaries(st.sampled_from(PARTITIONS), COEFF, max_size=8)
BISYM = st.dictionaries(st.sampled_from(PAIRS), COEFF, max_size=8)
SETTINGS = examples(30)


def direct_schur(coeffs: dict) -> dict:
    """sum_mu prod_f chi^{lam_f}(mu_f) c_mu, keyed by tuples of partitions."""
    out: dict = {}
    for mus, c in coeffs.items():
        for lams in product(*(gen_partitions(sum(mu)) for mu in mus)):
            chi = prod(mn_character(lam, mu) for lam, mu in zip(lams, mus))
            out[lams] = out.get(lams, UVPoly.zero()) + c * chi
    return {k: c for k, c in out.items() if not c.is_zero()}


@SETTINGS
@given(SYM, SYM)
def test_to_schur_is_the_direct_sum_and_from_schur_inverts_it(terms, schur):
    f = SymSeries(terms, ARITY)
    want = direct_schur({(lam,): c for lam, c in f.coeffs.items()})
    assert f.to_schur() == {lams[0]: c for lams, c in want.items()}
    assert SymSeries.from_schur(f.to_schur(), ARITY) == f
    assert SymSeries.from_schur(schur, ARITY).to_schur() == SymSeries(schur, ARITY).coeffs


@SETTINGS
@given(BISYM, BISYM)
def test_to_schur_pairs_is_the_direct_sum_and_from_schur_pairs_inverts_it(terms, schur):
    b = BiSymSeries(terms, ARITY)
    assert b.to_schur_pairs() == direct_schur(b.coeffs)
    assert BiSymSeries.from_schur_pairs(b.to_schur_pairs(), ARITY) == b
    back = BiSymSeries.from_schur_pairs(schur, ARITY).to_schur_pairs()
    assert back == BiSymSeries(schur, ARITY).coeffs


# -- exactness of the packed running sums ---------------------------------------
#
# The change of basis packs each coefficient's numerators into one int, W bits
# a slot, with W fixed before the first add from a bound on every slot: the
# block's largest numerator over the lcm of its denominators, times p(n) and
# the largest integer weight for each factor, plus a sign bit.  These inputs
# push numerators past the machine word, put many denominators in one block,
# and sit right at that bound.

MERSENNE = (2**61 - 1, 2**89 - 1, 2**107 - 1)  # primes: each new one raises the lcm


def direct_power(coeffs: dict) -> dict:
    """sum_lam a_lam prod_f chi^{lam_f}(mu_f) / z_{mu_f}, keyed by tuples of partitions."""
    out: dict = {}
    for lams, c in coeffs.items():
        for mus in product(*(gen_partitions(sum(lam)) for lam in lams)):
            w = prod(Fraction(mn_character(lam, mu), z_of(mu)) for lam, mu in zip(lams, mus))
            out[mus] = out.get(mus, UVPoly.zero()) + c * w
    return {k: c for k, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("bits", [62, 63, 64, 200])
def test_numerators_near_and_past_the_machine_word(bits):
    big = 2**bits
    terms = {
        (3, 1): UVPoly({(0, 0): big - 1, (2, 2): -big}),
        (2, 1, 1): UVPoly({(1, 1): big + 1, (0, 0): 1 - big}),
        (4,): UVPoly({(2, 2): Fraction(big - 3, 7)}),
        (2, 2): UVPoly({(0, 0): -big, (1, 1): big // 3}),
    }
    f = SymSeries(terms, 4)
    want = direct_schur({(k,): c for k, c in terms.items()})
    assert f.to_schur() == {lams[0]: c for lams, c in want.items()}
    assert SymSeries.from_schur(f.to_schur(), 4) == f
    pairs = {(lam, mu): c for lam, c in terms.items() for mu in ((), (1,), (2,), (1, 1))}
    b = BiSymSeries(pairs, 6)
    assert b.to_schur_pairs() == direct_schur(pairs)
    assert BiSymSeries.from_schur_pairs(b.to_schur_pairs(), 6) == b


def test_the_slot_bound_scales_each_numerator_to_the_block_lcm():
    # Block 3's sources go over the lcm p of their denominators, so each
    # integral source is packed times p: the slot bound must count its
    # numerators after that scaling, not the small ones it was given with.
    p = MERSENNE[0]
    terms = {(3,): Fraction(1, p), (2, 1): 5, (1, 1, 1): -3}
    f = SymSeries(terms, 3)
    want = direct_schur({(k,): UVPoly.const(c) for k, c in terms.items()})
    assert f.to_schur() == {lams[0]: c for lams, c in want.items()}


def test_a_negative_slot_borrows_from_the_slot_above():
    # 1 - uv packs as 2^W - 1: its low slot reads 2^W - 1 until it borrows one from
    # the slot above, which then reads 0 + 1.
    for c in (UVPoly({(0, 0): -1, (1, 1): 1}), UVPoly({(0, 0): -3, (2, 0): 2**64})):
        assert SymSeries({(1,): c}, 1).to_schur() == {(1,): c}


def test_sums_that_cancel_yield_no_key():
    # p_11 - p_2 = 2 s_11 and p_11 + p_2 = 2 s_2, at a numerator past 2^63.
    c = UVPoly.uv_power(2, 2**70 + 1)
    assert SymSeries({(1, 1): c, (2,): -c}, 2).to_schur() == {(1, 1): c * 2}
    assert SymSeries({(1, 1): c, (2,): c}, 2).to_schur() == {(2,): c * 2}
    # factor 1 cancels outright on (1, 1), and that zero sum is then mapped
    # through factor 2 without leaving a key
    b = BiSymSeries({((1, 1), (2,)): c, ((2,), (2,)): c, ((1, 1), (1,)): -c}, 4)
    assert b.to_schur_pairs() == direct_schur(b.coeffs)
    assert b.to_schur_pairs() == {
        ((2,), (2,)): c * 2, ((2,), (1, 1)): c * -2, ((2,), (1,)): -c, ((1, 1), (1,)): -c,
    }


def test_six_monomials_on_both_sides_of_the_diagonal_keep_their_own_slots():
    # The arity-3 block holds six monomials: u^3, u and u^4 v below the diagonal,
    # u v on it, v^2 and u^2 v^4 above it.  Each one keeps a slot of its own.
    terms = {
        (3,): UVPoly({(3, 0): 1, (0, 2): -2, (1, 1): Fraction(1, 3)}),
        (2, 1): UVPoly({(1, 0): 4, (0, 2): 5}),
        (1, 1, 1): UVPoly({(2, 4): -1, (4, 1): 3}),
    }
    f = SymSeries(terms, 3)
    want = direct_schur({(k,): c for k, c in terms.items()})
    assert f.to_schur() == {lams[0]: c for lams, c in want.items()}
    assert SymSeries.from_schur(f.to_schur(), 3) == f


def test_exponents_far_apart_cost_one_slot_each():
    # Four monomials whose exponents span 2 * 10^5: each takes one slot, so the
    # packed sums stay four slots wide whatever the span.
    start, e = perf_counter(), 10**5
    wide = UVPoly({(0, 0): 1, (0, e): -2, (e, 0): 3, (e, e): 5})
    terms = {lam: wide * (i + 1) for i, lam in enumerate(gen_partitions(4))}
    f = SymSeries(terms, 4)
    want = direct_schur({(lam,): c for lam, c in terms.items()})
    assert f.to_schur() == {lams[0]: c for lams, c in want.items()}
    assert SymSeries.from_schur(f.to_schur(), 4) == f
    pairs = {(lam, mu): c for lam, c in terms.items() for mu in ((), (1,), (2,), (1, 1))}
    b = BiSymSeries(pairs, 6)
    assert b.to_schur_pairs() == direct_schur(pairs)
    assert BiSymSeries.from_schur_pairs(b.to_schur_pairs(), 6) == b
    assert perf_counter() - start < 2


@pytest.mark.parametrize("big", [1, 2**62 - 1, 2**200 + 3])
def test_from_schur_over_a_large_lcm(big):
    # Schur coefficients over distinct large primes: each weight chi / z_mu meets
    # a running sum over another prime, so the lcm, and with it every slot, jumps.
    schur = {
        (4,): UVPoly({(0, 0): Fraction(big, MERSENNE[0]), (1, 1): -1}),
        (3, 1): UVPoly({(1, 1): Fraction(-big, MERSENNE[1])}),
        (2, 2): UVPoly({(0, 0): 3, (1, 2): Fraction(big, MERSENNE[2])}),
        (2, 1, 1): UVPoly({(2, 1): Fraction(1, MERSENNE[1]), (0, 0): big}),
        (1, 1, 1, 1): UVPoly({(1, 1): Fraction(7, MERSENNE[2] * MERSENNE[0])}),
    }
    f = SymSeries.from_schur(schur, 4)
    want = direct_power({(k,): c for k, c in schur.items()})
    assert f.coeffs == {mus[0]: c for mus, c in want.items()}
    assert f.to_schur() == schur
    pairs = {(lam, mu): c for lam, c in schur.items() for mu in ((1,), (2,))}
    b = BiSymSeries.from_schur_pairs(pairs, 6)
    assert b.coeffs == direct_power(pairs)
    assert b.to_schur_pairs() == pairs


@pytest.mark.parametrize("big", [2**62, 2**63, -(2**63)])
def test_a_lone_numerator_at_the_sign_bit(big):
    # One source of arity 0 or 1 has weight 1, so the bound is the numerator
    # itself, and only the sign bit keeps 2^62 and 2^63 from reading negative.
    for key in ((), (1,)):
        c = UVPoly.const(big)
        assert SymSeries({key: c}, 1).to_schur() == {key: c}
        assert SymSeries.from_schur({key: c}, 1).coeffs == {key: c}
        assert BiSymSeries({(key, key): c}, 2).to_schur_pairs() == {(key, key): c}
    # Three slots at the bound: a slot read as negative would also shift the next one.
    c = UVPoly({(0, 0): big, (1, 1): -big, (2, 0): big})
    assert SymSeries({(1,): c}, 1).to_schur() == {(1,): c}


def test_two_sources_add_into_one_slot():
    # p_2 and p_11 both add into s_2 with weight 1: the sum is twice the largest
    # numerator, which only the factor p(2) in the bound leaves room for.
    c = UVPoly.const(2**62)
    assert SymSeries({(2,): c, (1, 1): c}, 2).to_schur() == {(2,): c * 2}


def test_one_source_spreads_over_the_largest_character():
    # p_1^8 = sum_lam chi^lam(1^8) s_lam, and the largest dimension, 90, is more
    # than p(8) = 22 times over: the bound needs the weights, not only the count.
    c = UVPoly({(0, 0): 2**62, (1, 1): -(2**62)})
    f = SymSeries({(1,) * 8: c}, 8)
    assert f.to_schur() == {lams[0]: c for lams, c in direct_schur({((1,) * 8,): c}).items()}
    assert max(abs(c.nums[0, 0]) for c in f.to_schur().values()) == 90 * 2**62


TEN = gen_partitions(10)


@pytest.mark.parametrize("big", [2**62 - 1, 2**62, 2**62 + 1])
def test_every_partition_of_ten_adds_into_one_schur_key(big):
    # chi^(10) = 1, so all p(10) = 42 sources add into s_(10) with weight 1.
    c = UVPoly({(0, 0): big, (1, 1): -big})
    f = SymSeries({mu: c for mu in TEN}, 10)
    want = {lams[0]: c for lams, c in direct_schur({(mu,): c for mu in TEN}).items()}
    assert want[(10,)] == c * 42
    assert f.to_schur() == want


@pytest.mark.parametrize("big", [2**62 - 1, 2**62, 2**62 + 1])
def test_every_partition_of_ten_adds_into_one_power_key(big):
    # The power direction: 42 Schur keys over the weights chi^lam(mu) / z_mu, whose
    # denominators go over one lcm, 10!, before the first add.
    c = UVPoly({(0, 0): big, (1, 1): -big})
    f = SymSeries.from_schur({lam: c for lam in TEN}, 10)
    assert f.coeffs == {mus[0]: c for mus, c in direct_power({(lam,): c for lam in TEN}).items()}
