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

from hypothesis import given, settings, strategies as st

from heavylight.bisymseries import BiSymSeries
from heavylight.partitions import gen_partitions, mn_character
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly

ARITY = 6
PARTITIONS = [lam for n in range(ARITY + 1) for lam in gen_partitions(n)]
PAIRS = [(lam, mu) for lam in PARTITIONS for mu in PARTITIONS if sum(lam) + sum(mu) <= ARITY]
OFF_DIAGONAL = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda ab: ab[0] != ab[1])
NON_INTEGRAL = st.builds(Fraction, st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)), st.sampled_from((5, 7, 11)))
COEFF = st.dictionaries(OFF_DIAGONAL, NON_INTEGRAL, min_size=1, max_size=2).map(UVPoly)
SYM = st.dictionaries(st.sampled_from(PARTITIONS), COEFF, max_size=8)
BISYM = st.dictionaries(st.sampled_from(PAIRS), COEFF, max_size=8)
SETTINGS = settings(derandomize=True, database=None, max_examples=30, deadline=None)


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
    assert BiSymSeries.from_schur_pairs(schur, ARITY).to_schur_pairs() == BiSymSeries(schur, ARITY).coeffs
