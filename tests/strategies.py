"""Hypothesis strategies shared by the randomized reference tests.

Each test file passes its own arity and example count.  The series coefficients
are non-integral rationals on the off-diagonal monomials u and v^2, as in the
`offdiag` benchmark workload.
"""

from fractions import Fraction

from hypothesis import settings, strategies as st

from heavylight.partitions import gen_partitions
from heavylight.uvpoly import UVPoly

# numerators +-1..4 over 5, 7 or 11: never integral
NON_INTEGRAL = st.builds(
    Fraction, st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4)), st.sampled_from((5, 7, 11))
)
COEFF = st.builds(lambda a, b: UVPoly({(1, 0): a, (0, 2): b}), NON_INTEGRAL, NON_INTEGRAL)


def key_lists(arity, partitions=gen_partitions) -> tuple:
    """The partitions of 0..arity, from `partitions(n)`, and the pairs of them
    of total size at most `arity`."""
    parts = [lam for n in range(arity + 1) for lam in partitions(n)]
    return parts, [(lam, mu) for lam in parts for mu in parts if sum(lam) + sum(mu) <= arity]


def examples(count):
    """Settings for `count` derandomized examples, with no database and no deadline."""
    return settings(derandomize=True, database=None, max_examples=count, deadline=None)
