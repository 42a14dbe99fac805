"""The closed pipeline's one composed substitution against the two-step route.

`closed_series` substitutes K = (p_1 - dG_0/dp_1) o_2 Exp into factor 2 of
the coproduct once, where the two-step route substitutes the corrector and
then Exp.  The two agree because factor-2 plethysm is associative,
(F o_2 G) o_2 H = F o_2 (G o_2 H) for G, H with zero constant term
(Macdonald, Symmetric Functions and Hall Polynomials, I.8).  The identity is
checked on random series whose coefficients are non-integral and
off-diagonal, built as the `offdiag` benchmark workload builds them, and the
pipeline is checked against the two-step route on the shipped fixtures.
"""

from hypothesis import given, strategies as st

from heavylight.bisymseries import BiSymSeries, exp2_of_p1
from heavylight.fixtures import load_fixture
from heavylight.pipeline import _mask_stability, closed_series, tail_free_series

from strategies import COEFF, examples, key_lists

ARITY = 5
PARTITIONS, PAIRS = key_lists(ARITY)
NONCONSTANT = [key for key in PAIRS if key != ((), ())]
FACTOR2 = [((), mu) for mu in PARTITIONS if mu]
SETTINGS = examples(30)


def series(keys):
    return st.dictionaries(st.sampled_from(keys), COEFF, max_size=5).map(lambda c: BiSymSeries(c, ARITY))


@SETTINGS
@given(series(PAIRS), series(NONCONSTANT), series(NONCONSTANT))
def test_pleth2_is_associative(f, g, h):
    assert f.pleth2(g).pleth2(h) == f.pleth2(g.pleth2(h))


@SETTINGS
@given(series(PAIRS), series(FACTOR2), series(FACTOR2))
def test_pleth2_is_associative_on_factor2_inner_series(f, g, h):
    assert f.pleth2(g).pleth2(h) == f.pleth2(g.pleth2(h))


def test_closed_series_is_the_two_step_route():
    stable1, smooth0 = load_fixture("genus1_stable"), load_fixture("genus0_smooth")
    two_step = tail_free_series(stable1, smooth0, trunc=7).pleth2(exp2_of_p1(7))
    assert closed_series(stable1, smooth0, trunc=7).data == _mask_stability(1, two_step)
