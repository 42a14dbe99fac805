from fractions import Fraction
from math import factorial

import pytest

from heavylight.bisymseries import BiSymSeries
from heavylight.fixtures import SeriesFixture, load_fixture
from heavylight.pipeline import (
    closed_series,
    closed_series_numeric,
    genus0_numeric_closed_form,
    genus1_light_chi_egf,
    genus1_stable_chi_egf,
    legendre_check,
    open_series,
    open_series_numeric,
    slice_n1,
    stability_ok,
    tail_free_series,
    tropical_euler,
)
from heavylight.powerseries import FormalPS1
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly


def uvq(k, c=1):
    return UVPoly.uv_power(k, c)


def test_stability():
    assert stability_ok(1, 0, 2)
    assert not stability_ok(0, 2, 0)
    assert stability_ok(0, 2, 1)
    assert not stability_ok(0, 1, 2)
    with pytest.raises(ValueError):
        stability_ok(-1, 0, 0)


def test_open_series_weight0_examples():
    w0 = load_fixture("genus2_smooth_weight0")
    res = open_series(w0)
    # arity (0,2) in Schur pairs is minus the one-row factor-2 generator
    sch = res.component(0, 2).to_schur_pairs()
    assert sch == {((), (2,)): UVPoly.const(-1)}
    # heavy-only components copy the input series into factor 1
    for m in range(2, w0.trunc + 1):
        comp = res.component(m, 0)
        assert comp == BiSymSeries.inject(w0.data.arity_part(m), 1).truncate(comp.trunc)
    # numeric value at (2,3)
    comp = res.component(2, 3)
    num = comp.trace_from_ch(((1, 1), (1, 1, 1)))
    assert num.constant_term() == 4


def test_closed_series_table_rows():
    smooth0 = load_fixture("genus0_smooth")
    stable1 = load_fixture("genus1_stable")
    res = closed_series(stable1, smooth0, trunc=4)
    sch = res.component(0, 2).to_schur_pairs()
    assert sch == {((), (2,)): uvq(2) + uvq(1, 2) + 1}
    sch12 = res.component(1, 2).to_schur_pairs()
    assert sch12 == {
        ((1,), (1, 1)): uvq(2) + uvq(1),
        ((1,), (2,)): uvq(3) + uvq(2, 4) + uvq(1, 4) + 1,
    }
    # numeric polynomial at (0,4)
    comp = res.component(0, 4)
    num = comp.trace_from_ch(((), (1, 1, 1, 1)))
    assert num == uvq(4) + uvq(3, 7) + uvq(2, 13) + uvq(1, 7) + 1


def test_genus0_closed_form_values():
    s = genus0_numeric_closed_form(6)
    assert s[1] == UVPoly.one()
    assert s[2] == UVPoly.const(Fraction(-1, 2))
    assert s[3] == (UVPoly.const(2) - uvq(1)) / 6
    # u = v = 1 specialization equals 2y - (1+y)log(1+y), computed directly
    y = FormalPS1.identity("y", 6)
    expected = y * 2 - ((y + 1) * (y + 1).log())
    for k in range(7):
        assert UVPoly.const(s[k].eval(1, 1)) == expected[k]


def test_legendre_check():
    smooth0 = load_fixture("genus0_smooth")
    stable0 = load_fixture("genus0_stable")
    assert legendre_check(smooth0, stable0, trunc=8)
    zero = SeriesFixture("zero", 0, "closed", stable0.trunc, SymSeries.zero(stable0.trunc))
    assert not legendre_check(smooth0, zero, trunc=8)
    assert legendre_check(smooth0, zero, trunc=1)  # arity-1 parts are both p_1
    assert legendre_check(smooth0, stable0, trunc=1)


def test_numeric_pipeline_examples():
    numeric = load_fixture("genus1_stable_numeric")
    table = closed_series_numeric(numeric.data.rank1("x"), 6)
    # all-light two-marking value
    assert table[(0, 2)] == (uvq(2) + uvq(1, 2) + 1) / 2
    # no lights: the input series is returned unchanged
    b = numeric.data.rank1("x")
    for m in range(7):
        assert table[(m, 0)] == b[m]


def test_open_numeric_stirling_property():
    from heavylight.oracle import stirling2

    smooth1 = load_fixture("genus1_smooth")
    b = smooth1.data.rank1("x")
    table = open_series_numeric(b, smooth1.trunc)
    numeric_smooth = {k: b[k] * factorial(k) for k in range(1, smooth1.trunc + 1)}
    for m in range(smooth1.trunc):
        for n in range(1, smooth1.trunc - m + 1):
            val = table[(m, n)] * (factorial(m) * factorial(n))
            expected = UVPoly.zero()
            for k in range(1, n + 1):
                if m + k <= smooth1.trunc:
                    expected = expected + numeric_smooth[m + k] * stirling2(n, k)
            assert val == expected, (m, n)


def test_chi_generating_functions():
    f = genus1_light_chi_egf(10)
    vals = [f[n].constant_term() * factorial(n) for n in range(11)]
    assert vals[1] == 2
    assert vals[4] == 29
    assert vals[10] == 232076
    g = genus1_stable_chi_egf(10)
    assert g[10].constant_term() * factorial(10) == 16275872
    # the inverse series carries the stable genus-0 Euler characteristics,
    # frozen from the compositional-inversion oracle: 1, 2, 7, 34 at
    # arities 3..6 (coefficient of y^n times n! is the value at n+1 markings)
    closed = genus0_numeric_closed_form(6)
    at_one = FormalPS1("y", [UVPoly.const(closed[n].eval(1, 1)) for n in range(7)], 6)
    inv = at_one.reversion()
    assert [inv[n].constant_term() * factorial(n) for n in range(2, 6)] == [1, 2, 7, 34]
    assert at_one.compose(inv) == FormalPS1.identity("y", 6)
    assert inv.compose(at_one) == FormalPS1.identity("y", 6)


def test_chi_ratio_growth():
    # the stable/light ratio grows by a per-step factor that decreases
    # monotonically and settles near the limiting growth rate
    light = genus1_light_chi_egf(15)
    stable = genus1_stable_chi_egf(15)
    ratios = []
    for n in range(8, 16):
        l = light[n].constant_term()
        s = stable[n].constant_term()
        ratios.append(s / l)
    steps = [b / a for a, b in zip(ratios, ratios[1:])]
    assert all(x > y for x, y in zip(steps, steps[1:]))
    assert all(Fraction(13, 10) < s < 2 for s in steps)
    assert Fraction(13, 10) < steps[-1] < Fraction(29, 20)


def test_slice_n1():
    stable1 = load_fixture("genus1_stable")
    smooth0 = load_fixture("genus0_smooth")
    # m = 0: the one-light-marking stable space is the projective line
    comp = slice_n1(stable1, 0)
    assert comp == BiSymSeries(
        {((), (1,)): UVPoly.one() + uvq(1)}, comp.trunc
    )
    res = closed_series(stable1, smooth0, trunc=6)
    for m in range(5):
        assert slice_n1(stable1, m) == res.component(m, 1)
    smooth1 = load_fixture("genus1_smooth")
    res_open = open_series(smooth1)
    for m in range(4):
        assert slice_n1(smooth1, m) == res_open.component(m, 1)
    # below the stability bound the component is empty
    stable0 = load_fixture("genus0_stable")
    assert not stability_ok(0, 1, 1)
    assert slice_n1(stable0, 1).coeffs == {}


def test_tropical_euler():
    w0 = load_fixture("genus2_smooth_weight0")
    res = open_series(w0)
    chi = tropical_euler(res, 0, 2)
    assert chi.to_schur_pairs() == {((), (2,)): UVPoly.const(2)}
    num = tropical_euler(res, 3, 2)
    val = num.trace_from_ch(((1, 1, 1), (1, 1))).constant_term()
    assert val == 1 - 8
    smooth0 = load_fixture("genus0_smooth")
    res0 = open_series(smooth0, trunc=6)
    with pytest.raises(ValueError):
        tropical_euler(res0, 2, 2)
    # genus-1 ordinary spaces: wedge-of-spheres Euler characteristics
    smooth1 = load_fixture("genus1_smooth")
    res1 = open_series(smooth1)
    for m in range(3, smooth1.trunc + 1):
        chi_m = tropical_euler(res1, m, 0)
        val = chi_m.trace_from_ch(((1,) * m, ())).constant_term()
        assert val == 1 - Fraction((-1) ** m * factorial(m - 1), 2)


def test_tail_free_series_consistency():
    from heavylight.bisymseries import coproduct

    smooth0 = load_fixture("genus0_smooth")
    stable0 = load_fixture("genus0_stable")
    stable1 = load_fixture("genus1_stable")
    t = 6
    core = tail_free_series(stable1, smooth0, trunc=t)
    inner = BiSymSeries.power_sum(1, 2, t) + BiSymSeries.inject(
        stable0.data.d_dp1().truncate(t), 2
    )
    assert core.pleth2(inner) == coproduct(stable1.data.truncate(t))


def test_stability_mask():
    # the raw genus-0 composition has artifacts outside stability, the
    # pipeline result must not
    smooth0 = load_fixture("genus0_smooth")
    res = open_series(smooth0, trunc=5)
    assert res.component(1, 2).coeffs == {}
    assert res.component(2, 1).coeffs != {}
    for total in range(6):
        for m in range(total + 1):
            n = total - m
            if not stability_ok(0, m, n):
                assert res.component(m, n).coeffs == {}
