import hashlib
from fractions import Fraction
from math import factorial

import pytest

from heavylight.bisymseries import BiSymSeries
from heavylight.fixtures import SeriesFixture, load_fixture
from heavylight.pipeline import (
    Refused,
    closed_series,
    closed_series_numeric,
    genus0_corrector,
    genus0_numeric_closed_form,
    genus1_light_chi_egf,
    genus1_stable_chi_egf,
    legendre_check,
    open_series,
    open_series_numeric,
    slice_n1,
    stability_ok,
    tropical_euler,
)
from heavylight.powerseries import FormalPS1, FormalPS2
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly, divide_diagonal_exact


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
    # heavy-only components copy the input series into factor 1
    for m in range(2, w0.trunc + 1):
        comp = res.component(m, 0)
        assert comp == BiSymSeries.inject(w0.data.arity_part(m), 1).truncate(comp.trunc)


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


def _closed_form_by_division(order):
    """The reference route: binom(uv, k) divided exactly by uv - u^2 v^2 for k >= 2."""
    coeffs = [UVPoly.zero(), UVPoly.one()]
    for k in range(2, order + 1):
        binom = UVPoly.one()
        for i in range(k):
            binom = binom * (uvq(1) - i)
        coeffs.append(divide_diagonal_exact(binom / factorial(k), uvq(1) - uvq(2)))
    return FormalPS1("y", coeffs, order)


def test_genus0_closed_form_is_the_exact_division():
    for order in range(1, 20):
        want = _closed_form_by_division(order)
        got = genus0_numeric_closed_form(order)
        assert got == want and str(got) == str(want), order
    with pytest.raises(ValueError, match="order must be >= 1"):
        genus0_numeric_closed_form(0)


def test_genus0_closed_form_is_the_rank_of_the_corrector():
    smooth0 = load_fixture("genus0_smooth").data
    for t in range(1, 11):
        assert genus0_corrector(smooth0, t).rank1("y") == genus0_numeric_closed_form(t), t


def test_legendre_check():
    smooth0 = load_fixture("genus0_smooth")
    stable0 = load_fixture("genus0_stable")  # the pair at arity 8 is a row of `hl verify`
    zero = SeriesFixture("zero", 0, "closed", SymSeries.zero(stable0.trunc))
    assert not legendre_check(smooth0, zero, trunc=8)
    assert legendre_check(smooth0, zero, trunc=1)  # arity-1 parts are both p_1
    assert legendre_check(smooth0, stable0, trunc=1)
    genus1 = load_fixture("genus1_smooth"), load_fixture("genus1_stable")
    with pytest.raises(ValueError, match="^legendre_check expects genus-0 fixtures$"):
        legendre_check(*genus1)


@pytest.mark.parametrize(
    "call",
    [
        lambda s0, st0, st1: legendre_check(s0, st0, trunc=st0.trunc),
        lambda s0, st0, st1: legendre_check(s0, st0, trunc=20),
        lambda s0, st0, st1: open_series(s0, trunc=s0.trunc + 1),
        lambda s0, st0, st1: closed_series(st1, s0, trunc=st1.trunc + 1),
        lambda s0, st0, st1: open_series_numeric(st1.data.rank1("x"), st1.trunc + 1),
        lambda s0, st0, st1: closed_series_numeric(st1.data.rank1("x"), st1.trunc + 1),
    ],
    ids=["legendre-by-one", "legendre-20", "open", "closed", "open-numeric", "closed-numeric"],
)
def test_a_truncation_beyond_the_inputs_is_refused(call):
    # legendre_check compares derivatives, so it reaches one arity below its
    # inputs; it refuses a deeper truncation instead of checking less
    fixtures = map(load_fixture, ("genus0_smooth", "genus0_stable", "genus1_stable"))
    assert issubclass(Refused, ValueError)
    with pytest.raises(Refused, match="exceeds available"):
        call(*fixtures)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s0, st0, st1: open_series(st1), "open_series expects an open or weight0 fixture"),
        (lambda s0, st0, st1: closed_series(s0, s0), "the stable series must be a closed fixture"),
        (lambda s0, st0, st1: closed_series(st1, st0),
         "the corrector fixture must be the genus-0 open series"),
        (lambda s0, st0, st1: closed_series(st1, s0._replace(genus=1)),
         "the corrector fixture must be the genus-0 open series"),
        (lambda s0, st0, st1: tropical_euler(closed_series(st1, s0, trunc=2), 1, 1),
         "tropical_euler consumes the open-series result"),
    ],
    ids=["open-of-closed", "closed-of-open", "closed-corrector", "genus-1-corrector",
         "tropical-of-closed"],
)
def test_a_fixture_of_the_wrong_kind_is_refused(call, message):
    fixtures = map(load_fixture, ("genus0_smooth", "genus0_stable", "genus1_stable"))
    with pytest.raises(Refused, match=f"^{message}$"):
        call(*fixtures)


def test_numeric_pipeline_examples():
    numeric = load_fixture("genus1_stable_numeric")
    table = closed_series_numeric(numeric.data.rank1("x"), 6)
    # all-light two-marking value
    assert table[(0, 2)] == (uvq(2) + uvq(1, 2) + 1) / 2
    # no lights: the input series is returned unchanged
    b = numeric.data.rank1("x")
    for m in range(7):
        assert table[(m, 0)] == b[m]


def test_numeric_pipelines_at_order_zero_keep_the_constant_term():
    b = FormalPS1("x", [UVPoly.const(3), UVPoly.one()], 1)
    constant = FormalPS2(("x", "y"), {(0, 0): UVPoly.const(3)}, 0)
    assert closed_series_numeric(b, 0) == constant
    assert open_series_numeric(b, 0) == constant


def test_open_numeric_stirling_property():
    from heavylight.oracle import stirling2

    smooth1 = load_fixture("genus1_smooth")
    b = smooth1.data.rank1("x")
    table = open_series_numeric(b, smooth1.trunc)
    numeric_smooth = {k: b[k] * factorial(k) for k in range(1, smooth1.trunc + 1)}
    # (m, n) is sum_k S(n, k) times the smooth value at m + k; S(0, 0) = 1 gives n = 0
    for m in range(smooth1.trunc + 1):
        for n in range(smooth1.trunc - m + 1):
            val = table[(m, n)] * (factorial(m) * factorial(n))
            expected = UVPoly.zero()
            for k in range(n + 1):
                if m + k in numeric_smooth:
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


def test_stable_chi_at_order_11_truncates_to_order_10():
    # the fixture generator checks the stable genus-1 Euler characteristics
    # once, at order 11, for both of its orders
    small, big = genus1_stable_chi_egf(10), genus1_stable_chi_egf(11)
    assert big.truncate(10) == small and str(big.truncate(10)) == str(small)
    assert small.order == 10


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
    # the slices for m <= 4 equal the pipelines' components: a row of `hl verify`
    stable1 = load_fixture("genus1_stable")
    # m = 0: the one-light-marking stable space is the projective line
    comp = slice_n1(stable1, 0)
    assert comp == BiSymSeries(
        {((), (1,)): UVPoly.one() + uvq(1)}, comp.trunc
    )
    # below the stability bound the component is empty
    stable0 = load_fixture("genus0_stable")
    assert not stability_ok(0, 1, 1)
    assert slice_n1(stable0, 1).coeffs == {}
    assert slice_n1(stable1, stable1.trunc - 1).coeffs  # the deepest slice the fixture holds
    with pytest.raises(Refused, match="^fixture truncation 10 is too small for m=10$"):
        slice_n1(stable1, stable1.trunc)


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
    with pytest.raises(Refused, match=r"^tropical space for genus 0, \(2,2\) is not covered"):
        tropical_euler(res0, 2, 2)
    # genus-1 ordinary spaces: wedge-of-spheres Euler characteristics
    smooth1 = load_fixture("genus1_smooth")
    res1 = open_series(smooth1)
    for m in range(3, smooth1.trunc + 1):
        chi_m = tropical_euler(res1, m, 0)
        val = chi_m.trace_from_ch(((1,) * m, ())).constant_term()
        assert val == 1 - Fraction((-1) ** m * factorial(m - 1), 2)


def test_tropical_euler_refuses_unstable_components():
    res1 = open_series(load_fixture("genus1_smooth"))
    assert not stability_ok(1, 0, 0) and res1.component(0, 0).coeffs == {}
    with pytest.raises(Refused, match=r"^genus 1, \(0,0\) is not stable$"):
        tropical_euler(res1, 0, 0)
    assert tropical_euler(res1, 0, 1).coeffs  # the smallest stable genus-1 component
    res0 = open_series(load_fixture("genus0_smooth"), trunc=6)
    with pytest.raises(Refused, match=r"^genus 0, \(0,5\) is not stable$"):
        tropical_euler(res0, 0, 5)  # connected by the m + n > 4 rule, but unstable


def test_stability_mask():
    # the raw genus-0 composition has artifacts outside stability, the
    # pipeline result must not; the whole support is a row of `hl verify`
    smooth0 = load_fixture("genus0_smooth")
    res = open_series(smooth0, trunc=5)
    assert res.component(1, 2).coeffs == {}
    assert res.component(2, 1).coeffs != {}


# sha256 of str() of the change-of-variables outputs, recorded before the
# pipelines shared one substitution per route
PINNED_SHA256 = {
    ("light", 1): "ae5e73f51910d3636bffaade6de6b742ec394e38df11fbc20eb9f131fa87bbf0",
    ("stable", 1): "ae5e73f51910d3636bffaade6de6b742ec394e38df11fbc20eb9f131fa87bbf0",
    ("light", 2): "518d78603dc5ca17870f7bf8d1232b025f37c4f927d20c1d3603c1b91c8e2f9e",
    ("stable", 2): "518d78603dc5ca17870f7bf8d1232b025f37c4f927d20c1d3603c1b91c8e2f9e",
    ("light", 5): "8e76e8517787fcbdcd82ac6df8b685e435411faeee2100beec48cfa1e36b5855",
    ("stable", 5): "b016c5ec86dc2de5fbd96207837947decf248a3ecb73bb037de8ae083356a28b",
    ("light", 11): "12c832e0508c2f20974edb483832d273a8b698aedf8a90ab9fa17d911ac5cb91",
    ("stable", 11): "c616a6f12ff89f2f6b4b3872a137efa06e592a7e85131d01c893d836b9375bd7",
    ("light", 15): "abac60eb450085fe886433202e0b47943d0b48d86e86c02bf3016ec08cbd8939",
    ("stable", 15): "c2978fdb0f8456d365bbc68354fdca52bee13a69985137f1ab42979916bd6c56",
    "open numeric": "5bf36482d801a110f06a97a3c8d321be7fd0aeb349a9bddb3f9618319a6c6145",
    "closed numeric": "f033c0318e611d15b5961596bd656b8493393961ffa8835ef4afa1a105a30a00",
    "closed stable": "b54ae9622e571ec2e016dfe06f89ae492a1186226431de6cd5c2039182bd5c1c",
}


def test_change_of_variables_outputs_are_pinned():
    chi = {"light": genus1_light_chi_egf, "stable": genus1_stable_chi_egf}
    outputs = {(kind, n): f(n) for kind, f in chi.items() for n in (1, 2, 5, 11, 15)}
    outputs["open numeric"] = open_series_numeric(load_fixture("genus1_smooth").data.rank1("x"))
    numeric = load_fixture("genus1_stable_numeric").data.rank1("x")
    outputs["closed numeric"] = closed_series_numeric(numeric, 11)
    stable1 = load_fixture("genus1_stable")
    outputs["closed stable"] = closed_series_numeric(stable1.data.rank1("x"), 6)
    for key, out in outputs.items():
        assert hashlib.sha256(str(out).encode()).hexdigest() == PINNED_SHA256[key], key


def test_equivariant_results_carry_their_provenance():
    smooth0 = load_fixture("genus0_smooth")
    smooth1 = load_fixture("genus1_smooth")
    stable1 = load_fixture("genus1_stable")
    w0 = load_fixture("genus2_smooth_weight0")
    cases = [
        (open_series(smooth1), 1, "open", {"genus1_smooth": 6}),
        (open_series(w0, trunc=3), 2, "weight0", {"genus2_smooth_weight0": 6}),
        (closed_series(stable1, smooth0, trunc=4), 1, "closed",
         {"genus1_stable": 10, "genus0_smooth": 11}),
    ]
    for res, genus, variant, provenance in cases:
        assert (res.genus, res.variant, res.provenance) == (genus, variant, provenance)
