"""Series pipelines for heavy/light moduli of weighted stable curves.

The heavy/light series is one change of variables, written once per route;
each pipeline supplies only its input checks, inner series and provenance.

  * Equivariant (_heavy_light): coproduct, substitute an inner series into
    the second factor, mask stability.  open_series (smooth locus) uses the
    light-markings exponential Exp; closed_series (compactification) uses
    the composed corrector K o_2 Exp, K = genus0_corrector = p_1 - dG_0/dp_1.
  * Numeric (_numeric_heavy_light): x -> x + L(y) in an exponential
    generating function, L = e^y - 1 (open) or the genus-0 corrector of
    e^y - 1 (closed), whose numeric form, a running product in uv, is the
    rank of K; checked against the rank specialization of the equivariant
    results and, at small arity, a brute-force oracle.
  * Euler characteristic: the stable genus-1 series is the light closed
    form under y -> log(1 + g), g the inverse of the corrector at u = v = 1.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .bisymseries import BiSymSeries, coproduct, exp2_of_p1
from .fixtures import SeriesFixture
from .powerseries import FormalPS1, FormalPS2, compose_ps1_into_ps2
from .symseries import SymSeries
from .uvpoly import UVPoly

# Genus-1 outputs are pure (diagonal, palindromic, nonnegative in the Schur
# basis) up to this total arity; the weight-12 cusp form enters at arity 11.
GENUS1_PURE_ARITY = 10


def stability_ok(g: int, m: int, n: int) -> bool:
    """Heavy/light stability: 2g - 2 + m + min(n, 1) > 0."""
    if g < 0 or m < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    return 2 * g - 2 + m + min(n, 1) > 0


@dataclass(frozen=True)
class HeavyLightResult:
    """Output of a heavy/light pipeline run."""

    genus: int
    variant: str
    data: BiSymSeries
    provenance: dict = field(default_factory=dict)

    @cached_property
    def _components(self) -> dict:
        return self.data.arity_components()

    def component(self, m: int, n: int) -> BiSymSeries:
        return self._components.get((m, n)) or BiSymSeries.zero(self.data.trunc)


def _mask_stability(g: int, series: BiSymSeries) -> BiSymSeries:
    """Zero all components outside the stability range."""
    return BiSymSeries._built(
        {
            (lam, mu): c
            for (lam, mu), c in series.coeffs.items()
            if stability_ok(g, sum(lam), sum(mu))
        },
        series.trunc,
    )


def _requested(trunc: int | None, available: int) -> int:
    """`trunc`, or `available` when it is None; a truncation beyond what the
    inputs carry is refused, never clamped."""
    if trunc is None:
        return available
    if trunc > available:
        raise ValueError(f"requested truncation {trunc} exceeds available {available}")
    return trunc


def _heavy_light(fx: SeriesFixture, inner: BiSymSeries, *sources: SeriesFixture) -> HeavyLightResult:
    """coproduct(fx) o_2 inner, stability-masked; provenance names fx and sources."""
    res = coproduct(fx.data.truncate(inner.trunc)).pleth2(inner)
    provenance = {f.name: f.trunc for f in (fx, *sources)}
    return HeavyLightResult(fx.genus, fx.variant, _mask_stability(fx.genus, res), provenance)


def open_series(fx: SeriesFixture, trunc: int | None = None) -> HeavyLightResult:
    """Heavy/light series of the smooth locus from the fixed-genus series.

    Computes coproduct(fx) o_2 Exp of the light generator, truncated at the
    requested total arity, with unstable components removed.
    """
    if fx.variant not in ("open", "weight0"):
        raise ValueError("open_series expects an open or weight0 fixture")
    return _heavy_light(fx, exp2_of_p1(_requested(trunc, fx.trunc)))


def _corrector(
    stable_fx: SeriesFixture, smooth_g0: SeriesFixture, trunc: int | None
) -> SymSeries:
    """genus0_corrector, truncated at the requested arity, after checking both
    fixtures."""
    if stable_fx.variant != "closed":
        raise ValueError("the stable series must be a closed fixture")
    if smooth_g0.variant != "open" or smooth_g0.genus != 0:
        raise ValueError("the corrector fixture must be the genus-0 open series")
    t = _requested(trunc, min(stable_fx.trunc, smooth_g0.trunc - 1))
    return genus0_corrector(smooth_g0.data, t)


def tail_free_series(
    stable_fx: SeriesFixture, smooth_g0: SeriesFixture, trunc: int | None = None
) -> BiSymSeries:
    """Series of stable curves with no rational tails carrying only light points.

    The intermediate coproduct(stable) o_2 (p_1 - d(smooth genus-0)/dp_1) of
    the two-step route to the closed series, exposed for the consistency
    checks.
    """
    inner = BiSymSeries.inject(_corrector(stable_fx, smooth_g0, trunc), 2)
    return coproduct(stable_fx.data.truncate(inner.trunc)).pleth2(inner)


def closed_series(
    stable_fx: SeriesFixture, smooth_g0: SeriesFixture, trunc: int | None = None
) -> HeavyLightResult:
    """Heavy/light series of the compactification.

    coproduct(stable) o_2 K with the composed corrector
    K = (p_1 - d(smooth_0)/dp_1) o_2 Exp(light generator), truncated and
    stability-masked.  Plethysm is associative, so this one substitution
    equals tail_free_series(...) o_2 Exp.  K lies in factor 2 alone, so it is
    formed in the one-factor ring, not on the coproduct, and then injected.
    """
    corrector = _corrector(stable_fx, smooth_g0, trunc)
    exp_p1 = SymSeries.power_sum(1, corrector.trunc).exp_series()
    return _heavy_light(stable_fx, BiSymSeries.inject(corrector.plethysm(exp_p1), 2), smooth_g0)


# -- genus-0 closed forms -----------------------------------------------------


def genus0_corrector(smooth: SymSeries, trunc: int) -> SymSeries:
    """The rational-tails corrector p_1 - d(smooth)/dp_1 of the smooth genus-0
    series, truncated; one side of the genus-0 Legendre pair."""
    return SymSeries.power_sum(1, trunc) - smooth.d_dp1().truncate(trunc)


def genus0_numeric_closed_form(order: int) -> FormalPS1:
    """Numeric genus-0 corrector series in y with UVPoly coefficients: the rank
    of genus0_corrector(G_0, order), G_0 the smooth genus-0 series.

    The series is y + ((y+1)^{uv} - uv*y - 1) / (uv - u^2 v^2).  Since
    binom(uv, k) / (uv - u^2 v^2) = -(uv - 2)...(uv - k + 1)/k!, its
    coefficients are the running product c_0 = 0, c_1 = 1, c_2 = -1/2 and
    c_{k+1} = c_k (uv - k)/(k + 1); for k >= 2, k! c_k is minus the numeric
    series value of the smooth genus-0 space with k + 1 markings.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    coeffs = [UVPoly.zero(), UVPoly.one(), UVPoly.const(Fraction(-1, 2))]
    for k in range(2, order):
        coeffs.append(coeffs[k] * (UVPoly.uv_power(1) - k) / (k + 1))
    return FormalPS1("y", coeffs[: order + 1], order)


def legendre_check(smooth_fx: SeriesFixture, stable_fx: SeriesFixture, trunc: int | None = None) -> bool:
    """Verify the genus-0 smooth/stable derivative series are inverse.

    Checks genus0_corrector(smooth) o (p_1 + d(stable)/dp_1) = p_1 to the
    common truncation, or to `trunc`, which may not exceed it.
    """
    if smooth_fx.genus != 0 or stable_fx.genus != 0:
        raise ValueError("legendre_check expects genus-0 fixtures")
    t = _requested(trunc, min(smooth_fx.trunc, stable_fx.trunc) - 1)
    p1 = SymSeries.power_sum(1, t)
    rhs = p1 + stable_fx.data.d_dp1().truncate(t)
    return genus0_corrector(smooth_fx.data, t).plethysm(rhs) == p1


# -- numeric change-of-variables pipelines ------------------------------------


def _expm1_ps2(order: int) -> FormalPS2:
    """e^y - 1 as a bivariate series in (x, y)."""
    coeffs = {(0, j): c for j, c in (FormalPS1.identity("y", order).exp() - 1).coeffs.items()}
    return FormalPS2(("x", "y"), coeffs, order)


def _numeric_heavy_light(b: FormalPS1, order: int | None, light) -> FormalPS2:
    """b(x + L(y)) to the requested order n, L = light(n) built after the check."""
    n = _requested(order, b.order)
    return compose_ps1_into_ps2(b.truncate(n), FormalPS2.variable(("x", "y"), 1, n) + light(n))


def open_series_numeric(b_numeric: FormalPS1, order: int | None = None) -> FormalPS2:
    """Numeric heavy/light smooth series: substitute x -> x + e^y - 1."""
    return _numeric_heavy_light(b_numeric, order, _expm1_ps2)


def closed_series_numeric(bbar_numeric: FormalPS1, order: int | None = None) -> FormalPS2:
    """Numeric heavy/light stable series: substitute x -> z(x, y).

    z = x + (genus-0 corrector composed with e^y - 1); expanding the closed
    form reproduces x + e^y + (e^{uv y} - uv e^y + uv - 1)/(uv - u^2v^2) - 1.
    """
    def light(n):
        return compose_ps1_into_ps2(genus0_numeric_closed_form(max(n, 1)).truncate(n), _expm1_ps2(n))

    return _numeric_heavy_light(bbar_numeric, order, light)


# -- genus-1 Euler-characteristic closed forms --------------------------------


def _eps_poly(order: int) -> FormalPS1:
    """The quartic correction polynomial used by the genus-1 closed forms."""
    c = [
        Fraction(0),
        Fraction(19, 12),
        Fraction(23, 24),
        Fraction(10, 36),
        Fraction(1, 24),
    ]
    return FormalPS1("y", [UVPoly.const(v) for v in c[: order + 1]], order)


def genus1_light_chi_egf(order: int) -> FormalPS1:
    """EGF of Euler characteristics of the genus-1 all-light stable spaces.

    f(y) = -y/12 - log(1-y)/2 + eps(e^y - 1); the y^n coefficient times n!
    is the Euler characteristic of the space with n light markings.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    y = FormalPS1.identity("y", order)
    one_minus_y = FormalPS1("y", [UVPoly.one(), UVPoly.const(-1)], order)
    f = y * Fraction(-1, 12) - one_minus_y.log() * Fraction(1, 2)
    return f + _eps_poly(order).compose(y.exp() - 1)


def genus1_stable_chi_egf(order: int) -> FormalPS1:
    """EGF of Euler characteristics of the genus-1 fully-marked stable spaces.

    The light closed form under y -> log(1 + g), g the compositional inverse
    of the u=v=1 specialization of the genus-0 corrector.
    """
    corr = genus0_numeric_closed_form(order)
    at_one = FormalPS1(
        "y", [UVPoly.const(corr[n].eval(1, 1)) for n in range(order + 1)], order
    )
    g = at_one.reversion()
    return genus1_light_chi_egf(order).compose((g + UVPoly.one()).log())


# -- derivative slice and tropical identities ----------------------------------


def slice_n1(fx: SeriesFixture, m: int) -> BiSymSeries:
    """The single-light-marking slice from the derivative of the next arity.

    Returns (d/dp_1 of the arity-(m+1) term), injected into factor 1, times
    the factor-2 singleton Schur generator.
    """
    if m + 1 > fx.trunc:
        raise ValueError(f"fixture truncation {fx.trunc} is too small for m={m}")
    term = fx.data.arity_part(m + 1)
    deriv = term.d_dp1()
    return BiSymSeries.inject(deriv, 1) * BiSymSeries.power_sum(1, 2, m + 1)


def tropical_euler(result: HeavyLightResult, m: int, n: int) -> BiSymSeries:
    """Equivariant Euler characteristic of the tropical heavy/light link.

    s_m^{(1)} s_n^{(2)} minus the weight-zero specialization of the open
    component; defined only where the space is stable and the tropical space
    is connected (genus >= 1, or genus 0 with m + n > 4).
    """
    g = result.genus
    if not stability_ok(g, m, n):
        raise ValueError(f"genus {g}, ({m},{n}) is not stable")
    if not (g >= 1 or (g == 0 and m + n > 4)):
        raise ValueError(
            f"tropical space for genus {g}, ({m},{n}) is not covered by the identity"
        )
    if result.variant not in ("open", "weight0"):
        raise ValueError("tropical_euler consumes the open-series result")
    comp = result.component(m, n).weight_zero()
    t = result.data.trunc
    sm = BiSymSeries.inject(SymSeries.homogeneous_h(m, t), 1)
    sn = BiSymSeries.inject(SymSeries.homogeneous_h(n, t), 2)
    return sm * sn - comp
