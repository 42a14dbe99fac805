"""Truncated bisymmetric-function series (two tensor factors of power sums).

A BiSymSeries is a finitely supported map {(lam, mu) -> UVPoly} with a bound
on the total arity |lam| + |mu|.  Factor 1 indexes the heavy markings,
factor 2 the light ones.  It is the two-factor subclass of the series core
in symseries.py, which supplies the ring arithmetic, the Adams map, the
plethysm kernel, Exp/Log and the Schur change of basis; this module adds
only the key algebra of pairs and the two-factor operations.  The factor-2
plethysm substitutes into factor 2 while leaving monomials of factor 1
fixed; the Adams maps rescale the power-sum indices of BOTH factors and
apply the coefficient Adams operation.
"""

from math import comb

from .partitions import multiplicities, union
from .powerseries import FormalPS2
from .symseries import SymSeries, _Series


class BiSymSeries(_Series):
    """Element of the total-arity-truncated bisymmetric series ring."""

    __slots__ = ()

    _UNIT = ((), ())
    _POWER_TAGS = ("p1", "p2")

    @staticmethod
    def _arity(key):
        return sum(key[0]) + sum(key[1])

    @staticmethod
    def _key_mul(a, b):
        return (union(a[0], b[0]), union(a[1], b[1]))

    # A key already is the tuple (lam, mu) of its factor partitions.
    _factors = _from_factors = staticmethod(tuple)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def power_sum(k: int, factor: int, trunc: int) -> "BiSymSeries":
        """The generator p_k of the chosen tensor factor."""
        return BiSymSeries.inject(SymSeries.power_sum(k, trunc), factor)

    @staticmethod
    def inject(f: SymSeries, factor: int) -> "BiSymSeries":
        """Include a symmetric series into the chosen tensor factor."""
        if factor == 1:
            return BiSymSeries._built({(lam, ()): c for lam, c in f.coeffs.items()}, f.trunc)
        if factor == 2:
            return BiSymSeries._built({((), lam): c for lam, c in f.coeffs.items()}, f.trunc)
        raise ValueError("factor must be 1 or 2")

    # -- structure --------------------------------------------------------

    def arity_components(self) -> dict:
        """{(m, n): the terms with |lam| = m and |mu| = n}, grouped in one pass."""
        groups: dict = {}
        for (lam, mu), c in self.coeffs.items():
            groups.setdefault((sum(lam), sum(mu)), {})[lam, mu] = c
        return {mn: BiSymSeries._built(terms, self.trunc) for mn, terms in groups.items()}

    def swap_factors(self) -> "BiSymSeries":
        return BiSymSeries._built(
            {(mu, lam): c for (lam, mu), c in self.coeffs.items()}, self.trunc
        )

    # -- ring and plethystic operations -------------------------------------

    def __mul__(self, other):
        return self._mul(other)

    __rmul__ = __mul__

    def pleth2(self, g: "BiSymSeries") -> "BiSymSeries":
        """Factor-2 plethysm self o_2 g.

        Every p_k in factor 2 of self is replaced by adams(k, g); factor-1
        monomials and coefficients of self pass through unchanged.  `g` must
        have zero constant term.
        """
        return self._pleth(g, 2)

    def exp2(self) -> "BiSymSeries":
        """Exp: sum over n >= 1 of h_n o self (zero constant term required).

        The Adams maps scale both factors and commute with swap_factors, so
        this one map serves substitution into either factor.
        """
        return self._exp()

    def log2(self) -> "BiSymSeries":
        """Log, the inverse of exp2."""
        return self._log()

    # -- specializations -----------------------------------------------------

    def rank2(self) -> FormalPS2:
        """p_1^{(1)} -> x, p_1^{(2)} -> y, higher power sums -> 0: x^i y^j takes
        the coefficient of p_1^{(1) i} p_1^{(2) j}, the one monomial that survives."""
        n = self.trunc
        coeffs = {(i, j): self[((1,) * i, (1,) * j)] for i in range(n + 1) for j in range(n + 1 - i)}
        return FormalPS2(("x", "y"), coeffs, n)

    def to_schur_pairs(self) -> dict:
        """Expansion into products s_lam^{(1)} s_mu^{(2)}: map (lam, mu) -> UVPoly,
        changing the basis of factor 1 and then of factor 2."""
        return self._schur()

    @staticmethod
    def from_schur_pairs(schur_coeffs: dict, trunc: int) -> "BiSymSeries":
        """Inverse of to_schur_pairs."""
        return BiSymSeries.from_schur(schur_coeffs, trunc)

    def set_factor2_to_zero(self) -> SymSeries:
        """Keep only terms with empty factor 2, as a symmetric series."""
        return SymSeries._built(
            {lam: c for (lam, mu), c in self.coeffs.items() if not mu}, self.trunc
        )

    # -- presentation ----------------------------------------------------------

    def pretty(self) -> str:
        """Render as a sum over pairs of Schur functions."""
        return self._render(self.to_schur_pairs(), ("s1", "s2"))


def coproduct(f: SymSeries) -> BiSymSeries:
    """The algebra map p_i -> p_i^{(1)} + p_i^{(2)} applied to a SymSeries.

    For p_lambda with multiplicities m_i the image is the product over i of
    sum_j C(m_i, j) p_i^{j (1)} p_i^{(m_i - j) (2)}, expanded directly.  Taken in
    decreasing i, each pair is built canonical, and once: it fixes lam and j.  A
    term of binomial weight 1 keeps the coefficient of p_lambda itself, not a copy.
    """
    out: dict = {}
    for lam, c in f.coeffs.items():
        pieces = [((), (), 1)]
        for i, m in multiplicities(lam).items():
            nxt = []
            for j in range(m + 1):
                w = comb(m, j)
                for (l1, l2, mult) in pieces:
                    nxt.append((l1 + (i,) * j, l2 + (i,) * (m - j), mult * w))
            pieces = nxt
        for l1, l2, mult in pieces:
            out[l1, l2] = c if mult == 1 else c * mult
    return BiSymSeries._built(out, f.trunc)


def exp2_of_p1(trunc: int) -> BiSymSeries:
    """Exp(p_1^{(2)}) = sum over n >= 1 of h_n^{(2)}: the light-markings series."""
    return BiSymSeries.inject(SymSeries.power_sum(1, trunc).exp_series(), 2)
