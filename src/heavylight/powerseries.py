"""Truncated formal power series with UVPoly coefficients.

`_TruncatedPS` is the ring: a map {exponent -> UVPoly} with a bound `order`
on the total degree, holding the cleaning, equality, truncation, arithmetic,
rendering and the one substitution loop.  FormalPS1 is univariate (integer
exponents; it adds derivative, exp, log and reversion) and FormalPS2 is
bivariate (exponent pairs).  All arithmetic is exact; binary operations
truncate to the minimum of the two orders.

These classes deliberately share no code with the symmetric-function
series core in symseries.py, only the L1 arithmetic of uvpoly.py: a product
adds each coefficient product into a running sum of uvpoly's (`_add_product`),
reduced once (`_reduced`).  exp and log are substitutions of closed-form
series; reversion is a power table.  The Exp/Log recurrence is written once,
in the core, so this route shares no algorithm with it.  Composition, exp,
log and reversion are the independent route that the rank specializations
(`SymSeries.rank1`, `BiSymSeries.rank2`) are checked against: the offdiag
benchmark workload, the property suite, the numeric-versus-equivariant verify
checks and the rank tests compare plethysm with composition here.
"""

import operator
from fractions import Fraction
from math import factorial

from .uvpoly import UVPoly, _add_product, _reduced, as_poly

_SCALARS = (int, Fraction, UVPoly)


class _TruncatedPS:
    """Sum of c_e * monomial(e) over exponents e of total degree <= order.

    A subclass supplies the exponent type: `_ONE` (the constant term's
    exponent), `_degree`, `_key_add` (exponent of a product) and `_monomial`.
    """

    __slots__ = ("vars", "coeffs", "order")

    def __init__(self, vars: tuple, coeffs: dict, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        clean = {}
        for e, c in coeffs.items():
            c = as_poly(c)
            if self._degree(e) <= order and not c.is_zero():
                clean[e] = c
        self.vars = vars
        self.coeffs = clean
        self.order = order

    def _like(self, coeffs: dict, order: int):
        """A series of the same class in the same variables."""
        out = object.__new__(type(self))
        _TruncatedPS.__init__(out, self.vars, coeffs, order)
        return out

    def __getitem__(self, e) -> UVPoly:
        return self.coeffs.get(e, UVPoly.zero())

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        n = min(self.order, other.order)
        return self.vars == other.vars and self.truncate(n).coeffs == other.truncate(n).coeffs

    def truncate(self, order: int):
        return self._like(self.coeffs, min(self.order, order))

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = self._like({self._ONE: other}, self.order)
        elif type(other) is not type(self):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = self[e] + c
        return self._like(out, min(self.order, other.order))

    __radd__ = __add__

    def __neg__(self):
        return self._like({e: -c for e, c in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        if not isinstance(other, (*_SCALARS, type(self))):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = as_poly(other)
            return self._like({e: v * c for e, v in self.coeffs.items()}, self.order)
        if type(other) is not type(self):
            return NotImplemented
        n = min(self.order, other.order)
        degree, key_add = self._degree, self._key_add
        right = [(e, degree(e), c) for e, c in other.coeffs.items()]
        acc: dict = {}
        for e1, c1 in self.coeffs.items():
            room = n - degree(e1)
            for e2, d2, c2 in right:
                if d2 <= room:
                    _add_product(acc, key_add(e1, e2), c1, c2)
        return self._like(dict(_reduced(acc)), n)

    __rmul__ = __mul__

    def _substituted_into(self, outer: "FormalPS1"):
        """outer(self) for a univariate `outer`; self must have zero constant term."""
        if not self[self._ONE].is_zero():
            raise ValueError("substitution requires zero constant term in the inner series")
        n = min(outer.order, self.order)
        power = self._like({self._ONE: UVPoly.one()}, n)  # self^i truncated at n
        acc: dict = {}
        for i in range(n + 1):
            if i:
                power = power * self
            if outer[i]:
                for e, c in power.coeffs.items():
                    _add_product(acc, e, outer[i], c)
        return self._like(dict(_reduced(acc)), n)

    def __str__(self):
        parts = [f"({self.coeffs[e]})*{self._monomial(e)}" for e in sorted(self.coeffs)]
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class FormalPS1(_TruncatedPS):
    """Series sum c_n * var^n for n = 0..order, with UVPoly coefficients."""

    __slots__ = ()
    _ONE = 0
    _degree = staticmethod(int)  # an integer exponent is its own degree
    _key_add = staticmethod(operator.add)

    def __init__(self, var: str, coeffs, order: int):
        coeffs = dict(enumerate(coeffs))
        super().__init__((var,), coeffs, order)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than order allows")

    @property
    def var(self) -> str:
        return self.vars[0]

    @staticmethod
    def identity(var: str, order: int) -> "FormalPS1":
        """The series `var` itself (zero at order 0)."""
        return FormalPS1(var, [UVPoly.zero(), UVPoly.one()][: order + 1], order)

    def _monomial(self, e: int) -> str:
        return f"{self.var}^{e}"

    def derivative(self) -> "FormalPS1":
        out = {n - 1: c * n for n, c in self.coeffs.items() if n}
        return self._like(out, max(self.order - 1, 0))

    def compose(self, inner: "FormalPS1") -> "FormalPS1":
        """self(inner); inner must have zero constant term."""
        return inner._substituted_into(self)

    def exp(self) -> "FormalPS1":
        """exp of a series with zero constant term: the closed-form series
        sum_k var^k/k! substituted into it."""
        if not self[0].is_zero():
            raise ValueError("exp requires zero constant term")
        series = [Fraction(1, factorial(k)) for k in range(self.order + 1)]
        return FormalPS1(self.var, series, self.order).compose(self)

    def log(self) -> "FormalPS1":
        """log of a series g with constant term 1: the closed-form series
        sum_{k>=1} (-1)^(k+1) var^k/k substituted into g - 1."""
        if self[0] != UVPoly.one():
            raise ValueError("log requires constant term 1")
        series = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, self.order + 1)]
        return FormalPS1(self.var, series, self.order).compose(self - 1)

    def reversion(self) -> "FormalPS1":
        """Compositional inverse g of a series f = var + O(var^2).

        var = f(g) = g + sum_{k>=2} f_k g^k gives g_m = -sum_{k=2..m} f_k [var^m] g^k,
        and [var^m] g^k = sum_j g_j [var^(m-j)] g^(k-1) needs only g_1 .. g_{m-k+1}: the
        table of [var^m] g^k is filled one column m at a time, in O(order^3) products.
        """
        if not self[0].is_zero() or self[1] != UVPoly.one():
            raise ValueError("reversion requires the form var + higher order")
        n, zero = self.order, UVPoly.zero()
        g = [zero, UVPoly.one()][: n + 1]
        pw = [None, g] + [[zero] * (n + 1) for _ in range(2, n + 1)]  # pw[k][m] = [var^m] g^k
        for m in range(2, n + 1):
            for k in range(2, m + 1):
                pw[k][m] = sum((g[j] * pw[k - 1][m - j] for j in range(1, m - k + 2)), zero)
            g.append(-sum((self[k] * pw[k][m] for k in range(2, m + 1) if self[k]), zero))
        return FormalPS1(self.var, g, n)


class FormalPS2(_TruncatedPS):
    """Series sum c_{ij} * var1^i var2^j over i+j <= order."""

    __slots__ = ()
    _ONE = (0, 0)
    _degree = staticmethod(sum)
    _key_add = staticmethod(lambda a, b: (a[0] + b[0], a[1] + b[1]))

    def __init__(self, vars: tuple, coeffs: dict, order: int):
        if any(i < 0 or j < 0 for i, j in coeffs):
            raise ValueError("negative exponent in bivariate series")
        super().__init__((str(vars[0]), str(vars[1])), coeffs, order)

    @staticmethod
    def variable(vars: tuple, which: int, order: int) -> "FormalPS2":
        return FormalPS2(vars, {(1, 0) if which == 1 else (0, 1): UVPoly.one()}, order)

    def _monomial(self, e: tuple) -> str:
        return f"{self.vars[0]}^{e[0]}*{self.vars[1]}^{e[1]}"


def compose_ps1_into_ps2(outer: FormalPS1, inner: FormalPS2) -> FormalPS2:
    """Substitute a bivariate series (zero constant term) into a univariate one."""
    return inner._substituted_into(outer)
