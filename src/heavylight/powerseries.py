"""Truncated formal power series with UVPoly coefficients.

FormalPS1 is univariate (a fixed variable name, coefficients indexed
0..order); FormalPS2 is bivariate with truncation on the total degree.
All arithmetic is exact; binary operations truncate to the minimum of the
two orders.

These classes deliberately share no code with the symmetric-function
series core in symseries.py.  Their composition, exp and reversion are the
independent route that the rank specializations (`SymSeries.rank1`,
`BiSymSeries.rank2`) are checked against: the offdiag benchmark workload,
the property suite, the numeric-versus-equivariant verify checks and the
rank tests compare plethysm with composition here.
"""

from fractions import Fraction

from .uvpoly import UVPoly, as_poly


class FormalPS1:
    """Series sum c_n * var^n for n = 0..order, with UVPoly coefficients."""

    __slots__ = ("var", "coeffs", "order")

    def __init__(self, var: str, coeffs, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = [as_poly(c) for c in coeffs]
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than order allows")
        coeffs += [UVPoly.zero()] * (order + 1 - len(coeffs))
        self.var = var
        self.coeffs = coeffs
        self.order = order

    @staticmethod
    def zero(var: str, order: int) -> "FormalPS1":
        return FormalPS1(var, [], order)

    @staticmethod
    def identity(var: str, order: int) -> "FormalPS1":
        """The series `var` itself."""
        return FormalPS1(var, [UVPoly.zero(), UVPoly.one()], order)

    def __getitem__(self, n: int) -> UVPoly:
        return self.coeffs[n] if 0 <= n <= self.order else UVPoly.zero()

    def __eq__(self, other):
        if not isinstance(other, FormalPS1):
            return NotImplemented
        n = min(self.order, other.order)
        return self.var == other.var and all(self[i] == other[i] for i in range(n + 1))

    def truncate(self, order: int) -> "FormalPS1":
        return FormalPS1(self.var, self.coeffs[: order + 1], min(self.order, order))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, UVPoly)):
            out = list(self.coeffs)
            out[0] = out[0] + as_poly(other)
            return FormalPS1(self.var, out, self.order)
        n = min(self.order, other.order)
        return FormalPS1(self.var, [self[i] + other[i] for i in range(n + 1)], n)

    __radd__ = __add__

    def __neg__(self):
        return FormalPS1(self.var, [-c for c in self.coeffs], self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, UVPoly)):
            return self + (-as_poly(other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, UVPoly)):
            c = as_poly(other)
            return FormalPS1(self.var, [a * c for a in self.coeffs], self.order)
        n = min(self.order, other.order)
        out = [UVPoly.zero() for _ in range(n + 1)]
        for i in range(n + 1):
            a = self[i]
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                b = other[j]
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return FormalPS1(self.var, out, n)

    __rmul__ = __mul__

    def derivative(self) -> "FormalPS1":
        if self.order == 0:
            return FormalPS1.zero(self.var, 0)
        out = [self[i + 1] * (i + 1) for i in range(self.order)]
        return FormalPS1(self.var, out, self.order - 1)

    def compose(self, inner: "FormalPS1") -> "FormalPS1":
        """self(inner); inner must have zero constant term."""
        if not inner[0].is_zero():
            raise ValueError("compose requires zero constant term in inner series")
        n = min(self.order, inner.order)
        acc = FormalPS1.zero(inner.var, n) + self[0]
        power = FormalPS1.zero(inner.var, n) + UVPoly.one()
        inner_t = inner.truncate(n)
        for i in range(1, n + 1):
            power = power * inner_t
            if not self[i].is_zero():
                acc = acc + power * self[i]
        return acc

    def exp(self) -> "FormalPS1":
        """exp of a series with zero constant term."""
        if not self[0].is_zero():
            raise ValueError("exp requires zero constant term")
        out = [UVPoly.one()]
        # e' = f' e  =>  n e_n = sum_{k=1..n} k f_k e_{n-k}
        for n in range(1, self.order + 1):
            s = UVPoly.zero()
            for k in range(1, n + 1):
                if not self[k].is_zero():
                    s = s + self[k] * out[n - k] * k
            out.append(s / n)
        return FormalPS1(self.var, out, self.order)

    def log(self) -> "FormalPS1":
        """log of a series with constant term 1."""
        if self[0] != UVPoly.one():
            raise ValueError("log requires constant term 1")
        out = [UVPoly.zero()]
        # f = e^g  =>  n f_n = sum_{k=1..n} k g_k f_{n-k}
        for n in range(1, self.order + 1):
            s = self[n] * n
            for k in range(1, n):
                s = s - (out[k] * k) * self[n - k]
            out.append(s / n)
        return FormalPS1(self.var, out, self.order)

    def reversion(self) -> "FormalPS1":
        """Compositional inverse of a series var + O(var^2)."""
        if not self[0].is_zero() or self[1] != UVPoly.one():
            raise ValueError("reversion requires the form var + higher order")
        inv = FormalPS1.identity(self.var, self.order)
        for n in range(2, self.order + 1):
            err = self.compose(inv.truncate(n))[n]
            coeffs = list(inv.coeffs)
            coeffs[n] = coeffs[n] - err
            inv = FormalPS1(self.var, coeffs, self.order)
        return inv

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c.is_zero():
                parts.append(f"({c})*{self.var}^{i}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


class FormalPS2:
    """Series sum c_{ij} * var1^i var2^j over i+j <= order."""

    __slots__ = ("vars", "coeffs", "order")

    def __init__(self, vars: tuple, coeffs: dict, order: int):
        if order < 0:
            raise ValueError("order must be nonnegative")
        clean = {}
        for (i, j), c in coeffs.items():
            c = as_poly(c)
            if i < 0 or j < 0:
                raise ValueError("negative exponent in bivariate series")
            if i + j <= order and not c.is_zero():
                clean[(i, j)] = c
        self.vars = (str(vars[0]), str(vars[1]))
        self.coeffs = clean
        self.order = order

    @staticmethod
    def zero(vars: tuple, order: int) -> "FormalPS2":
        return FormalPS2(vars, {}, order)

    @staticmethod
    def variable(vars: tuple, which: int, order: int) -> "FormalPS2":
        key = (1, 0) if which == 1 else (0, 1)
        return FormalPS2(vars, {key: UVPoly.one()}, order)

    def __getitem__(self, key) -> UVPoly:
        return self.coeffs.get(key, UVPoly.zero())

    def __eq__(self, other):
        if not isinstance(other, FormalPS2):
            return NotImplemented
        n = min(self.order, other.order)
        keys = set(self.coeffs) | set(other.coeffs)
        return self.vars == other.vars and all(
            self[k] == other[k] for k in keys if k[0] + k[1] <= n
        )

    def truncate(self, order: int) -> "FormalPS2":
        return FormalPS2(self.vars, self.coeffs, min(self.order, order))

    def __add__(self, other):
        if isinstance(other, (int, Fraction, UVPoly)):
            out = dict(self.coeffs)
            out[(0, 0)] = self[(0, 0)] + as_poly(other)
            return FormalPS2(self.vars, out, self.order)
        n = min(self.order, other.order)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = self[k] + c
        return FormalPS2(self.vars, out, n)

    __radd__ = __add__

    def __neg__(self):
        return FormalPS2(self.vars, {k: -c for k, c in self.coeffs.items()}, self.order)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, UVPoly)):
            return self + (-as_poly(other))
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, UVPoly)):
            c = as_poly(other)
            return FormalPS2(
                self.vars, {k: v * c for k, v in self.coeffs.items()}, self.order
            )
        n = min(self.order, other.order)
        out: dict = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i + j > n:
                    continue
                k = (i, j)
                s = out.get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
        return FormalPS2(self.vars, out, n)

    __rmul__ = __mul__

    def __str__(self):
        parts = []
        for (i, j) in sorted(self.coeffs):
            parts.append(f"({self.coeffs[(i, j)]})*{self.vars[0]}^{i}*{self.vars[1]}^{j}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


def compose_ps1_into_ps2(outer: FormalPS1, inner: FormalPS2) -> FormalPS2:
    """Substitute a bivariate series (zero constant term) into a univariate one."""
    if not inner[(0, 0)].is_zero():
        raise ValueError("substitution requires zero constant term")
    n = min(outer.order, inner.order)
    inner_t = inner.truncate(n)
    acc = FormalPS2.zero(inner.vars, n) + outer[0]
    power = FormalPS2.zero(inner.vars, n) + UVPoly.one()
    for i in range(1, n + 1):
        power = power * inner_t
        if not outer[i].is_zero():
            acc = acc + power * outer[i]
    return acc
