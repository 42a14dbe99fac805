"""Exact-rational polynomials in the two Hodge variables u, v.

UVPoly is the coefficient ring of every series in this package.  Values are
immutable: every operation returns a fresh polynomial, zero coefficients are
never stored, and equality is structural.

Text grammar (bit-exact, used by fixtures and table emitters):

    poly := term ('+' term)*
    term := rat '*u^' int '*v^' int
    rat  := '-'? int ('/' int)?

Terms are ordered by (u-exponent, v-exponent) lexicographically descending;
the zero polynomial prints as `0`.
"""

from fractions import Fraction


class NotDiagonalError(ValueError):
    """Raised when a polynomial with off-diagonal terms is rewritten in t."""


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


class UVPoly:
    """Sparse polynomial sum of c * u^a * v^b with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (a, b), c in terms.items():
                c = _coerce(c)
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent in term ({a},{b})")
                if c != 0:
                    clean[(a, b)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "UVPoly":
        return UVPoly()

    @staticmethod
    def const(c) -> "UVPoly":
        return UVPoly({(0, 0): _coerce(c)})

    @staticmethod
    def one() -> "UVPoly":
        return UVPoly.const(1)

    @staticmethod
    def monomial(a: int, b: int, c=1) -> "UVPoly":
        return UVPoly({(a, b): _coerce(c)})

    @staticmethod
    def uv_power(k: int, c=1) -> "UVPoly":
        """c * (uv)^k."""
        return UVPoly({(k, k): _coerce(c)})

    # -- ring structure -------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, UVPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UVPoly.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return UVPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UVPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UVPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce(other)
            if c == 0:
                return UVPoly()
            return UVPoly({k: c * v for k, v in self.terms.items()})
        out: dict = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                s = out.get(k, Fraction(0)) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return UVPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _coerce(scalar)
        if c == 0:
            raise ZeroDivisionError("division of UVPoly by zero scalar")
        return UVPoly({k: v / c for k, v in self.terms.items()})

    # -- operations -----------------------------------------------------

    def adams(self, k: int) -> "UVPoly":
        """Substitute u -> u^k, v -> v^k."""
        if k < 1:
            raise ValueError("adams exponent must be >= 1")
        if k == 1:
            return self
        return UVPoly({(a * k, b * k): c for (a, b), c in self.terms.items()})

    def eval(self, u0, v0) -> Fraction:
        """Evaluate at rational u0, v0."""
        u0, v0 = _coerce(u0), _coerce(v0)
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * u0**a * v0**b
        return total

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0), Fraction(0))

    def weight_zero(self) -> "UVPoly":
        """Specialize u = v = 0 (keep the constant term)."""
        c = self.constant_term()
        return UVPoly.const(c) if c else UVPoly()

    def is_diagonal(self) -> bool:
        """True if every term is a power of uv."""
        return all(a == b for (a, b) in self.terms)

    def diagonal_coeffs(self) -> dict:
        """Map k -> coefficient of (uv)^k.  Requires a diagonal polynomial."""
        if not self.is_diagonal():
            raise NotDiagonalError(f"off-diagonal term in {self}")
        return {a: c for (a, _), c in self.terms.items()}

    def to_poincare(self) -> dict:
        """Rewrite c*(uv)^a as c*t^{2a}; map is exponent-of-t -> coefficient.

        Raises NotDiagonalError if any term has unequal u,v exponents.
        """
        return {2 * a: c for a, c in self.diagonal_coeffs().items()}

    def is_palindromic(self, dim: int) -> bool:
        """True if diagonal and invariant under (uv)^k -> (uv)^{dim-k}."""
        try:
            d = self.diagonal_coeffs()
        except NotDiagonalError:
            return False
        return all(d.get(dim - k, Fraction(0)) == c for k, c in d.items())

    def mirror(self, dim: int) -> "UVPoly":
        """Apply u^a v^b -> u^{dim-a} v^{dim-b} (duality reflection)."""
        return UVPoly({(dim - a, dim - b): c for (a, b), c in self.terms.items()})

    # -- text form --------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b) in sorted(self.terms, reverse=True):
            c = self.terms[(a, b)]
            parts.append(f"{c}*u^{a}*v^{b}")
        return "+".join(parts)

    __repr__ = __str__


def as_poly(c) -> UVPoly:
    """A series coefficient: a UVPoly as is, an int or Fraction as a constant."""
    if isinstance(c, UVPoly):
        return c
    if isinstance(c, (int, Fraction)):
        return UVPoly.const(c)
    raise TypeError(f"cannot use {type(c)!r} as a series coefficient")


def parse_uvpoly(text: str) -> UVPoly:
    """Parse the canonical UVPoly grammar."""
    text = text.strip()
    if text == "0":
        return UVPoly()
    terms = {}
    for raw in text.split("+"):
        raw = raw.strip()
        pieces = raw.split("*")
        if len(pieces) != 3 or not pieces[1].startswith("u^") or not pieces[2].startswith("v^"):
            raise ValueError(f"malformed uv-poly term: {raw!r}")
        c = Fraction(pieces[0])
        a = int(pieces[1][2:])
        b = int(pieces[2][2:])
        if (a, b) in terms:
            raise ValueError(f"duplicate exponent pair in uv-poly: ({a},{b})")
        if a < 0 or b < 0:
            raise ValueError(f"negative exponent in uv-poly term: {raw!r}")
        terms[(a, b)] = c
    return UVPoly(terms)


def poincare_str(tpoly: dict) -> str:
    """Render an exponent->coefficient map as a polynomial in t, descending."""
    if not tpoly:
        return "0"
    parts = []
    for e in sorted(tpoly, reverse=True):
        c = tpoly[e]
        if c == 0:
            continue
        if e == 0:
            parts.append(f"{c}")
        elif c == 1:
            parts.append(f"t^{e}")
        elif c == -1:
            parts.append(f"-t^{e}")
        else:
            parts.append(f"{c}*t^{e}")
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def divide_diagonal_exact(numerator: UVPoly, divisor_diag: dict) -> UVPoly:
    """Exact division of diagonal polynomials viewed as univariate in q = uv.

    `divisor_diag` maps q-exponent -> coefficient.  Raises ValueError when the
    division leaves a remainder (an invariant violation for callers).
    """
    num = dict(numerator.diagonal_coeffs())
    div = {k: _coerce(c) for k, c in divisor_diag.items() if c != 0}
    if not div:
        raise ZeroDivisionError("division by zero polynomial")
    dtop = max(div)
    dlead = div[dtop]
    quo: dict = {}
    while num:
        ntop = max(num)
        if ntop < dtop:
            raise ValueError("inexact diagonal division (remainder left)")
        shift = ntop - dtop
        factor = num[ntop] / dlead
        quo[shift] = factor
        for e, c in div.items():
            k = e + shift
            s = num.get(k, Fraction(0)) - factor * c
            if s:
                num[k] = s
            else:
                num.pop(k, None)
    return UVPoly({(k, k): c for k, c in quo.items()})
