"""Exact-rational polynomials in the two Hodge variables u, v.

UVPoly is the coefficient ring of every series in this package.  Values are
immutable: every operation returns a fresh polynomial, zero coefficients are
never stored, and equality is structural.

Two bit-exact text grammars: the uv form, used by fixtures and table
emitters, and the t form, the Poincare form of a diagonal polynomial with
t^2 = uv, used by golden tables and the poincare table form.

    poly  := '0' | term ('+' term)*
    term  := rat '*u^' int '*v^' int
    tpoly := '-'? tterm (('+' | '-') tterm)*
    tterm := urat | (urat '*')? 't^' int
    rat   := '-'? urat
    urat  := int ('/' int)?

The uv form orders terms by (u-exponent, v-exponent) descending.  The t form
orders them by t-exponent descending and has even exponents only; it writes
t^e for a coefficient of 1, and a constant term without t^0.
"""

from fractions import Fraction


class NotDiagonalError(ValueError):
    """Raised when a polynomial with off-diagonal terms is read as one in q = uv."""


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

    def is_palindromic(self, dim: int) -> bool:
        """True if diagonal and invariant under (uv)^k -> (uv)^{dim-k}."""
        return self.is_diagonal() and all(
            self.terms.get((dim - a, dim - a)) == c for (a, _), c in self.terms.items()
        )

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


def parse_tpoly(text: str) -> UVPoly:
    """Parse the t grammar, reading t^{2k} as (uv)^k; odd powers of t are rejected."""
    out = UVPoly()
    for term in text.replace("-", "+-").split("+"):
        term = term.strip()
        if not term:
            continue
        sign = -1 if term.startswith("-") else 1
        coeff_s, _, exp_s = term.lstrip("-").partition("t^")
        coeff = Fraction(coeff_s.removesuffix("*") or 1) if exp_s else Fraction(coeff_s)
        e = int(exp_s or 0)
        if e % 2:
            raise ValueError("odd power of t cannot be a uv-polynomial")
        out = out + UVPoly.uv_power(e // 2, sign * coeff)
    return out


def poincare_str(poly: UVPoly) -> str:
    """Render a diagonal polynomial in the t grammar; NotDiagonalError otherwise."""
    if not poly.is_diagonal():
        raise NotDiagonalError(f"off-diagonal term in {poly}")
    parts = []
    for a, _ in sorted(poly.terms, reverse=True):
        c, e = poly.terms[(a, a)], 2 * a
        if e == 0:
            parts.append(f"{c}")
        elif c == 1:
            parts.append(f"t^{e}")
        elif c == -1:
            parts.append(f"-t^{e}")
        else:
            parts.append(f"{c}*t^{e}")
    return "+".join(parts).replace("+-", "-") or "0"


def divide_diagonal_exact(numerator: UVPoly, divisor: UVPoly) -> UVPoly:
    """Exact division of diagonal polynomials viewed as univariate in q = uv.

    Raises ValueError when the division leaves a remainder (an invariant
    violation for callers).
    """
    if not divisor:
        raise ZeroDivisionError("division by zero polynomial")
    if not (numerator.is_diagonal() and divisor.is_diagonal()):
        raise NotDiagonalError(f"off-diagonal term in {numerator} / {divisor}")
    top = max(divisor.terms)
    quo, rem = UVPoly(), numerator
    while rem:
        lead = max(rem.terms)
        if lead < top:
            raise ValueError("inexact diagonal division (remainder left)")
        step = UVPoly.uv_power(lead[0] - top[0], rem.terms[lead] / divisor.terms[top])
        quo, rem = quo + step, rem - step * divisor
    return quo
