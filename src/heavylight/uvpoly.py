"""Exact-rational polynomials in the two Hodge variables u, v.

UVPoly is the coefficient ring of every series in this package.  It stores
integer numerators keyed by exponent pair over one positive integer
denominator, in lowest terms: no zero numerator is stored, the gcd of the
denominator and all numerators is 1, and zero has denominator 1.  So
equality and hashing are structural, and arithmetic is on ints with one gcd
at the end.  One denominator per polynomial fits the data: a power-sum
coefficient takes its denominator from z_lambda (Macdonald, Symmetric
Functions and Hall Polynomials, I.2 and I.7), and every u^a v^b term of it
shares that denominator.  Values are immutable.  Both series rings add into
integer running sums (`_slot`), each reduced once (`_reduced`).

Each exponent pair is one tuple for the life of the process: MONOMIALS maps
(a, b) to the first tuple built for it, every site that makes a key for a new
pair stores that tuple, and the table holds one entry per distinct pair the
process builds (11 for the genus-1 closed table to arity 10).

Two bit-exact text grammars: the uv form, used by fixtures and table
emitters, and the t form, the Poincare form of a diagonal polynomial with
t^2 = uv, used by golden tables and the poincare table form.

    poly  := '0' | term ('+' term)*
    term  := rat '*u^' int '*v^' int
    tpoly := '0' | '-'? tterm (('+' | '-') tterm)*
    tterm := urat | (urat '*')? 't^' int
    rat   := '-'? urat
    urat  := int ('/' int)?
    int   := [0-9]+  (ASCII digits; no '_', '.', exponent or inner space)
    part  := '[' (int (',' int)*)? ']'

The uv form orders terms by (u-exponent, v-exponent) descending.  The t form
orders them by t-exponent descending and has even exponents only; it writes
t^e for a coefficient of 1, and a constant term without t^0.
"""

import re
from fractions import Fraction
from math import gcd, lcm

INT = "[0-9]+"  # int() also takes 1_0 and other scripts' digits, and \d matches those
_URAT = f"{INT}(?:/{INT})?"
_SIGNED_INT = re.compile(f"-?{INT}")
_RAT = re.compile(f"(-?{INT})(?:/({INT}))?")
_TERM = re.compile(rf"(-?{_URAT})\*u\^({INT})\*v\^({INT})")
_TTERM = re.compile(rf"(-?)(?:({_URAT})|(?:({_URAT})\*)?t\^({INT}))")
PARTITION = re.compile(rf"\[((?:{INT},)*{INT})?\]")

MONOMIALS: dict = {}  # (a, b) -> the one tuple that stands for it; see the module docstring


def _pair(a: int, b: int) -> tuple:
    """The canonical tuple (a, b) of MONOMIALS."""
    m = a, b
    return MONOMIALS.setdefault(m, m)


class NotDiagonalError(ValueError):
    """Raised when a polynomial with off-diagonal terms is read as one in q = uv."""


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


def _ratio(n: int, d: int) -> str:
    """The rational n / d, d > 0, written in lowest terms as the rat grammar does: n or n/d."""
    g = gcd(n, d)
    return f"{n // g}" if d == g else f"{n // g}/{d // g}"


def _lowest(nums: dict, den: int) -> "UVPoly":
    """The UVPoly nums / den, reduced to lowest terms; `nums` holds no zero, den > 0."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
    p = object.__new__(UVPoly)
    p.nums, p.den = nums, den
    return p


def _slot(acc: dict, key, den: int, w=1) -> tuple:
    """The numerators of the running sum acc[key] = [nums, lcm of the denominators
    added so far] and the factor that puts w / den, for an int or Fraction w, on
    that lcm; the numerators are rescaled when the new denominator raises it."""
    den *= w.denominator
    entry = acc.get(key)
    if entry is None:
        acc[key] = entry = [{}, den]
    nums, d = entry
    if d % den:
        s = den // gcd(d, den)
        for m in nums:
            nums[m] *= s
        entry[1] = d = d * s
    return nums, d // den * w.numerator


def _reduced(acc: dict):
    """The nonzero running sums of `acc` as (key, UVPoly) pairs in lowest terms,
    each key released from `acc` as it is reduced."""
    for key in list(acc):
        nums, den = acc.pop(key)
        if 0 in nums.values():
            nums = {m: x for m, x in nums.items() if x}
        if nums:
            yield key, _lowest(nums, den)


class UVPoly:
    """Sparse polynomial sum of nums[a, b] * u^a * v^b / den, in lowest terms.

    `terms` reads the coefficients back as Fractions, never ints even when
    den == 1, so that a caller dividing two of them gets an exact quotient.
    """

    __slots__ = ("nums", "den")

    def __init__(self, terms=None):
        terms = {k: _coerce(c) for k, c in (terms or {}).items()}
        for k in terms:
            if not (type(k) is tuple and len(k) == 2 and type(k[0]) is type(k[1]) is int):
                raise ValueError(f"exponent pair {k!r} is not two ints")
            if min(k) < 0:
                raise ValueError(f"negative exponent in term ({k[0]},{k[1]})")
        p = _from_ratios({k: (c.numerator, c.denominator) for k, c in terms.items() if c})
        self.nums, self.den = p.nums, p.den

    @property
    def terms(self) -> dict:
        """The coefficients as {(a, b) -> Fraction}, a fresh dict on each access."""
        return {k: Fraction(n, self.den) for k, n in self.nums.items()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero() -> "UVPoly":
        return _lowest({}, 1)

    @staticmethod
    def const(c) -> "UVPoly":
        return UVPoly({(0, 0): c})

    @staticmethod
    def one() -> "UVPoly":
        return _lowest({_pair(0, 0): 1}, 1)

    @staticmethod
    def monomial(a: int, b: int, c=1) -> "UVPoly":
        return UVPoly({(a, b): c})

    @staticmethod
    def uv_power(k: int, c=1) -> "UVPoly":
        """c * (uv)^k."""
        return UVPoly({(k, k): c})

    # -- ring structure -------------------------------------------------

    def __bool__(self):
        return bool(self.nums)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other):
        if not isinstance(other, UVPoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = UVPoly.const(other)
        elif not isinstance(other, UVPoly):
            return NotImplemented
        g = gcd(self.den, other.den)  # both go over the lcm of the two
        s1, s2 = other.den // g, self.den // g
        nums = {k: n * s1 for k, n in self.nums.items()}
        for k, n in other.nums.items():
            s = nums.get(k, 0) + n * s2
            if s:
                nums[k] = s
            else:
                del nums[k]
        return _lowest(nums, self.den * s1)

    __radd__ = __add__

    def __neg__(self):
        return _lowest({k: -n for k, n in self.nums.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, (int, Fraction, UVPoly)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            p = other.numerator
            nums = {k: n * p for k, n in self.nums.items()} if p else {}
            return _lowest(nums, self.den * other.denominator)
        if not isinstance(other, UVPoly):
            return NotImplemented
        nums: dict = {}
        get = nums.get
        for (a1, b1), n1 in self.nums.items():
            for (a2, b2), n2 in other.nums.items():
                k = (a1 + a2, b1 + b2)
                v = get(k)
                if v is None:
                    nums[MONOMIALS.setdefault(k, k)] = n1 * n2
                else:
                    nums[k] = v + n1 * n2
        if 0 in nums.values():
            nums = {k: n for k, n in nums.items() if n}
        return _lowest(nums, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = _coerce(scalar)
        if c == 0:
            raise ZeroDivisionError("division of UVPoly by zero scalar")
        return self * (1 / c)

    # -- operations -----------------------------------------------------

    def adams(self, k: int) -> "UVPoly":
        """Substitute u -> u^k, v -> v^k."""
        if k < 1:
            raise ValueError("adams exponent must be >= 1")
        if k == 1:
            return self
        return _lowest({_pair(a * k, b * k): n for (a, b), n in self.nums.items()}, self.den)

    def eval(self, u0, v0) -> Fraction:
        """Evaluate at rational u0, v0."""
        u0, v0 = _coerce(u0), _coerce(v0)
        return sum((n * u0**a * v0**b for (a, b), n in self.nums.items()), Fraction(0)) / self.den

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get((0, 0), 0), self.den)

    def weight_zero(self) -> "UVPoly":
        """Specialize u = v = 0 (keep the constant term)."""
        return UVPoly.const(self.constant_term())

    def is_diagonal(self) -> bool:
        """True if every term is a power of uv."""
        return all(a == b for (a, b) in self.nums)

    def is_palindromic(self, dim: int) -> bool:
        """True if diagonal and invariant under (uv)^k -> (uv)^{dim-k}."""
        return self.is_diagonal() and all(
            self.nums.get((dim - a, dim - a)) == n for (a, _), n in self.nums.items()
        )

    def mirror(self, dim: int) -> "UVPoly":
        """Apply u^a v^b -> u^{dim-a} v^{dim-b} (duality reflection)."""
        if any(a > dim or b > dim for a, b in self.nums):
            raise ValueError(f"negative exponent in the mirror of {self} at {dim}")
        return _lowest({_pair(dim - a, dim - b): n for (a, b), n in self.nums.items()}, self.den)

    # -- text form --------------------------------------------------------

    def __str__(self):
        terms = sorted(self.nums.items(), reverse=True)
        return "+".join(f"{_ratio(n, self.den)}*u^{a}*v^{b}" for (a, b), n in terms) or "0"

    __repr__ = __str__


def as_poly(c) -> UVPoly:
    """A series coefficient: a UVPoly as is, an int or Fraction as a constant."""
    return c if isinstance(c, UVPoly) else UVPoly.const(c)


def parse_int(text: str, name: str) -> int:
    """An integer literal '-'? int; the caller checks its sign."""
    if not _SIGNED_INT.fullmatch(text):
        raise ValueError(f"{name} must be an integer, got {text!r}")
    return int(text)


def _int_ratio(text: str) -> tuple:
    """A coefficient literal rat as (numerator, denominator > 0), not reduced."""
    m = _RAT.fullmatch(text)
    if not m:
        raise ValueError(f"malformed coefficient {text!r}")
    num, den = int(m[1]), int(m[2] or 1)
    if not den:
        raise ValueError(f"zero denominator in coefficient {text!r}")
    return num, den


def parse_rational(text: str) -> Fraction:
    """A coefficient literal rat; a zero denominator is a ValueError like any other bad literal."""
    return Fraction(*_int_ratio(text))


def _from_ratios(terms: dict) -> UVPoly:
    """The UVPoly with coefficient n/d at each (a, b) -> (n, d) of `terms`, n != 0 and d > 0."""
    den = lcm(*(d for _, d in terms.values()))
    return _lowest({MONOMIALS.setdefault(k, k): n * (den // d) for k, (n, d) in terms.items()}, den)


def parse_uvpoly(text: str) -> UVPoly:
    """Parse the uv grammar; a zero term or a repeated exponent pair is refused."""
    if text == "0":
        return UVPoly()
    terms = {}
    for raw in text.split("+"):
        m = _TERM.fullmatch(raw)
        if not m:
            raise ValueError(f"malformed uv-poly term: {raw!r}")
        (num, den), a, b = _int_ratio(m[1]), int(m[2]), int(m[3])
        if not num:
            raise ValueError(f"zero coefficient in uv-poly term: {raw!r}")
        if (a, b) in terms:
            raise ValueError(f"duplicate exponent pair in uv-poly: ({a},{b})")
        terms[a, b] = num, den
    return _from_ratios(terms)


def parse_tpoly(text: str) -> UVPoly:
    """Parse the t grammar, t^{2k} read as (uv)^k; refuses bad or zero terms, odd powers, repeats."""
    if text == "0":
        return UVPoly()
    terms = {}
    for term in (text[:1] + text[1:].replace("-", "+-")).split("+"):
        m = _TTERM.fullmatch(term)
        if not m:
            raise ValueError(f"malformed t-poly term {term!r}")
        sign, const, coeff, e = m.groups()
        (num, den), e = _int_ratio(sign + (const or coeff or "1")), int(e or 0)
        if not num:
            raise ValueError(f"zero coefficient in t-poly term {term!r}")
        if e % 2:
            raise ValueError("odd power of t cannot be a uv-polynomial")
        if (e // 2, e // 2) in terms:
            raise ValueError(f"duplicate exponent in t-poly: t^{e}")
        terms[e // 2, e // 2] = num, den
    return _from_ratios(terms)


def poincare_str(poly: UVPoly) -> str:
    """Render a diagonal polynomial in the t grammar; NotDiagonalError otherwise."""
    if not poly.is_diagonal():
        raise NotDiagonalError(f"off-diagonal term in {poly}")
    parts = []
    for (a, _), n in sorted(poly.nums.items(), reverse=True):
        c, e = _ratio(n, poly.den), 2 * a
        if e == 0:
            parts.append(c)
        elif c == "1":
            parts.append(f"t^{e}")
        elif c == "-1":
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
    # Pseudo-division of the numerators, premultiplied so each step is exact.
    d = {a: c for (a, _), c in divisor.nums.items()}
    top = max(d)
    scale = abs(d[top]) ** max(0, max(numerator.nums, default=(0, 0))[0] - top + 1)
    rem, quo = {a: c * scale for (a, _), c in numerator.nums.items()}, {}
    while rem:
        lead = max(rem)
        if lead < top:
            raise ValueError("inexact diagonal division (remainder left)")
        step = quo[lead - top] = rem[lead] // d[top]
        for a, c in d.items():
            rem[lead - top + a] = rem.get(lead - top + a, 0) - step * c
        rem = {a: c for a, c in rem.items() if c}
    return _lowest({_pair(a, a): c * divisor.den for a, c in quo.items()}, numerator.den * scale)
