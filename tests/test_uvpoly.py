import re
from fractions import Fraction
from math import lcm

import pytest

from heavylight.fixtures import load_fixture
from heavylight.partitions import parse_partition
from heavylight.pipeline import closed_series
from heavylight.uvpoly import (
    MONOMIALS,
    NotDiagonalError,
    UVPoly,
    divide_diagonal_exact,
    parse_int,
    parse_rational,
    parse_tpoly,
    parse_uvpoly,
    poincare_str,
)
from heavylight.tables import GOLDEN_DIR


def test_adams():
    f = UVPoly.uv_power(1) + 1
    assert f.adams(2) == UVPoly.uv_power(2) + 1
    g = UVPoly.monomial(2, 0) - UVPoly.monomial(0, 1, 2)
    assert g.adams(3) == UVPoly.monomial(6, 0) - UVPoly.monomial(0, 3, 2)
    assert UVPoly.zero().adams(5) == UVPoly.zero()


def test_eval():
    # coefficient row 1,7,13,7,1 sums to 29 at u = v = 1
    f = (
        UVPoly.uv_power(4)
        + UVPoly.uv_power(3, 7)
        + UVPoly.uv_power(2, 13)
        + UVPoly.uv_power(1, 7)
        + 1
    )
    assert f.eval(1, 1) == 29
    g = UVPoly.monomial(3, 1, 5) + UVPoly.const(Fraction(2, 3))
    assert g.eval(0, 0) == Fraction(2, 3)
    assert (UVPoly.uv_power(1) - 2).eval(1, 1) == -1


def test_to_poincare():
    f = UVPoly.uv_power(2) + UVPoly.uv_power(1, 2) + 1
    assert parse_tpoly(poincare_str(f)) == f
    assert poincare_str(UVPoly.one()) == "1"
    with pytest.raises(NotDiagonalError):
        poincare_str(UVPoly.monomial(1, 0) + UVPoly.monomial(0, 1))


def test_poincare_str():
    f = UVPoly.uv_power(2) + UVPoly.uv_power(1, 2) + 1
    assert poincare_str(f) == "t^4+2*t^2+1"
    assert poincare_str(UVPoly.zero()) == "0"
    assert poincare_str(UVPoly.uv_power(4, 5) - UVPoly.uv_power(1)) == "5*t^8-t^2"
    assert poincare_str(UVPoly.const(Fraction(-1, 2)) - UVPoly.uv_power(2, 3)) == "-3*t^4-1/2"
    with pytest.raises(NotDiagonalError):
        poincare_str(UVPoly.monomial(1, 0) + UVPoly.monomial(0, 1))


def test_tpoly_round_trip_on_golden_pairs():
    count = 0
    for name in ("genus1_poincare_table.txt", "genus2_weight0_table.txt"):
        for line in (GOLDEN_DIR / name).read_text().splitlines():
            if line.startswith("pair"):
                text = line.split(":", 1)[1].strip()
                assert poincare_str(parse_tpoly(text)) == text, (name, line)
                count += 1
    assert count == 97


def test_grammar_round_trip():
    f = UVPoly({(2, 2): 1, (1, 1): Fraction(-1, 2), (0, 0): 3})
    text = str(f)
    assert text == "1*u^2*v^2+-1/2*u^1*v^1+3*u^0*v^0"
    assert parse_uvpoly(text) == f
    assert str(UVPoly.zero()) == "0"
    assert parse_uvpoly("0") == UVPoly.zero()
    with pytest.raises(ValueError):
        parse_uvpoly("u^2*v^1")
    with pytest.raises(ValueError):
        parse_uvpoly("1*u^1*v^1+2*u^1*v^1")
    for bad in ("1/0*u^0*v^0", "1*u^1*v^1+2/0*u^0*v^0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_uvpoly(bad)
    # the zero polynomial is written 0, never as a zero monomial
    for bad, term in (("0*u^1*v^1", "0*u^1*v^1"), ("1*u^1*v^1+0*u^2*v^2", "0*u^2*v^2")):
        with pytest.raises(ValueError, match=re.escape(f"zero coefficient in uv-poly term: {term!r}")):
            parse_uvpoly(bad)


def test_parsing_on_integers_equals_the_fraction_route():
    # Each coefficient as a Fraction, in lowest terms, then all of them over
    # the lcm of their denominators: the stored form is unique, so the
    # integer parse must give the same numerators and denominator.
    def fraction_route(terms):
        den = lcm(*(c.denominator for c in terms.values()))
        return {k: int(c * den) for k, c in terms.items()}, den

    F = Fraction
    cases = [
        ("2/4*u^1*v^1", "2/4*t^2", {(1, 1): F(1, 2)}),
        ("6/3*u^0*v^0", "6/3", {(0, 0): F(2)}),
        ("-3/6*u^2*v^2", "-3/6*t^4", {(2, 2): F(-1, 2)}),
        ("1/2*u^2*v^2+-2/3*u^1*v^1+5/6*u^0*v^0", "1/2*t^4-2/3*t^2+5/6",
         {(2, 2): F(1, 2), (1, 1): F(-2, 3), (0, 0): F(5, 6)}),
        ("4/6*u^1*v^1+10/15*u^0*v^0", "4/6*t^2+10/15", {(1, 1): F(2, 3), (0, 0): F(2, 3)}),
        ("2/4*u^3*v^0+-7*u^0*v^2", None, {(3, 0): F(1, 2), (0, 2): F(-7)}),
    ]
    for uv, t, terms in cases:
        want = fraction_route(terms)
        for parse, text in ((parse_uvpoly, uv), (parse_tpoly, t)):
            if text is not None:
                got = parse(text)
                assert (got.nums, got.den) == want, text


@pytest.mark.parametrize(
    "parse, text",
    [
        # int() and Fraction() read each of these as another number
        (parse_tpoly, "t^1_0"),
        (parse_tpoly, "1_0*t^2"),
        (parse_tpoly, "\u0663*t^2"),  # ARABIC-INDIC DIGIT THREE
        (parse_uvpoly, "1_2*u^0*v^0"),
        (parse_partition, "[1_0]"),
        (parse_uvpoly, "1.5*u^0*v^0"),
        (parse_uvpoly, "1e2*u^0*v^0"),
        (parse_uvpoly, "1*u^\u0661*v^1"),
        (parse_rational, "1_0"),
        (parse_rational, " 3"),
        (parse_rational, "+3"),
        (parse_partition, "[+2,1]"),
        (parse_partition, "[ 2 , 1 ]"),
        (parse_partition, " [2,1]"),
        # whitespace inside a polynomial
        (parse_tpoly, "t^4 + 1"),
        (parse_tpoly, "t^ 2"),
        (parse_uvpoly, "1*u^1*v^1 +1*u^0*v^0"),
        (parse_uvpoly, " 0"),
    ],
)
def test_literals_outside_the_ascii_grammar_are_refused(parse, text):
    with pytest.raises(ValueError):
        parse(text)


def test_integer_literals_are_ascii():
    assert parse_int("-12", "x") == -12 and parse_int("007", "x") == 7
    for bad in ("1_0", "\u0663", "+1", "1.0", "1e2", " 1", ""):
        with pytest.raises(ValueError, match=re.escape(f"x must be an integer, got {bad!r}")):
            parse_int(bad, "x")


def test_tpoly_zero_terms_are_refused():
    assert parse_tpoly("0") == UVPoly.zero()  # what poincare_str writes for zero
    for bad, term in (("0*t^2", "0*t^2"), ("t^2+0", "0"), ("t^4-0/3*t^2", "-0/3*t^2")):
        with pytest.raises(ValueError, match=re.escape(f"term {term!r}")):
            parse_tpoly(bad)


def test_mirror_and_palindromy():
    f = UVPoly.uv_power(2) + UVPoly.uv_power(1, 2) + 1
    assert f.is_palindromic(2)
    assert not f.is_palindromic(3)
    g = UVPoly.monomial(3, 0, -1) + UVPoly.uv_power(3) + UVPoly.monomial(0, 3, -1) + 1
    assert g.mirror(3) == g


def test_divide_diagonal_exact():
    # (q^3 - q) / (q - q^2) = -q - 1  checked by reconstruction
    num = UVPoly({(3, 3): 1, (1, 1): -1})
    divisor = UVPoly.uv_power(1) - UVPoly.uv_power(2)
    quo = divide_diagonal_exact(num, divisor)
    assert quo == UVPoly({(1, 1): -1, (0, 0): -1})
    with pytest.raises(ValueError, match="remainder"):
        divide_diagonal_exact(UVPoly.uv_power(1) + 1, divisor)
    with pytest.raises(NotDiagonalError):
        divide_diagonal_exact(UVPoly.monomial(2, 1), divisor)


def test_integral_polynomials_read_back_as_fractions():
    def exact(c):
        return type(c) is Fraction

    p = UVPoly({(2, 2): 3, (1, 0): -1, (0, 0): 4})
    assert all(exact(c) for c in p.terms.values())
    assert exact(p.eval(1, 1)) and exact(p.constant_term())
    assert exact(UVPoly.uv_power(1).constant_term())
    quo = divide_diagonal_exact(UVPoly({(3, 3): 1, (1, 1): -1}), UVPoly.uv_power(1) - UVPoly.uv_power(2))
    assert quo.terms and all(exact(c) for c in quo.terms.values())
    res = closed_series(load_fixture("genus1_stable"), load_fixture("genus0_smooth"), trunc=6)
    coeffs = [c for poly in res.data.coeffs.values() for c in poly.terms.values()]
    assert coeffs and all(exact(c) for c in coeffs)


def test_every_exponent_pair_is_one_tuple():
    # each site that builds a key for a new pair stores the MONOMIALS tuple, so the
    # numerator dicts of a series share 11 tuples at arity 10, not thousands of copies
    def canonical(polys):
        keys = [k for p in polys for k in p.nums]
        return keys and all(MONOMIALS.get(k) is k for k in keys)

    res = closed_series(load_fixture("genus1_stable"), load_fixture("genus0_smooth"), trunc=6)
    assert canonical(res.data.coeffs.values())
    assert canonical(load_fixture("genus1_stable").data.coeffs.values())
    f = UVPoly({(2, 0): 3, (1, 1): Fraction(-1, 2)}) * UVPoly({(0, 3): 5, (1, 2): 1, (9, 9): 7})
    assert canonical([f, f.adams(2), f.mirror(11), UVPoly.one(), parse_uvpoly("1/2*u^12*v^0")])
    q = divide_diagonal_exact(UVPoly({(3, 3): 1, (1, 1): -1}), UVPoly.uv_power(1) - UVPoly.uv_power(2))
    assert canonical([q, parse_tpoly("3*t^26-t^2")])



@pytest.mark.parametrize("key", [(1.5, 0), (True, 0), (0, 2.0), (1,), (1, 0, 0), ("1", "0"), 3])
def test_exponents_are_pairs_of_ints(key):
    # a float exponent would put floating point in the core (u^1.5 squared prints
    # u^3.0), and a bool would print as u^True
    with pytest.raises(ValueError, match=re.escape(f"exponent pair {key!r} is not two ints")):
        UVPoly({key: 1})


def test_a_foreign_operand_is_refused_naming_both_types():
    for other in (0.5, None):
        name = type(other).__name__
        with pytest.raises(TypeError, match=f"'UVPoly' and '{name}'"):
            UVPoly.one() * other
        with pytest.raises(TypeError, match=f"'{name}' and 'UVPoly'"):
            other * UVPoly.one()


@pytest.mark.parametrize("op", ["+", "-"])
def test_a_foreign_summand_is_refused_naming_the_operator(op):
    # `+` used to coerce anything through UVPoly.const, and `-` is a sum of the negation
    for other in (0.5, None):
        name = type(other).__name__
        with pytest.raises(TypeError, match=f"for \\{op}: 'UVPoly' and '{name}'"):
            eval(f"x {op} y", {"x": UVPoly.one(), "y": other})
        with pytest.raises(TypeError, match=f"for \\{op}: '{name}' and 'UVPoly'"):
            eval(f"x {op} y", {"x": other, "y": UVPoly.one()})
