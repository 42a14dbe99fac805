import re

import pytest
from hypothesis import given, strategies as st

from heavylight.fixtures import (
    FixtureError,
    SHIPPED,
    default_fixture_dir,
    load_fixture,
    parse_fixture,
    save_fixture,
    write_fixture,
)
from heavylight.pipeline import open_series
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly
from heavylight.verify import RunInputs, fixture_suite

from strategies import examples

MINIMAL = """\
series demo
genus 0
variant open
truncation 4
term n=3 lambda=[3] poly=1*u^0*v^0
"""


def test_parse_minimal():
    fx = parse_fixture(MINIMAL)
    assert fx.name == "demo"
    assert fx.genus == 0
    assert fx.variant == "open"
    assert fx.trunc == 4
    assert fx.data == SymSeries({(3,): UVPoly.one()}, 4)


def test_duplicate_keys_error():
    text = MINIMAL + "term n=3 lambda=[3] poly=2*u^0*v^0\n"
    with pytest.raises(FixtureError) as err:
        parse_fixture(text)
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize(
    "header", ["series other", "genus 1", "variant closed", "truncation 2"]
)
def test_repeated_header_error(header):
    # A second header line must not silently replace the first: with
    # "truncation 2" after the arity-3 term, the term would be dropped.
    text = MINIMAL + header + "\n"
    key = header.split()[0]
    with pytest.raises(FixtureError, match=f"line 6: repeated header '{key}'"):
        parse_fixture(text)


def test_term_arity_exceeding_truncation():
    text = MINIMAL + "term n=5 lambda=[5] poly=1*u^0*v^0\n"
    with pytest.raises(FixtureError) as err:
        parse_fixture(text)
    assert "exceeds truncation" in str(err.value)


def test_parse_error_carries_line_number():
    bad = MINIMAL.replace("term n=3 lambda=[3]", "term n=3 lambda=[2,1junk]")
    with pytest.raises(FixtureError) as err:
        parse_fixture(bad)
    assert err.value.lineno == 5
    with pytest.raises(FixtureError) as err:
        parse_fixture(MINIMAL.replace("genus 0", "genus one"))
    assert err.value.lineno == 2
    with pytest.raises(FixtureError) as err:
        parse_fixture(MINIMAL.replace("truncation 4", "truncation 4.5"))
    assert err.value.lineno == 4
    with pytest.raises(FixtureError) as err:
        parse_fixture(MINIMAL.replace("truncation 4", "truncation -1"))
    assert err.value.lineno == 4
    with pytest.raises(FixtureError, match="genus must be nonnegative, got -1") as err:
        parse_fixture(MINIMAL.replace("genus 0", "genus -1"))
    assert err.value.lineno == 2


@pytest.mark.parametrize(
    "old, new, lineno, message",
    [
        ("truncation 4", "truncation 1_0", 4, "truncation must be an integer, got '1_0'"),
        ("genus 0", "genus \u0663", 2, "genus must be an integer, got '\u0663'"),
        ("n=3", "n=1_0", 5, "n must be an integer, got '1_0'"),
        ("n=3", "n=\u0663", 5, "n must be an integer, got '\u0663'"),
        ("lambda=[3]", "lambda=[+3]", 5, "malformed partition literal: '[+3]'"),
        ("lambda=[3]", "lambda=[ 3]", 5, "malformed term 'n=3 lambda=[ 3] poly=1*u^0*v^0'"),
        ("poly=1*u^0*v^0", "poly=1.0*u^0*v^0", 5, "malformed uv-poly term: '1.0*u^0*v^0'"),
    ],
)
def test_numbers_outside_the_ascii_grammar_carry_line_number(old, new, lineno, message):
    # int() would read 1_0 as 10 and the Arabic-Indic digit as 3
    with pytest.raises(FixtureError, match=re.escape(f"line {lineno}: {message}")) as err:
        parse_fixture(MINIMAL.replace(old, new))
    assert err.value.lineno == lineno


@pytest.mark.parametrize(
    "absent",
    [["series"], ["genus"], ["variant"], ["truncation"], ["genus", "truncation"]],
    ids="-".join,
)
def test_missing_headers_are_named_in_order(absent):
    headers = MINIMAL.splitlines()[:4]  # no term, which would need genus, variant and truncation
    text = "".join(line + "\n" for line in headers if line.split()[0] not in absent)
    with pytest.raises(FixtureError) as err:
        parse_fixture(text)
    assert err.value.lineno == 0
    assert str(err.value) == f"line 0: missing header: {', '.join(absent)}"


def test_zero_denominator_carries_line_number():
    bad = MINIMAL.replace("poly=1*u^0*v^0", "poly=1/0*u^0*v^0")
    with pytest.raises(FixtureError, match="zero denominator") as err:
        parse_fixture(bad)
    assert err.value.lineno == 5


@pytest.mark.parametrize(
    "term, message",
    [
        ("term n=4 lambda=[4] poly=0", "zero term n=4 lambda=[4]"),
        ("term n=4 lambda=[2,2] poly=0*u^1*v^1", "zero coefficient in uv-poly term: '0*u^1*v^1'"),
        ("term n=4 lambda=[4] poly=1*u^1*v^1+0*u^2*v^2",
         "zero coefficient in uv-poly term: '0*u^2*v^2'"),
    ],
)
def test_zero_term_is_refused_not_dropped(term, message):
    # a zero term would be dropped on parsing and missing from the written file
    with pytest.raises(FixtureError, match=re.escape(f"line 6: {message}")):
        parse_fixture(MINIMAL + term + "\n")


def test_size_mismatch_error():
    bad = MINIMAL.replace("lambda=[3]", "lambda=[2]")
    with pytest.raises(FixtureError):
        parse_fixture(bad)


def test_comments_and_blank_lines():
    text = "# header comment\n\n" + MINIMAL + "# trailing\n"
    assert parse_fixture(text).data[(3,)] == UVPoly.one()


def test_round_trip_byte_stability():
    for name in SHIPPED:
        fx = load_fixture(name)
        text = write_fixture(fx)
        again = parse_fixture(text)
        assert again == fx
        assert write_fixture(again) == text


def test_a_fixture_truncation_is_the_truncation_of_its_series():
    smooth1 = load_fixture("genus1_smooth")
    fx = smooth1._replace(data=smooth1.data.truncate(4))
    assert fx.trunc == 4
    assert parse_fixture(write_fixture(fx)) == fx
    with pytest.raises(ValueError, match="requested truncation 6 exceeds available 4"):
        open_series(fx, trunc=6)


def test_shipped_fixtures_equal_the_checked_constructor():
    # parse_fixture builds its series past SymSeries' own checks; the checked
    # constructor, given the same terms, must keep every one of them unchanged.
    for name in SHIPPED:
        data = load_fixture(name).data
        checked = SymSeries(data.coeffs, data.trunc)
        assert (checked.coeffs, checked.trunc) == (data.coeffs, data.trunc), name


def test_numeric_duality_fails_on_a_term_above_the_dimension(edited_fixtures):
    edited_fixtures("genus1_stable_numeric", "lambda=[1,1] poly=", "lambda=[1,1] poly=1*u^3*v^3+")
    checks = {name: ok for name, ok, _ in fixture_suite(RunInputs())}
    assert checks["genus-1 numeric fixture duality symmetry"] is False


def test_a_term_outside_the_stable_range_fails_its_fixture_row(edited_fixtures):
    # genus 0 is stable from arity 3 on: 2g - 2 + n > 0
    term = "term n=2 lambda=[2] poly=1*u^0*v^0\n"
    edited_fixtures("genus0_smooth", "truncation 11\n", "truncation 11\n" + term)
    checks = {name: ok for name, ok, _ in fixture_suite(RunInputs())}
    assert checks["fixture genus0_smooth parses and satisfies bounds"] is False
    assert checks["fixture genus0_stable parses and satisfies bounds"] is True


@pytest.mark.parametrize("poly", ["1*u^0*v^1", "1*u^0*v^0+1*u^1*v^1"])
def test_a_non_constant_weight0_term_is_refused_at_load(poly):
    text = MINIMAL.replace("variant open", "variant weight0") + f"term n=4 lambda=[2,2] poly={poly}\n"
    message = "line 6: non-constant term n=4 lambda=[2,2] in a weight0 fixture"
    with pytest.raises(FixtureError, match=re.escape(message)):
        parse_fixture(text)


@pytest.mark.parametrize("header", ["genus 0", "variant open", "truncation 4"])
def test_a_term_before_a_header_it_needs_is_refused(header):
    text = MINIMAL.replace(header + "\n", "") + header + "\n"
    message = "line 4: term before the genus, variant and truncation headers"
    with pytest.raises(FixtureError, match=message):
        parse_fixture(text)


FUZZED = tuple((default_fixture_dir() / f"{name}.hlf").read_text()
               for name in ("genus1_stable_numeric", "genus2_smooth_weight0"))
# One to three edits (by line, op, position, character).  An inserted character is one of
# the grammar's own, a space, a newline or a lookalike that the grammar refuses.
MUTATIONS = st.lists(
    st.tuples(st.booleans(), st.sampled_from(("delete", "insert", "duplicate")),
              st.integers(0, 4095), st.sampled_from(tuple("0123456789-+/*^=[],#uvnx \n_.\u0663"))),
    min_size=1, max_size=3,
)


def mutate(text, mutations) -> str:
    """`text` with each (by line, op, at, char) applied in turn: the character or line
    at position `at` (modulo its length plus one) deleted or duplicated, or `char`
    inserted before it."""
    for by_line, op, at, char in mutations:
        units = text.splitlines(keepends=True) if by_line else list(text)
        i = at % (len(units) + 1)
        if op == "insert":
            units.insert(i, char)
        elif op == "duplicate" and i < len(units):
            units.insert(i, units[i])
        elif i < len(units):
            del units[i]
        text = "".join(units)
    return text


@examples(60)
@given(st.sampled_from(FUZZED), MUTATIONS)
def test_a_mutated_fixture_parses_or_names_a_line(shipped, mutations):
    text = mutate(shipped, mutations)
    try:
        parse_fixture(text)
    except FixtureError as exc:
        assert 0 <= exc.lineno <= len(text.splitlines())


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    fx = parse_fixture(MINIMAL)
    assert save_fixture(fx, tmp_path) == tmp_path / "demo.hlf"
    monkeypatch.setenv("HL_FIXTURE_DIR", str(tmp_path))
    assert load_fixture("demo") == fx


def test_missing_fixture_error(tmp_path, monkeypatch):
    monkeypatch.setenv("HL_FIXTURE_DIR", str(tmp_path))
    with pytest.raises(FileNotFoundError):
        load_fixture("genus0_smooth")
