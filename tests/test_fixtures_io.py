import pytest

from heavylight.fixtures import (
    FixtureError,
    SHIPPED,
    load_fixture,
    parse_fixture,
    write_fixture,
)
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly

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
    "absent",
    [["series"], ["genus"], ["variant"], ["truncation"], ["genus", "truncation"]],
    ids="-".join,
)
def test_missing_headers_are_named_in_order(absent):
    headers = MINIMAL.splitlines()[:4]  # no term, which would need the truncation
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


def test_shipped_fixtures_validate():
    from heavylight.verify import fixture_suite

    checks = fixture_suite()
    failures = [name for name, ok, detail in checks if not ok]
    assert not failures, failures


def test_numeric_duality_fails_on_a_term_above_the_dimension(tmp_path, monkeypatch):
    from heavylight.fixtures import default_fixture_dir
    from heavylight.verify import fixture_suite

    for path in default_fixture_dir().glob("*.hlf"):
        text = path.read_text()
        if path.stem == "genus1_stable_numeric":
            text = text.replace("lambda=[1,1] poly=", "lambda=[1,1] poly=1*u^3*v^3+")
        (tmp_path / path.name).write_text(text)
    monkeypatch.setenv("HL_FIXTURE_DIR", str(tmp_path))
    checks = {name: ok for name, ok, _ in fixture_suite()}
    assert checks["genus-1 numeric fixture duality symmetry"] is False


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    fx = parse_fixture(MINIMAL)
    from heavylight.fixtures import save_fixture

    monkeypatch.setenv("HL_FIXTURE_DIR", str(tmp_path))
    save_fixture(fx)
    assert (tmp_path / "demo.hlf").exists()
    assert load_fixture("demo") == fx


def test_missing_fixture_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_fixture("nonexistent", tmp_path)
