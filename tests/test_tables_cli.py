import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from heavylight.bisymseries import BiSymSeries
from heavylight.cli import FIXTURES, _fixture, main
from heavylight.fixtures import default_fixture_dir, load_fixture
from heavylight.partitions import mn_character
from heavylight.pipeline import closed_series, open_series
from heavylight.tables import (
    GOLDEN_DIR,
    TableSpec,
    compare_row_to_golden,
    numeric_value,
    parse_golden_numeric,
    parse_golden_pairs,
    render_table,
)
from heavylight.uvpoly import UVPoly, parse_tpoly

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def run_cli_stderr(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, err.getvalue()


def test_parse_tpoly():
    q = UVPoly.uv_power
    assert parse_tpoly("t^4+2*t^2+1") == q(2) + q(1, 2) + 1
    assert parse_tpoly("-1") == UVPoly.const(-1)
    assert parse_tpoly("t^10") == q(5)
    assert parse_tpoly("5*t^8-t^2") == q(4, 5) - q(1)
    assert parse_tpoly("t^4+1") == q(2) + 1
    for bad in ("1/0", "1/0*t^2", "t^2+3/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_tpoly(bad)
    with pytest.raises(ValueError):
        parse_tpoly("t^3")


def test_parse_tpoly_rejects_empty_and_repeated_terms(tmp_path):
    for bad in ("", "+", " ", "t^2+", "-", "t^2+t^2", "3+1", "t^4-2*t^4"):
        with pytest.raises(ValueError):
            parse_tpoly(bad)
    # a golden pair line with no coefficient is refused, not read as 0
    path = tmp_path / "golden.txt"
    path.write_text("row 0 2 full\npair [] [2] :\n")
    with pytest.raises(ValueError, match="^golden.txt:2: "):
        parse_golden_pairs(path)


def _golden_row(tmp_path, text):
    path = tmp_path / "row.txt"
    path.write_text(text)
    (row,) = parse_golden_pairs(path)
    return row


def test_compare_row_to_golden_failure_paths(tmp_path):
    q = UVPoly.uv_power
    schur = {((), (2,)): q(2) + q(1, 2) + 1, ((), (1, 1)): q(1)}
    comp = BiSymSeries.from_schur_pairs(schur, 2)
    full = "row 0 2 full\npair [] [2] : t^4+2*t^2+1\npair [] [1,1] : t^2\n"
    assert compare_row_to_golden(comp, _golden_row(tmp_path, full)) == []
    partial = "row 0 2 partial\npair [] [2] : 2*t^2\n"
    assert compare_row_to_golden(comp, _golden_row(tmp_path, partial)) == []
    for text in (
        "row 0 2 full\npair [] [2] : t^4+3*t^2+1\npair [] [1,1] : t^2\n",  # wrong coefficient
        "row 0 2 full\npair [] [2] : t^4+2*t^2+1\n",  # [1,1] is missing
        "row 0 2 partial\npair [] [2] : t^4+5\n",  # wrong listed monomial
    ):
        assert compare_row_to_golden(comp, _golden_row(tmp_path, text)), text
    off = BiSymSeries.from_schur_pairs({((), (2,)): UVPoly.monomial(1, 0) + q(1, 2)}, 2)
    assert compare_row_to_golden(off, _golden_row(tmp_path, partial))


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_golden_pairs, "row 1"),
        (parse_golden_pairs, "row 1 x"),
        (parse_golden_pairs, "row 0 2 full\npair [] : t^2"),
        (parse_golden_pairs, "row 0 2 full\nnumeric"),
        (parse_golden_pairs, "pair [] [2] : t^2"),
        (parse_golden_pairs, "row 0 2 full\nnumeric 1/0"),
        (parse_golden_numeric, "row 1 : 1*u^0*v^0\nrow : 1*u^0*v^0"),
        (parse_golden_numeric, "row 1 : 1*u^0*v^0\nrow 2 1*u^0*v^0"),
    ],
    ids=["row-no-n", "row-bad-n", "pair-two-fields", "numeric-no-value", "pair-before-row",
         "numeric-zero-denominator", "numeric-row-no-n", "numeric-row-no-colon"],
)
def test_golden_parse_errors_carry_position(tmp_path, parse, text):
    path = tmp_path / "golden.txt"
    path.write_text("# header\n" + text + "\n")
    line = text.count("\n") + 2
    with pytest.raises(ValueError, match=f"^golden.txt:{line}: ") as err:
        parse(path)
    assert type(err.value) is ValueError


def test_render_poincare_row():
    smooth0 = load_fixture("genus0_smooth")
    stable1 = load_fixture("genus1_stable")
    res = closed_series(stable1, smooth0, trunc=3)
    spec = TableSpec(basis="schur", form="poincare", max_arity=3)
    text = render_table(spec, res)
    assert "0 | 3 | [] | [2,1] | t^4+t^2" in text
    assert "0 | 3 | [] | [3] | t^6+2*t^4+2*t^2+1" in text
    # rows without content are omitted: genus-1 (0,0) is unstable
    assert "0 | 0" not in text


def test_render_formats_are_deterministic():
    w0 = load_fixture("genus2_smooth_weight0")
    res = open_series(w0, trunc=4)
    for fmt in ("text", "csv", "latex"):
        spec = TableSpec(form="weight0", max_arity=4, fmt=fmt)
        assert render_table(spec, res) == render_table(spec, res)
    spec = TableSpec(form="weight0", max_arity=4, fmt="latex")
    text = render_table(spec, res)
    assert "s_{2}^{(2)}" in text


def test_render_latex_poincare_combined_row():
    smooth0 = load_fixture("genus0_smooth")
    stable1 = load_fixture("genus1_stable")
    res = closed_series(stable1, smooth0, trunc=3)
    spec = TableSpec(basis="schur", form="poincare", max_arity=3, fmt="latex")
    text = render_table(spec, res)
    # monomials follow the canonical partition order (lex-decreasing)
    assert "(0,3) & $(t^6+2*t^4+2*t^2+1)s_{3}^{(2)} + (t^4+t^2)s_{2,1}^{(2)}$" in text


def test_poincare_form_guard():
    open2 = open_series(load_fixture("genus2_smooth_weight0"), trunc=4)
    with pytest.raises(ValueError):
        render_table(TableSpec(form="poincare", max_arity=4), open2)
    closed1 = closed_series(load_fixture("genus1_stable"), load_fixture("genus0_smooth"), trunc=3)
    with pytest.raises(ValueError):
        render_table(TableSpec(form="poincare", max_arity=11), closed1)


def test_numeric_value_weight0_example():
    w0 = load_fixture("genus2_smooth_weight0")
    res = open_series(w0)
    val = numeric_value(res.component(1, 4), 1, 4).constant_term()
    assert val == -3


def numeric_pair_value(pairs: dict) -> Fraction:
    """Dimension-weighted sum of a golden row's Schur-pair data at u = v = 1."""
    return sum(
        c.eval(1, 1) * mn_character(lam, (1,) * sum(lam)) * mn_character(mu, (1,) * sum(mu))
        for (lam, mu), c in pairs.items()
    )


def test_golden_numeric_pair_sums():
    rows = parse_golden_pairs(GOLDEN_DIR / "genus2_weight0_table.txt")
    for row in rows:
        assert numeric_pair_value(row.pairs) == row.numeric


def test_cli_closed_table_numeric():
    code, out = run_cli(["closed-table", "--genus", "1", "--max-arity", "4", "--form", "numeric"])
    assert code == 0
    assert "0 | 4 | 1*u^4*v^4+7*u^3*v^3+13*u^2*v^2+7*u^1*v^1+1*u^0*v^0" in out


def test_cli_closed_table_poincare():
    code, out = run_cli(
        ["closed-table", "--genus", "1", "--max-arity", "2", "--form", "poincare"]
    )
    assert code == 0
    assert "t^4+2*t^2+1" in out


def test_cli_open_table_weight0():
    code, out = run_cli(
        ["open-table", "--genus", "2", "--weight0", "--max-arity", "3", "--format", "csv"]
    )
    assert code == 0
    assert "0,2,[],[2],-1*u^0*v^0" in out


def test_cli_euler_genfun():
    code, out = run_cli(["euler-genfun", "--genus", "1", "--order", "4"])
    assert code == 0
    assert "n=4 chi=29" in out


def test_cli_slice_and_tropical():
    code, out = run_cli(["slice-n1", "--genus", "1", "--m", "0", "--variant", "closed"])
    assert code == 0
    assert "s1[]" in out and "s2[1]" in out
    code, out = run_cli(["tropical", "--genus", "2", "--m", "3", "--n", "2"])
    assert code == 0
    assert "numeric: -7" in out


def test_cli_verify_tables_suite():
    code, out = run_cli(["verify", "--suite", "tables"])
    assert code == 0
    assert "3/3 checks passed" in out


def test_cli_verify_all_suite():
    code, out = run_cli(["verify", "--suite", "all"])
    assert code == 0
    assert out.endswith("\n72/72 checks passed\n")
    # the whole report, byte for byte: names, order, details and column widths
    digest = "97a958ab2d53f44207cd96a85893fccb97d5bce8b0404558d718df0fe873b619"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_verify_reports_an_unreadable_fixture(tmp_path, monkeypatch):
    for path in default_fixture_dir().glob("*.hlf"):
        text = path.read_text()
        if path.stem == "genus0_stable":
            text = text.replace("truncation 9\n", "truncation nine\n")
        (tmp_path / path.name).write_text(text)
    monkeypatch.setenv("HL_FIXTURE_DIR", str(tmp_path))
    code, out = run_cli(["verify", "--suite", "all"])
    assert code == 1
    error = "[line 4: truncation must be an integer, got 'nine']"
    failed = [line.split()[1] for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == ["fixture", "property_suite"]
    assert out.count(error) == 2
    # the suites that do not read genus0_stable still report every row
    assert "PASS  genus-2 weight-zero table" in out
    assert "PASS  oracle genus 2 weight-zero (5,0)" in out
    assert out.endswith("\n50/52 checks passed\n")


def test_cli_reports_an_unreadable_fixture_in_one_line(tmp_path, monkeypatch):
    for path in default_fixture_dir().glob("*.hlf"):
        text = path.read_text()
        if path.stem == "genus0_stable":
            text = text.replace("truncation 9\n", "truncation nine\n")
        if path.stem != "genus1_smooth":
            (tmp_path / path.name).write_text(text)
    monkeypatch.setenv("HL_FIXTURE_DIR", str(tmp_path))
    code, err = run_cli_stderr(["slice-n1", "--genus", "0", "--m", "3"])
    assert (code, err) == (1, "line 4: truncation must be an integer, got 'nine'\n")
    code, err = run_cli_stderr(["open-table", "--genus", "1"])
    assert code == 1
    assert err.startswith("fixture 'genus1_smooth' not found at ") and err.count("\n") == 1


def test_cli_oracle_compare():
    code, out = run_cli(["oracle-compare", "--genus", "2", "--max-arity", "3"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    code, out = run_cli(["oracle-compare", "--genus", "0"])
    assert code == 0
    assert "20/20 checks passed" in out


def test_cli_usage_error_exit_code():
    for argv in (
        ["closed-table", "--genus"],
        ["no-such-command"],
        ["euler-genfun", "--genus", "1", "--order", "0"],
        ["closed-table", "--genus", "1", "--max-arity", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_cli_failure_exit_code():
    for argv in (
        ["closed-table", "--genus", "3"],
        ["slice-n1", "--genus", "1", "--m", "20"],
        ["oracle-compare", "--genus", "1", "--max-arity", "9"],
        ["open-table", "--genus", "3"],
        ["open-table", "--genus", "1", "--weight0"],
        ["oracle-compare", "--genus", "0", "--max-arity", "8"],
        ["closed-table", "--genus", "1", "--form", "numeric", "--format", "latex"],
        ["closed-table", "--genus", "1", "--form", "numeric", "--basis", "power"],
    ):
        code, err = run_cli_stderr(argv)
        assert code == 1, argv
        assert err.count("\n") == 1, (argv, err)


def test_cli_fixture_table_matches_the_fixture_headers():
    header_variants = {"open": ("open", "weight0"), "closed": ("closed",), "numeric": ("closed",)}
    for (variant, genus), name in FIXTURES.items():
        fx = _fixture(variant, genus, 0)
        assert fx.name == name
        assert fx.genus == genus, name
        assert fx.variant in header_variants[variant], name


def test_closed10_stdout_matches_the_benchmark_digest():
    # perfbench/expected.json is read only; it is the benchmark's record.
    expected = json.loads(EXPECTED.read_text())
    code, out = run_cli(
        ["closed-table", "--genus", "1", "--max-arity", "10", "--basis", "schur"]
        + ["--form", "poincare", "--format", "text"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == expected["closed10_stdout_sha256"]
