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
    text = render_table(res, basis="schur", form="poincare", max_arity=3)
    assert "0 | 3 | [] | [2,1] | t^4+t^2" in text
    assert "0 | 3 | [] | [3] | t^6+2*t^4+2*t^2+1" in text
    # rows without content are omitted: genus-1 (0,0) is unstable
    assert "0 | 0" not in text


def test_render_formats_are_deterministic():
    w0 = load_fixture("genus2_smooth_weight0")
    res = open_series(w0, trunc=4)
    for fmt in ("text", "csv", "latex"):
        spec = dict(form="weight0", max_arity=4, fmt=fmt)
        assert render_table(res, **spec) == render_table(res, **spec)
    text = render_table(res, form="weight0", max_arity=4, fmt="latex")
    assert "s_{2}^{(2)}" in text


def test_render_latex_poincare_combined_row():
    smooth0 = load_fixture("genus0_smooth")
    stable1 = load_fixture("genus1_stable")
    res = closed_series(stable1, smooth0, trunc=3)
    text = render_table(res, basis="schur", form="poincare", max_arity=3, fmt="latex")
    # monomials follow the canonical partition order (lex-decreasing)
    assert "(0,3) & $(t^6+2*t^4+2*t^2+1)s_{3}^{(2)} + (t^4+t^2)s_{2,1}^{(2)}$" in text


def test_poincare_form_guard():
    open2 = open_series(load_fixture("genus2_smooth_weight0"), trunc=4)
    with pytest.raises(ValueError):
        render_table(open2, form="poincare", max_arity=4)
    closed1 = closed_series(load_fixture("genus1_stable"), load_fixture("genus0_smooth"), trunc=3)
    with pytest.raises(ValueError):
        render_table(closed1, form="poincare", max_arity=11)


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


# sha256 of render_table outputs, recorded before the renderer became one pass
# over the whole series: "result basis form format" -> digest, for every basis
# and format and each form the CLI accepts for that result.
RENDER_DIGESTS = {
    "closed1 schur hodge text": "75a5f9e5dc1c9f17f7b693be33e1f7c525848392d886ef5d538a931ef134c23c",
    "closed1 schur hodge csv": "96a390984f35da56d07a6afe0567edac7d018bd06286dd0e5b67fa9d5675faba",
    "closed1 schur hodge latex": "07f0af1ff57f62a906f0dfc80faca069a75f3035f09da8db5b2e4d11202bce26",
    "closed1 schur poincare text": "34f8e651a84a2ef0c96120d568f918259281461697f3aad5a68132d18ffe8adc",
    "closed1 schur poincare csv": "da9e66b13e9f5de929d5f782667e3ecc050a2d0f94fe104a1b482dfee112f494",
    "closed1 schur poincare latex": "d5fbc973e4550399713145cb55417a5bb08b432be5fbfc880d8f49c396dbc717",
    "closed1 power hodge text": "13981737298194be74bf4a54155d2a23dc1c03174a8dcd65f236292ab93034d1",
    "closed1 power hodge csv": "bf5356ab75b0baad346b27403c21fcb55fba41932bd4cd87b0e3d9183f38d03e",
    "closed1 power hodge latex": "5cc80c6b36da8a21a5f356d1c67ce0ac727bca95a61ff9c16a1e26e74955405a",
    "closed1 power poincare text": "7052c4bab5f88e20bb568037e23d62f4da230dda68f6752fad27cdd29211da87",
    "closed1 power poincare csv": "ac2290cf3bb735ef43d653f21915262d23e87dfad3df1cb39e841da77d32cb71",
    "closed1 power poincare latex": "e368aa0d7e4d6c0aa6a19e860f522b5571667a27812d3bded540c7a1a0616eb6",
    "open0 schur hodge text": "f887e426d67ccd1ca649833c70f17bd700d30cb9b13f6c92f9afcb01f6471592",
    "open0 schur hodge csv": "ceff60c3cecbe462b5a90f37aedae2e249387284dd2d18777ce8341014520d36",
    "open0 schur hodge latex": "f6e894e1d762e064a717222544b28a33c97d6b4c30d2a9e4187f9baa12e3ed8d",
    "open0 schur weight0 text": "0d52c6fc1599a3d89b6e2b60c31e44f3c53f8e7c3a3e5b6d5c8377f4bd05e7c5",
    "open0 schur weight0 csv": "4b8a5d5f5d1f40e34900bd0e065c8a061ace5b4edcab758be751c2c5d858c993",
    "open0 schur weight0 latex": "02c96cdd97627d5108cd30865337817c00245c505038cb32818b2815d43bd0bf",
    "open0 power hodge text": "32c68d1da2bfb88cbd0cb746834dc45ca047045e0fc3d9eef1a94c2190226ec0",
    "open0 power hodge csv": "1563a20c3e134a577710a1a36cb0d4beb2dc0c471dec2bae4ce32573e6492267",
    "open0 power hodge latex": "95a99c93a19172e5c17be7f1f88c8c718c4d7133a95d6a7f3c31cd2fef62d1ac",
    "open0 power weight0 text": "b986e3e0aa42973fb673a1a3563ad00b02fe06d6517b44ded8534e4a58ae86fc",
    "open0 power weight0 csv": "f7037fd33acc078c5c955ca8529f066aef594c4236d7d847d5a84eb90e7670d8",
    "open0 power weight0 latex": "04383930fcbdd1f0c56d1b21aa2a316a304b9ec4e7c01d79c8dc73ee407e9824",
    "open1 schur hodge text": "70fe4a3d00f998c3129de7a0b7424fdfd5e7589ade89faa3530a68699cabdbac",
    "open1 schur hodge csv": "763ce2841a3be6ae791a686f96f34018b8dc80f47be63cc5b48e77b0cac23321",
    "open1 schur hodge latex": "8a3b8b890f0122a47d1dfc25d0ab350efaf76350ae502dc82d399ba4c59f8159",
    "open1 schur weight0 text": "c5576b2fdf477d1e550b969b20dfc5e6216daf2ca29f7ac4a5611cdd64375ad9",
    "open1 schur weight0 csv": "7eaf642e18067e88b7d1a605f623a7498af1bc0e461e016fc1d0905461d71f4b",
    "open1 schur weight0 latex": "d921023af771cce4c2a7887d4ea3498f5abc21acd894fbb14c362775e22a81d6",
    "open1 power hodge text": "be42ad797565c06387c473baefc0fe581d7130340af10c796a4d40b95a6d0a7d",
    "open1 power hodge csv": "a89ebb70e5aabe57fcfdde9e7deaf60de0b7017c44cf12fa7af07ddd07124f3f",
    "open1 power hodge latex": "9931c93f1aa6bddd4574ce663a5baa3d98004a2ff1cc70eedd099d4909a707e0",
    "open1 power weight0 text": "865d95a03e32b5bca03900c32cd888164b794cb741da4d6f19589395f1d56c87",
    "open1 power weight0 csv": "ae5b46f3af6aa85c9b715454ceb803a80e23b85522e0b710ed503884b0fc3e29",
    "open1 power weight0 latex": "b11abe5ad414bf4609c08d97dab28f78f959e9305981f008f05cbad58fbf2680",
    "open2 schur weight0 text": "8aa6b1cbde65290503c38e92fe62741e6945621b1f7e972d857fc73114029974",
    "open2 schur weight0 csv": "8171772f9e5b3922563a596197beb8840710ed8966dbb7fc637d685f0ea8a9dd",
    "open2 schur weight0 latex": "7f2c4e6be848afc861f80affa873e33a7420529701cd3003414f54910ce8626c",
    "open2 power weight0 text": "a6de08253c903951b6d0dc035e8a1b40d7a192b155fc5d8330098118f7ee0de8",
    "open2 power weight0 csv": "1ed780366eaaef7a3b32a6fa694e4b0ac878151e63ebc2e282600691e2c295ae",
    "open2 power weight0 latex": "d219d34158d6dded3bc02ec809b3fc3e9f4ebb75125feab4452892fc12769c5f",
}
# sha256 of `closed-table --form numeric` stdout: (max arity, format) -> digest;
# at arity 0 the text table is empty (no line at all) and csv is its header.
NUMERIC_DIGESTS = {
    (0, 'text'): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (0, 'csv'): "2e3bf09185989e9a72d09245ed922be998bf8d9ef3436375c7a106675af26631",
    (4, 'text'): "35e4553a99fd10ffe53fe638ba8fa5215be66564acc236d4f92c2afc15c3d45c",
    (4, 'csv'): "3880dbc097865f9d79f70d4a87701012ae14044a8fe4cdab95bbb1e0ed719c12",
    (11, 'text'): "deb0829a2e41fb3ef7d684ba33c384ad5760c4b054ed9906cd5f0aa1a356874f",
    (11, 'csv'): "737ed4ea87f478e30721005a8796d80f5a3b9b0b0b6292e54cb4c0752a2799a7",
}


def test_rendered_tables_match_their_recorded_digests():
    stable1, smooth0 = load_fixture("genus1_stable"), load_fixture("genus0_smooth")
    results = {
        "closed1": (closed_series(stable1, smooth0, trunc=6), 6),
        "open0": (open_series(smooth0, trunc=5), 5),
        "open1": (open_series(load_fixture("genus1_smooth"), trunc=5), 5),
        "open2": (open_series(load_fixture("genus2_smooth_weight0"), trunc=5), 5),
    }
    for key, digest in RENDER_DIGESTS.items():
        name, basis, form, fmt = key.split()
        res, arity = results[name]
        out = render_table(res, basis, form, arity, fmt)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, key
    # a result deeper than max_arity renders as the result computed to max_arity
    closed4 = closed_series(stable1, smooth0, trunc=4)
    assert render_table(results["closed1"][0], max_arity=4) == render_table(closed4, max_arity=4)
    for (arity, fmt), digest in NUMERIC_DIGESTS.items():
        argv = ["closed-table", "--genus", "1", "--form", "numeric", "--max-arity", str(arity)]
        code, out = run_cli(argv + ["--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (arity, fmt)


def test_cli_reports_a_negative_genus_in_one_line(tmp_path, monkeypatch):
    for path in default_fixture_dir().glob("*.hlf"):
        text = path.read_text()
        if path.stem == "genus1_smooth":
            text = text.replace("genus 1\n", "genus -1\n")
        (tmp_path / path.name).write_text(text)
    monkeypatch.setenv("HL_FIXTURE_DIR", str(tmp_path))
    for argv in (
        ["open-table", "--genus", "1"],
        ["tropical", "--genus", "1", "--m", "1", "--n", "1"],
        ["oracle-compare", "--genus", "1"],
        ["slice-n1", "--genus", "1", "--m", "1", "--variant", "open"],
    ):
        code, err = run_cli_stderr(argv)
        assert (code, err) == (1, "line 2: genus must be nonnegative, got -1\n"), argv
