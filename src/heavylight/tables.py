"""Table rendering and golden-table storage.

`render_table` makes one pass over the whole series in the series core's one
canonical key order, taking the Schur coefficients one arity block at a time as
the change of basis yields them; `delimited_lines` writes every text and csv row.

Golden files hold the reference tables as structured monomial data; they are
compared monomial-by-monomial, never as raw strings.  A pair-table row lists
one Schur pair per line with its coefficient in the t grammar of `uvpoly`,
read into a UVPoly; rows marked `partial` are compared only on the monomials
they list.
"""

import re
from fractions import Fraction
from itertools import groupby
from pathlib import Path

from .bisymseries import BiSymSeries
from .fixtures import read_lines
from .partitions import format_partition, parse_partition
from .pipeline import GENUS1_PURE_ARITY
from .uvpoly import INT, UVPoly, parse_rational, parse_tpoly, parse_uvpoly, poincare_str

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

BASES = ("schur", "power")
FORMATS = ("text", "csv", "latex")


# -- golden files ---------------------------------------------------------------


class GoldenRow:
    """One pair-table row: arity (m, n) and mode full | partial (`inferred` occurs only in
    the numeric table).  The parser fills `pairs`, {(lam, mu): UVPoly}, and sets the
    Fraction `numeric`, None until the row's numeric line."""

    def __init__(self, m: int, n: int, mode: str):
        self.m, self.n, self.mode, self.pairs, self.numeric = m, n, mode, {}, None


# One pattern per golden line kind; each parser names the line's shape.
_PAIR_ROW = re.compile(rf"row\s+({INT})\s+({INT})(?:\s+(full|partial))?")
_PAIR = re.compile(r"pair\s+(\S+)\s+(\S+)\s*:\s*(\S+)")
_NUMERIC = re.compile(r"numeric\s+(\S+)")
_NUMERIC_ROW = re.compile(rf"row\s+({INT})(?:\s+(full|inferred))?\s*:\s*(\S+)")


def _fields(pattern: re.Pattern, line: str, shape: str) -> tuple:
    """The groups of `line` matched by `pattern`; a ValueError names the expected shape."""
    if not (m := pattern.fullmatch(line)):
        raise ValueError(f"malformed line {line!r}, expected {shape!r}")
    return m.groups()


def parse_golden_pairs(path: Path) -> list:
    """Parse a pair-table golden file into GoldenRow records."""
    rows: list = []

    def parse_line(line):
        directive = line.split()[0]
        if directive == "row":
            m, n, mode = _fields(_PAIR_ROW, line, "row <m> <n> [full|partial]")
            rows.append(GoldenRow(int(m), int(n), mode or "full"))
        elif directive not in ("pair", "numeric"):
            raise ValueError(f"unknown golden directive {line!r}")
        elif not rows:
            raise ValueError(f"{directive} line before any row")
        elif directive == "pair":
            lam_s, mu_s, poly_s = _fields(_PAIR, line, "pair <lam> <mu> : <t-poly>")
            key = parse_partition(lam_s), parse_partition(mu_s)
            if key in rows[-1].pairs:
                raise ValueError(f"repeated pair {lam_s} {mu_s}")
            rows[-1].pairs[key] = parse_tpoly(poly_s)
        elif rows[-1].numeric is not None:
            raise ValueError("repeated numeric line")
        else:
            (value,) = _fields(_NUMERIC, line, "numeric <rat>")
            rows[-1].numeric = parse_rational(value)

    read_lines(path.read_text(), parse_line, lambda i, msg: ValueError(f"{path.name}:{i}: {msg}"))
    return rows


def parse_golden_numeric(path: Path) -> dict:
    """Parse a numeric golden table: map n -> (UVPoly, mode)."""
    out: dict = {}

    def parse_line(line):
        n_s, mode, poly_s = _fields(_NUMERIC_ROW, line, "row <n> [full|inferred] : <uv-poly>")
        if (n := int(n_s)) in out:
            raise ValueError(f"repeated row {n}")
        out[n] = (parse_uvpoly(poly_s), mode or "full")

    read_lines(path.read_text(), parse_line, lambda i, msg: ValueError(f"{path.name}:{i}: {msg}"))
    return out


def compare_row_to_golden(component: BiSymSeries, row: GoldenRow) -> list:
    """Monomial-by-monomial comparison; returns a list of mismatch strings."""
    sch = component.to_schur_pairs()
    partial = row.mode == "partial"
    problems = []
    for key in row.pairs if partial else set(row.pairs) | set(sch):
        want = row.pairs.get(key, UVPoly.zero())
        got = sch.get(key, UVPoly.zero())
        if partial:
            if not got.is_diagonal():
                problems.append(f"pair {key}: off-diagonal coefficient {got}")
                continue
            got = UVPoly({k: Fraction(x, got.den) for k, x in got.nums.items() if k in want.nums})
        if want != got:
            problems.append(f"pair {key}: {got} != {want}")
    return problems


def numeric_value(component: BiSymSeries, m: int, n: int) -> UVPoly:
    """Dimension specialization of an arity-(m,n) component (trace at identity)."""
    return component.trace_from_ch(((1,) * m, (1,) * n))


# -- rendering -------------------------------------------------------------------


def _poly_for_form(c: UVPoly, form: str) -> str:
    if form == "poincare":
        return poincare_str(c)
    if form == "weight0":
        return str(c.weight_zero())
    return str(c)


def _latex_partition(lam: tuple) -> str:
    return "{" + ",".join(str(p) for p in lam) + "}"


def delimited_lines(fmt: str, header: tuple, rows) -> list:
    """One line per row: fields joined by ' | ' in text, by ',' under a header in csv."""
    sep = "," if fmt == "csv" else " | "
    lines = [sep.join(header)] if fmt == "csv" else []
    return lines + [sep.join(map(str, row)) for row in rows]


def render_table(result, basis="schur", form="hodge", max_arity=5, fmt="text") -> str:
    """Render a HeavyLightResult up to total arity `max_arity`, one line per
    basis monomial (one per (m, n) in latex), in the canonical order of the
    series core; deterministic across runs."""
    if form == "poincare" and not (
        result.variant == "closed" and result.genus == 1 and max_arity <= GENUS1_PURE_ARITY
    ):
        raise ValueError(
            "poincare form requires the closed variant in the proven-diagonal "
            f"range (genus 1, total arity <= {GENUS1_PURE_ARITY})"
        )
    data = result.data.truncate(max_arity)
    blocks = data.schur_blocks() if basis == "schur" else (data.coeffs,)
    entries = ((key, block[key]) for block in blocks for key in data.canonical_order(block))
    if fmt != "latex":
        rows = ((sum(lam), sum(mu), format_partition(lam), format_partition(mu),
                 _poly_for_form(c, form)) for (lam, mu), c in entries)
        lines = delimited_lines(fmt, ("m", "n", "lambda", "mu", "coefficient"), rows)
    else:
        tag = "s" if basis == "schur" else "p"
        lines = []
        for (m, n), pairs in groupby(entries, key=lambda e: (sum(e[0][0]), sum(e[0][1]))):
            terms = []
            for (lam, mu), c in pairs:
                piece = f"({_poly_for_form(c, form)})"
                for i, part in enumerate((lam, mu), start=1):
                    if part:
                        piece += f"{tag}_{_latex_partition(part)}^{{({i})}}"
                terms.append(piece)
            lines.append(f"({m},{n}) & ${' + '.join(terms)}$ \\\\")
    return "".join(line + "\n" for line in lines)
