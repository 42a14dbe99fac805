"""Table rendering and golden-table storage.

`render_table` makes one pass over the whole series in the series core's one
canonical key order; `delimited_lines` writes every text and csv row.

Golden files hold the reference tables as structured monomial data; they are
compared monomial-by-monomial, never as raw strings.  A pair-table row lists
one Schur pair per line with its coefficient in the t grammar of `uvpoly`,
read into a UVPoly; rows marked `partial` are compared only on the monomials
they list.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from pathlib import Path

from .bisymseries import BiSymSeries
from .partitions import format_partition, parse_partition
from .pipeline import GENUS1_PURE_ARITY
from .uvpoly import UVPoly, parse_rational, parse_tpoly, parse_uvpoly, poincare_str

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

BASES = ("schur", "power")
FORMATS = ("text", "csv", "latex")


# -- golden files ---------------------------------------------------------------


@dataclass
class GoldenRow:
    m: int
    n: int
    mode: str  # full | partial (`inferred` occurs only in the numeric table)
    pairs: dict  # (lam, mu) -> UVPoly
    numeric: Fraction | None = None


def _parse_lines(path: Path, parse_line):
    """Call parse_line on each line with its comment stripped, skipping blank
    lines; a ValueError from a line is raised again as "<file>:<line>: ..."."""
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                parse_line(line)
            except ValueError as exc:
                raise ValueError(f"{path.name}:{lineno}: {exc}") from None


def parse_golden_pairs(path: Path) -> list:
    """Parse a pair-table golden file into GoldenRow records."""
    rows: list = []

    def parse_line(line):
        directive, *fields = line.split()
        if directive == "row":
            m, n, *mode = fields
            rows.append(GoldenRow(m=int(m), n=int(n), mode=mode[0] if mode else "full", pairs={}))
        elif directive not in ("pair", "numeric"):
            raise ValueError(f"unknown golden directive {line!r}")
        elif not rows:
            raise ValueError(f"{directive} line before any row")
        elif directive == "pair":
            head, poly_s = line.split(":", 1)
            _, lam_s, mu_s = head.split()
            rows[-1].pairs[(parse_partition(lam_s), parse_partition(mu_s))] = parse_tpoly(
                poly_s.strip()
            )
        else:
            (value,) = fields
            rows[-1].numeric = parse_rational(value)

    _parse_lines(path, parse_line)
    return rows


def parse_golden_numeric(path: Path) -> dict:
    """Parse a numeric golden table: map n -> (UVPoly, mode)."""
    out: dict = {}

    def parse_line(line):
        if not line.startswith("row"):
            raise ValueError(f"unknown directive {line!r}")
        head, poly_s = line.split(":", 1)
        _, n, *mode = head.split()
        out[int(n)] = (parse_uvpoly(poly_s.strip()), mode[0] if mode else "full")

    _parse_lines(path, parse_line)
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
            got = UVPoly({k: c for k, c in got.terms.items() if k in want.nums})
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
    entries = data.to_schur_pairs() if basis == "schur" else data.coeffs
    keys = data.canonical_order(entries)
    if fmt != "latex":
        rows = ((sum(lam), sum(mu), format_partition(lam), format_partition(mu),
                 _poly_for_form(entries[lam, mu], form)) for lam, mu in keys)
        lines = delimited_lines(fmt, ("m", "n", "lambda", "mu", "coefficient"), rows)
    else:
        tag = "s" if basis == "schur" else "p"
        lines = []
        for (m, n), pairs in groupby(keys, key=lambda k: (sum(k[0]), sum(k[1]))):
            terms = []
            for lam, mu in pairs:
                piece = f"({_poly_for_form(entries[lam, mu], form)})"
                for i, part in enumerate((lam, mu), start=1):
                    if part:
                        piece += f"{tag}_{_latex_partition(part)}^{{({i})}}"
                terms.append(piece)
            lines.append(f"({m},{n}) & ${' + '.join(terms)}$ \\\\")
    return "\n".join(lines) + "\n"
