"""On-disk series fixtures: named, versioned truncated symmetric series.

File format (line-oriented, `#` starts a comment, bit-exact round trip):

    series <name>
    genus <int>
    variant open|closed|weight0
    truncation <int>
    term n=<int> lambda=[k1,k2,...] poly=<uv-poly other than 0>

Each header appears once; genus, variant and truncation come before the first term,
and a weight0 term is a constant.  <int> is ASCII [0-9]+ as in the `uvpoly` grammar,
with no '_', '.', exponent or inner space.  Fixtures load from HL_FIXTURE_DIR when it
is set, else from the packaged data directory.
"""

import os
import re
from collections import namedtuple
from pathlib import Path

from .partitions import format_partition, parse_partition
from .symseries import SymSeries
from .uvpoly import parse_int, parse_uvpoly

VARIANTS = ("open", "closed", "weight0")
_TERM_FIELDS = re.compile(r"n=(\S*)\s+lambda=(\S*)\s+poly=(\S*)")

# shipped fixture names -> file stem
SHIPPED = {
    "genus0_smooth": "genus0_smooth",
    "genus0_stable": "genus0_stable",
    "genus1_smooth": "genus1_smooth",
    "genus1_stable": "genus1_stable",
    "genus1_stable_numeric": "genus1_stable_numeric",
    "genus2_smooth_weight0": "genus2_smooth_weight0",
}


class FixtureError(ValueError):
    """Raised on malformed fixture text; carries the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class SeriesFixture(namedtuple("SeriesFixture", "name genus variant data")):
    """A named truncated series with genus/variant metadata; its truncation is the series'.
    Immutable: a changed copy is made with `fx._replace(field=value)`."""

    __slots__ = ()

    @property
    def trunc(self) -> int:
        return self.data.trunc


def default_fixture_dir() -> Path:
    env = os.environ.get("HL_FIXTURE_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def read_lines(text: str, parse_line, error) -> None:
    """Call parse_line on each nonblank line of `text`, `#` comment and outer space
    stripped; a ValueError it raises is raised again as error(lineno, message)."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                parse_line(line)
            except ValueError as exc:
                raise error(lineno, str(exc)) from None


def parse_fixture(text: str) -> SeriesFixture:
    """Parse fixture text; raises FixtureError with a line position."""
    headers, terms = {}, {}

    def parse_line(line):
        fields = line.split(None, 1)
        if len(fields) != 2:
            raise ValueError(f"malformed line: {line!r}")
        key, rest = fields
        if key in headers:
            raise ValueError(f"repeated header {key!r}")
        if key in ("genus", "truncation"):
            headers[key] = parse_int(rest, key)
            if headers[key] < 0:
                raise ValueError(f"{key} must be nonnegative, got {headers[key]}")
        elif key == "variant" and rest not in VARIANTS:
            raise ValueError(f"unknown variant {rest!r}")
        elif key in ("series", "variant"):
            headers[key] = rest
        elif key != "term":
            raise ValueError(f"unknown directive {key!r}")
        elif not (m := _TERM_FIELDS.fullmatch(rest)):
            raise ValueError(f"malformed term {rest!r}")
        else:
            n, lam, poly = parse_int(m[1], "n"), parse_partition(m[2]), parse_uvpoly(m[3])
            if not poly:
                raise ValueError(f"zero term n={n} lambda={m[2]}")
            if sum(lam) != n:
                raise ValueError(f"lambda {lam} does not have size {n}")
            if not headers.keys() >= {"genus", "variant", "truncation"}:
                raise ValueError("term before the genus, variant and truncation headers")
            if n > headers["truncation"]:
                raise ValueError(f"term arity {n} exceeds truncation {headers['truncation']}")
            if headers["variant"] == "weight0" and poly.nums.keys() != {(0, 0)}:
                raise ValueError(f"non-constant term n={n} lambda={m[2]} in a weight0 fixture")
            if lam in terms:
                raise ValueError(f"duplicate term key n={n} lambda={lam}")
            terms[lam] = poly

    read_lines(text, parse_line, FixtureError)
    missing = [key for key in ("series", "genus", "variant", "truncation") if key not in headers]
    if missing:
        raise FixtureError(0, f"missing header: {', '.join(missing)}")
    # each term line has checked its key, its size, its arity, its variant and that it is nonzero
    return SeriesFixture(headers["series"], headers["genus"], headers["variant"],
                         SymSeries._built(terms, headers["truncation"]))


def write_fixture(fx: SeriesFixture) -> str:
    """Canonical serialization; parse(write(fx)) round-trips exactly."""
    lines = [
        f"series {fx.name}",
        f"genus {fx.genus}",
        f"variant {fx.variant}",
        f"truncation {fx.trunc}",
    ]
    for lam in fx.data.canonical_order(fx.data.coeffs):
        poly = fx.data[lam]
        lines.append(
            f"term n={sum(lam)} lambda={format_partition(lam)} poly={poly}"
        )
    return "\n".join(lines) + "\n"


def load_fixture(name: str) -> SeriesFixture:
    path = default_fixture_dir() / f"{SHIPPED.get(name, name)}.hlf"
    if not path.exists():
        raise FileNotFoundError(f"fixture {name!r} not found at {path}")
    return parse_fixture(path.read_text())


def save_fixture(fx: SeriesFixture, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{fx.name}.hlf"
    path.write_text(write_fixture(fx))
    return path
