"""On-disk series fixtures: named, versioned truncated symmetric series.

File format (line-oriented, `#` starts a comment, bit-exact round trip):

    series <name>
    genus <int>
    variant open|closed|weight0
    truncation <int>
    term n=<int> lambda=[k1,k2,...] poly=<uv-poly other than 0>

The fixture directory defaults to the packaged data directory and can be
overridden with the HL_FIXTURE_DIR environment variable.
"""

import os
from dataclasses import dataclass
from pathlib import Path

from .partitions import format_partition, parse_partition
from .symseries import SymSeries
from .uvpoly import parse_uvpoly

VARIANTS = ("open", "closed", "weight0")

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


@dataclass(frozen=True)
class SeriesFixture:
    """A named truncated series with genus/variant metadata."""

    name: str
    genus: int
    variant: str
    trunc: int
    data: SymSeries

    def stability_bound_ok(self) -> bool:
        """Check arity-n terms appear only where 2g - 2 + n > 0."""
        return all(
            2 * self.genus - 2 + sum(lam) > 0 for lam in self.data.coeffs
        )


def default_fixture_dir() -> Path:
    env = os.environ.get("HL_FIXTURE_DIR")
    if env:
        return Path(env)
    return Path(__file__).parent / "data"


def _header_int(lineno: int, key: str, rest: str) -> int:
    try:
        value = int(rest)
    except ValueError:
        raise FixtureError(lineno, f"{key} must be an integer, got {rest.strip()!r}") from None
    if value < 0:
        raise FixtureError(lineno, f"{key} must be nonnegative, got {value}")
    return value


def parse_fixture(text: str) -> SeriesFixture:
    """Parse fixture text; raises FixtureError with a line position."""
    name = genus = variant = trunc = None
    terms = {}
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            key, rest = line.split(None, 1)
        except ValueError:
            raise FixtureError(lineno, f"malformed line: {raw!r}")
        if key != "term":
            if key in seen:
                raise FixtureError(lineno, f"repeated header {key!r}")
            seen.add(key)
        if key == "series":
            name = rest.strip()
        elif key == "genus":
            genus = _header_int(lineno, key, rest)
        elif key == "variant":
            variant = rest.strip()
            if variant not in VARIANTS:
                raise FixtureError(lineno, f"unknown variant {variant!r}")
        elif key == "truncation":
            trunc = _header_int(lineno, key, rest)
        elif key == "term":
            fields = {}
            for chunk in rest.split(None, 2):
                if "=" not in chunk:
                    raise FixtureError(lineno, f"malformed term field {chunk!r}")
                k, v = chunk.split("=", 1)
                fields[k] = v
            missing = {"n", "lambda", "poly"} - set(fields)
            if missing:
                raise FixtureError(lineno, f"term missing fields {sorted(missing)}")
            try:
                n = int(fields["n"])
                lam = parse_partition(fields["lambda"])
                poly = parse_uvpoly(fields["poly"])
            except ValueError as exc:
                raise FixtureError(lineno, str(exc))
            if not poly:
                raise FixtureError(lineno, f"zero term n={n} lambda={fields['lambda']}")
            if sum(lam) != n:
                raise FixtureError(lineno, f"lambda {lam} does not have size {n}")
            if trunc is None:
                raise FixtureError(lineno, "term before truncation header")
            if n > trunc:
                raise FixtureError(lineno, f"term arity {n} exceeds truncation {trunc}")
            if lam in terms:
                raise FixtureError(lineno, f"duplicate term key n={n} lambda={lam}")
            terms[lam] = poly
        else:
            raise FixtureError(lineno, f"unknown directive {key!r}")
    missing = [key for key in ("series", "genus", "variant", "truncation") if key not in seen]
    if missing:
        raise FixtureError(0, f"missing header: {', '.join(missing)}")
    data = SymSeries(terms, trunc)
    return SeriesFixture(name=name, genus=genus, variant=variant, trunc=trunc, data=data)


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


def load_fixture(name: str, directory: Path | None = None) -> SeriesFixture:
    directory = directory or default_fixture_dir()
    stem = SHIPPED.get(name, name)
    path = directory / f"{stem}.hlf"
    if not path.exists():
        raise FileNotFoundError(f"fixture {name!r} not found at {path}")
    fx = parse_fixture(path.read_text())
    return fx


def save_fixture(fx: SeriesFixture, directory: Path | None = None) -> Path:
    directory = directory or default_fixture_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{fx.name}.hlf"
    path.write_text(write_fixture(fx))
    return path
