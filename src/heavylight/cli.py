"""Command-line interface.

Subcommands: closed-table, open-table, euler-genfun, slice-n1, tropical,
verify, oracle-compare.  Exit code 0 on full pass, 1 on any failure, 2 on
usage errors.
"""

import argparse
import sys
from math import factorial

from .fixtures import FixtureError, load_fixture
from .oracle import oracle_compare
from .pipeline import (
    Refused,
    closed_series,
    closed_series_numeric,
    genus1_light_chi_egf,
    numeric_rows,
    open_series,
    slice_n1,
    stability_ok,
    tropical_euler,
)
from .tables import BASES, FORMATS, delimited_lines, numeric_value, render_table
from .uvpoly import parse_int
from .verify import SUITES, run_suite

# The shipped fixture serving each (variant, genus).  Genus 2 ships only the
# weight-zero part of its open series.
FIXTURES = {
    ("open", 0): "genus0_smooth",
    ("open", 1): "genus1_smooth",
    ("open", 2): "genus2_smooth_weight0",
    ("closed", 0): "genus0_stable",
    ("closed", 1): "genus1_stable",
    ("numeric", 1): "genus1_stable_numeric",
}


def _integer(minimum=None):
    """An argparse type: an integer literal of the `uvpoly` grammar, no smaller than `minimum`."""

    def integer(text: str) -> int:
        value = parse_int(text, "value")  # argparse reports a ValueError as a usage error
        if minimum is not None and value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _fixture(variant: str, genus: int):
    """The shipped fixture for (variant, genus); refuses a pair that is not
    shipped and a fixture file that cannot be read or parsed."""
    if (variant, genus) not in FIXTURES:
        shipped = ", ".join(str(g) for v, g in FIXTURES if v == variant)
        raise Refused(f"no {variant} fixture for genus {genus} (shipped: genus {shipped})")
    try:
        return load_fixture(FIXTURES[variant, genus])
    except (FixtureError, OSError) as exc:
        raise Refused(str(exc)) from exc


def cmd_closed_table(args) -> int:
    if args.genus != 1:
        raise Refused("closed tables are shipped for genus 1 only")
    if args.form == "numeric":
        if args.format == "latex" or args.basis == "power":
            raise Refused("the numeric form takes neither --basis power nor --format latex")
        numeric = _fixture("numeric", 1)
        table = closed_series_numeric(numeric.data.rank1("x"), args.max_arity)
        rows = [(*mn, poly) for mn, poly in numeric_rows(table, numeric.genus).items()]
        for line in delimited_lines(args.format, ("m", "n", "poly"), rows):
            print(line)
        return 0
    stable1, smooth0 = _fixture("closed", 1), _fixture("open", 0)
    res = closed_series(stable1, smooth0, trunc=args.max_arity)
    sys.stdout.write(render_table(res, args.basis, args.form, args.max_arity, args.format))
    return 0


def cmd_open_table(args) -> int:
    fx = _fixture("open", args.genus)
    if args.weight0 and fx.variant != "weight0":
        raise Refused("weight-zero open tables are shipped for genus 2 only")
    form = "weight0" if fx.variant == "weight0" else args.form
    res = open_series(fx, trunc=args.max_arity)
    sys.stdout.write(render_table(res, args.basis, form, args.max_arity, args.format))
    return 0


def cmd_euler_genfun(args) -> int:
    if args.genus != 1:
        raise Refused("the Euler generating function is shipped for genus 1")
    series = genus1_light_chi_egf(args.order)
    for n in range(1, args.order + 1):
        chi = series[n].constant_term() * factorial(n)
        print(f"n={n} chi={chi}")
    return 0


def cmd_slice_n1(args) -> int:
    fx = _fixture(args.variant, args.genus)
    if not stability_ok(args.genus, args.m, 1):
        print("empty: outside the stability range")
        return 0
    print(slice_n1(fx, args.m).pretty())
    return 0


def cmd_tropical(args) -> int:
    res = open_series(_fixture("open", args.genus), trunc=args.m + args.n)
    chi = tropical_euler(res, args.m, args.n)
    print(chi.pretty())
    print(f"numeric: {numeric_value(chi, args.m, args.n).constant_term()}")
    return 0


def _print_checks(checks) -> int:
    width = max(len(name) for name, _, _ in checks) if checks else 0
    failures = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {name:<{width}}"
        if detail and not ok:
            line += f"  [{detail}]"
        print(line)
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def cmd_verify(args) -> int:
    return _print_checks(run_suite(args.suite))


def cmd_oracle_compare(args) -> int:
    fx = _fixture("open", args.genus)
    rows = oracle_compare(fx, open_series(fx, trunc=args.max_arity), args.max_arity)
    return _print_checks([(f"({m},{n})", ok, "") for m, n, ok in rows])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--genus", type=_integer(), required=True)
    table.add_argument("--max-arity", type=_integer(0), default=5)
    table.add_argument("--basis", choices=BASES, default="schur")
    table.add_argument("--format", choices=FORMATS, default="text")

    p = sub.add_parser(
        "closed-table", parents=[table], help="heavy/light series of the compactification"
    )
    p.add_argument("--form", choices=("hodge", "poincare", "numeric"), default="hodge")
    p.set_defaults(fn=cmd_closed_table)

    p = sub.add_parser("open-table", parents=[table], help="heavy/light series of the smooth locus")
    p.add_argument("--weight0", action="store_true")
    p.add_argument("--form", choices=("hodge", "weight0"), default="hodge")
    p.set_defaults(fn=cmd_open_table)

    p = sub.add_parser("euler-genfun", help="Euler characteristics of the all-light spaces")
    p.add_argument("--genus", type=_integer(), required=True)
    p.add_argument("--order", type=_integer(1), default=10)
    p.set_defaults(fn=cmd_euler_genfun)

    p = sub.add_parser("slice-n1", help="single-light-marking slice from the derivative formula")
    p.add_argument("--genus", type=_integer(), required=True)
    p.add_argument("--m", type=_integer(0), required=True)
    p.add_argument("--variant", choices=("open", "closed"), default="closed")
    p.set_defaults(fn=cmd_slice_n1)

    p = sub.add_parser("tropical", help="tropical equivariant Euler characteristic")
    p.add_argument("--genus", type=_integer(), required=True)
    p.add_argument("--m", type=_integer(0), required=True)
    p.add_argument("--n", type=_integer(0), required=True)
    p.set_defaults(fn=cmd_tropical)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=tuple(SUITES), default="all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle-compare", help="brute-force oracle vs the open pipeline")
    p.add_argument("--genus", type=_integer(), required=True)
    p.add_argument("--max-arity", type=_integer(1), default=5)
    p.set_defaults(fn=cmd_oracle_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Refused as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
