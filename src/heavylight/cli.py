"""Command-line interface.

Subcommands: closed-table, open-table, euler-genfun, slice-n1, tropical,
verify, oracle-compare.  Exit code 0 on full pass, 1 on any failure, 2 on
usage errors.
"""

import argparse
import sys
from math import factorial

from .fixtures import load_fixture
from .pipeline import (
    closed_series,
    closed_series_numeric,
    genus1_light_chi_egf,
    open_series,
    slice_n1,
    stability_ok,
    tropical_euler,
)
from .tables import TableSpec, render_table
from .verify import run_suite


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than `minimum`."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as a usage error
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _closed_inputs():
    return load_fixture("genus1_stable"), load_fixture("genus0_smooth")


def _open_fixture(genus: int, weight0: bool):
    if genus == 2 or weight0:
        if genus != 2:
            raise SystemExit("weight-zero open tables are shipped for genus 2 only")
        return load_fixture("genus2_smooth_weight0")
    if genus == 1:
        return load_fixture("genus1_smooth")
    if genus == 0:
        return load_fixture("genus0_smooth")
    raise SystemExit(f"no open fixture for genus {genus}")


def cmd_closed_table(args) -> int:
    if args.genus != 1:
        print("closed tables are shipped for genus 1 only", file=sys.stderr)
        return 1
    if args.form == "numeric":
        numeric = load_fixture("genus1_stable_numeric")
        order = args.max_arity
        if order > numeric.trunc:
            print(f"max arity {order} exceeds numeric truncation {numeric.trunc}", file=sys.stderr)
            return 1
        table = closed_series_numeric(numeric.data.rank1("x"), order)
        sep = "," if args.format == "csv" else " | "
        if args.format == "csv":
            print("m,n,poly")
        for total in range(order + 1):
            for m in range(total + 1):
                n = total - m
                if not stability_ok(1, m, n):
                    continue
                poly = table[(m, n)] * (factorial(m) * factorial(n))
                if not poly.is_zero():
                    print(f"{m}{sep}{n}{sep}{poly}")
        return 0
    stable1, smooth0 = _closed_inputs()
    if args.max_arity > stable1.trunc:
        print(f"max arity {args.max_arity} exceeds fixture truncation {stable1.trunc}", file=sys.stderr)
        return 1
    spec = TableSpec(
        genus=1,
        variant="closed",
        basis=args.basis,
        form=args.form,
        max_arity=args.max_arity,
        fmt=args.format,
    )
    res = closed_series(stable1, smooth0, trunc=args.max_arity)
    sys.stdout.write(render_table(spec, res))
    return 0


def cmd_open_table(args) -> int:
    fx = _open_fixture(args.genus, args.weight0)
    if args.max_arity > fx.trunc:
        print(f"max arity {args.max_arity} exceeds fixture truncation {fx.trunc}", file=sys.stderr)
        return 1
    form = "weight0" if (args.weight0 or fx.variant == "weight0") else args.form
    spec = TableSpec(
        genus=args.genus,
        variant="open",
        basis=args.basis,
        form=form,
        max_arity=args.max_arity,
        fmt=args.format,
    )
    res = open_series(fx, trunc=args.max_arity)
    sys.stdout.write(render_table(spec, res))
    return 0


def cmd_euler_genfun(args) -> int:
    if args.genus != 1:
        print("the Euler generating function is shipped for genus 1", file=sys.stderr)
        return 1
    series = genus1_light_chi_egf(args.order)
    for n in range(1, args.order + 1):
        chi = series[n].constant_term() * factorial(n)
        print(f"n={n} chi={chi}")
    return 0


def cmd_slice_n1(args) -> int:
    if args.variant == "closed":
        fx = load_fixture("genus1_stable") if args.genus == 1 else load_fixture("genus0_stable")
    else:
        fx = _open_fixture(args.genus, weight0=args.genus == 2)
    if fx.genus != args.genus:
        print(f"no {args.variant} fixture for genus {args.genus}", file=sys.stderr)
        return 1
    if args.m + 1 > fx.trunc:
        print(f"m + 1 = {args.m + 1} exceeds fixture truncation {fx.trunc}", file=sys.stderr)
        return 1
    if not stability_ok(args.genus, args.m, 1):
        print("empty: outside the stability range")
        return 0
    comp = slice_n1(fx, args.m)
    print(comp.pretty(basis="schur"))
    return 0


def cmd_tropical(args) -> int:
    fx = _open_fixture(args.genus, weight0=args.genus == 2)
    if args.m + args.n > fx.trunc:
        print(f"total arity exceeds fixture truncation {fx.trunc}", file=sys.stderr)
        return 1
    res = open_series(fx, trunc=args.m + args.n)
    try:
        chi = tropical_euler(res, args.m, args.n)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(chi.pretty(basis="schur"))
    numeric = chi.trace_from_ch(args.m, args.n, (1,) * args.m, (1,) * args.n)
    print(f"numeric: {numeric.constant_term()}")
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
    if args.genus not in (1, 2):
        print("oracle comparison is shipped for genus 1 and genus 2", file=sys.stderr)
        return 1
    checks = []
    fx = load_fixture("genus1_smooth" if args.genus == 1 else "genus2_smooth_weight0")
    cap = min(args.max_arity, fx.trunc)
    res = open_series(fx, trunc=cap)
    from .oracle import oracle_compare as compare

    for m, n, ok in compare(args.genus, fx, res, cap):
        checks.append((f"({m},{n})", ok, ""))
    return _print_checks(checks)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="hl", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closed-table", help="heavy/light series of the compactification")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-arity", type=_at_least(0), default=5)
    p.add_argument("--basis", choices=("schur", "power"), default="schur")
    p.add_argument("--form", choices=("hodge", "poincare", "numeric"), default="hodge")
    p.add_argument("--format", choices=("text", "csv", "latex"), default="text")
    p.set_defaults(fn=cmd_closed_table)

    p = sub.add_parser("open-table", help="heavy/light series of the smooth locus")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-arity", type=_at_least(0), default=5)
    p.add_argument("--weight0", action="store_true")
    p.add_argument("--basis", choices=("schur", "power"), default="schur")
    p.add_argument("--form", choices=("hodge", "weight0"), default="hodge")
    p.add_argument("--format", choices=("text", "csv", "latex"), default="text")
    p.set_defaults(fn=cmd_open_table)

    p = sub.add_parser("euler-genfun", help="Euler characteristics of the all-light spaces")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--order", type=_at_least(1), default=10)
    p.set_defaults(fn=cmd_euler_genfun)

    p = sub.add_parser("slice-n1", help="single-light-marking slice from the derivative formula")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--m", type=_at_least(0), required=True)
    p.add_argument("--variant", choices=("open", "closed"), default="closed")
    p.set_defaults(fn=cmd_slice_n1)

    p = sub.add_parser("tropical", help="tropical equivariant Euler characteristic")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--m", type=_at_least(0), required=True)
    p.add_argument("--n", type=_at_least(0), required=True)
    p.set_defaults(fn=cmd_tropical)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("all", "fixtures", "tables", "properties"), default="all")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle-compare", help="brute-force oracle vs the open pipeline")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--max-arity", type=_at_least(0), default=5)
    p.set_defaults(fn=cmd_oracle_compare)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
