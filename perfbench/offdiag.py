"""The `offdiag` workload: seeded random series with off-diagonal rational
coefficients, pushed through every series operation and checked by
round-trip identities or by an independent rank specialisation.

`closed10` only ever sees diagonal coefficients (powers of uv) whose
characters are integers.  These inputs have neither property, so a fast
path that relies on them is bypassed here and its general path is timed.
"""

import random
from fractions import Fraction

from heavylight import bisymseries, powerseries, symseries
from heavylight.partitions import gen_partitions
from heavylight.uvpoly import UVPoly

ARITY = 8
# Each input series carries a term on every partition of the listed
# arities, and each coefficient the same two off-diagonal monomials, so the
# amount of work is fixed and only the rational values vary with the seed.
OUTER = tuple(range(ARITY + 1))
INNER = (1, 2, 3, 4)
EXP = (1, 2, 3)
EXP2 = (2, 3)
PLETH_BASE = (2, 3, 4)
COPRODUCT = (0, 1, 2, 3, 4, 5)
INNER2 = (1, 2)
SCHUR = tuple(range(ARITY + 1))
SCHUR2 = tuple(range(1, ARITY))
MONOMIALS = ((1, 0), (0, 2))  # u and v^2
NUMERATORS = (-4, -3, -2, -1, 1, 2, 3, 4)
DENOMINATORS = (5, 7, 11)  # no numerator is a multiple: never integral


def _coeff(rng):
    return UVPoly({m: Fraction(rng.choice(NUMERATORS), rng.choice(DENOMINATORS)) for m in MONOMIALS})


def _sym(rng, arities):
    """A term on every partition of each listed arity."""
    return symseries.SymSeries(
        {lam: _coeff(rng) for n in arities for lam in gen_partitions(n)}, ARITY
    )


def _bisym(rng, arities):
    """A term on every pair of partitions of each listed total arity."""
    coeffs = {}
    for n in arities:
        for m in range(n + 1):
            for lam in gen_partitions(m):
                for mu in gen_partitions(n - m):
                    coeffs[(lam, mu)] = _coeff(rng)
    return bisymseries.BiSymSeries(coeffs, ARITY)


def make_inputs(seed: int) -> dict:
    """Every input of one repetition, drawn from `seed` alone."""
    rng = random.Random(seed)
    return {
        "outer": _sym(rng, OUTER),
        "inner": _sym(rng, INNER),
        "exp_arg": _sym(rng, EXP),
        "pleth_base": symseries.SymSeries.power_sum(1, ARITY) + _sym(rng, PLETH_BASE),
        "coproduct_arg": _sym(rng, COPRODUCT),
        "pleth2_inner": _bisym(rng, INNER2),
        "exp2_arg": _bisym(rng, EXP2),
        "schur_arg": _sym(rng, SCHUR),
        "schur_pairs_arg": _bisym(rng, SCHUR2),
    }


def run(inputs: dict) -> list:
    """Run every operation; return (operation, identity holds) pairs."""
    SymSeries = symseries.SymSeries
    BiSymSeries = bisymseries.BiSymSeries
    checks = []

    f, g = inputs["outer"], inputs["inner"]
    composed = f.plethysm(g)
    checks.append(("plethysm rank", composed.rank1("y") == f.rank1("y").compose(g.rank1("y"))))

    f = inputs["exp_arg"]
    checks.append(("exp_series/log_series", f.exp_series().log_series() == f))

    f = inputs["pleth_base"]
    inv = f.pleth_inverse()
    p1 = SymSeries.power_sum(1, ARITY)
    checks.append(("pleth_inverse right", f.plethysm(inv) == p1))
    checks.append(("pleth_inverse left", inv.plethysm(f) == p1))

    f, inner = inputs["coproduct_arg"], inputs["pleth2_inner"]
    out = bisymseries.coproduct(f).pleth2(inner)
    x = powerseries.FormalPS2.variable(("x", "y"), 1, ARITY)
    want = powerseries.compose_ps1_into_ps2(f.rank1("x"), x + inner.rank2())
    checks.append(("coproduct/pleth2 rank", out.rank2() == want))

    b = inputs["exp2_arg"]
    checks.append(("exp2/log2", b.exp2().log2() == b))

    f = inputs["schur_arg"]
    checks.append(("to_schur/from_schur", SymSeries.from_schur(f.to_schur(), ARITY) == f))
    b = inputs["schur_pairs_arg"]
    back = BiSymSeries.from_schur_pairs(b.to_schur_pairs(), ARITY)
    checks.append(("to_schur_pairs/from_schur_pairs", back == b))
    return checks
