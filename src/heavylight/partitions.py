"""Integer partitions, the z normalizer, and symmetric-group characters.

Partitions are plain tuples of positive integers in weakly decreasing order;
the empty partition is ().  The canonical ordering of the partitions of n is
lexicographically decreasing, and every iteration order in this package
derives from it.
"""

from functools import lru_cache
from math import factorial

from .uvpoly import PARTITION


def is_partition(parts) -> bool:
    """True if `parts` is a weakly decreasing tuple of positive integers."""
    return (
        type(parts) is tuple
        and set(map(type, parts)) <= {int}
        and parts == tuple(sorted(parts, reverse=True))
        and (not parts or parts[-1] >= 1)
    )


def partition(parts) -> tuple:
    """An iterable of ints as a partition tuple, validating it."""
    t = tuple(parts)
    if not is_partition(t):
        raise ValueError(f"not a partition: {t!r}")
    return t


@lru_cache(maxsize=None)
def gen_partitions(n: int) -> tuple:
    """All partitions of n, in lexicographically decreasing order.

    gen_partitions(0) == ((),).  The count is the partition number p(n).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for k in range(min(remaining, maxpart), 0, -1):
            rec(remaining - k, k, prefix + (k,))

    rec(n, n, ())
    return tuple(out)


def multiplicities(lam: tuple) -> dict:
    """Map part value -> multiplicity."""
    m: dict = {}
    for p in lam:
        m[p] = m.get(p, 0) + 1
    return m


def z_of(lam: tuple) -> int:
    """Centralizer order of a permutation of cycle type lam.

    z = prod_i i^{m_i} m_i!, so the conjugacy class has size n!/z.
    """
    z = 1
    for i, m in multiplicities(lam).items():
        z *= i**m * factorial(m)
    return z


def union(lam: tuple, mu: tuple) -> tuple:
    """Multiset union of parts, re-sorted into a partition; an empty side returns the other."""
    if not (lam and mu):
        return lam or mu
    return tuple(sorted(lam + mu, reverse=True))


def format_partition(lam: tuple) -> str:
    """Serialize as a bracketed comma-separated part list, e.g. [2,1,1]."""
    return "[" + ",".join(str(p) for p in lam) + "]"


def parse_partition(text: str) -> tuple:
    """Inverse of format_partition: the partition literal of the `uvpoly` grammar."""
    m = PARTITION.fullmatch(text)
    if not m:
        raise ValueError(f"malformed partition literal: {text!r}")
    return partition(map(int, m[1].split(","))) if m[1] else ()


@lru_cache(maxsize=None)
def _bead_column(mu: tuple) -> dict:
    """{beta-set: chi^lam(mu)} over the lam of n = |mu| with chi^lam(mu) != 0, the beta-set of
    lam an int with a bead on bit lam[i] + n - 1 - i for each row i of lam padded to n rows.

    Murnaghan-Nakayama as a product, p_r s_nu = sum (-1)^ht(lam/nu) s_lam over the rim hooks
    lam/nu of length r (Macdonald, Symmetric Functions and Hall Polynomials, I.3 Ex. 11):
    under the column of mu[1:], r = mu[0] new beads fill bits 0..r-1, and each hook moves
    one bead up r bits to a free bit, signed by the parity of the beads it passes.
    """
    if not mu:
        return {0: 1}
    r, col = mu[0], {}
    for beads, chi in _bead_column(mu[1:]).items():
        beads = (beads << r) | ((1 << r) - 1)
        movable = beads & ~(beads >> r)  # the beads with a free bit r above them
        while movable:
            low = movable & -movable
            movable ^= low
            moved = beads + (low << r) - low
            passed = beads & (low << r) - (low << 1)
            col[moved] = col.get(moved, 0) + (-chi if passed.bit_count() & 1 else chi)
    return {moved: chi for moved, chi in col.items() if chi}


@lru_cache(maxsize=None)
def _beta_sets(n: int) -> dict:
    """{lam: its beta-set of n beads} over the partitions of n, in canonical order."""
    return {
        lam: sum(1 << (p + n - 1 - i) for i, p in enumerate(lam)) | ((1 << (n - len(lam))) - 1)
        for lam in gen_partitions(n)
    }


def character_column(mu: tuple) -> dict:
    """{lam: chi^lam(mu)} over the lam of |mu| with chi^lam(mu) != 0, in canonical order."""
    col = _bead_column(mu)
    return {lam: col[beads] for lam, beads in _beta_sets(sum(mu)).items() if beads in col}


@lru_cache(maxsize=None)
def mn_character(lam: tuple, mu: tuple) -> int:
    """Irreducible character chi^lam on the class of type mu, |lam| == |mu|, read from its column."""
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    return _bead_column(mu).get(_beta_sets(sum(mu))[lam], 0)
