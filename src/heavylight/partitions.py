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
def mn_character(lam: tuple, mu: tuple) -> int:
    """Irreducible character chi^lam evaluated on the class of type mu, |lam| == |mu|.

    Murnaghan-Nakayama on beta-numbers (Macdonald, Symmetric Functions and Hall Polynomials,
    I.7): row i of lam is a bead on bit lam[i] + len(lam) - 1 - i of one int.  A border strip
    of length mu[0] moves a bead down to a free bit, signed by the parity of the beads passed.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    if not mu:
        return 1
    r, rest, k = mu[0], mu[1:], len(lam)
    tops = [p + k - 1 - i for i, p in enumerate(lam)]
    mask = sum(1 << top for top in tops)
    total = 0
    for top in tops:
        b = top - r
        if b >= 0 and not (mask >> b) & 1:  # bit b is free for the bead on bit top
            smaller, free = [], 0
            for bit in bin(mask ^ (1 << top) ^ (1 << b))[:1:-1]:  # from bit 0 up
                if bit == "0":
                    free += 1
                elif free:  # a bead's part is the number of free bits below it
                    smaller.append(free)
            x = mn_character(tuple(reversed(smaller)), rest)
            total += -x if (mask & ((1 << top) - (2 << b))).bit_count() & 1 else x
    return total
