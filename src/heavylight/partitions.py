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
    """Multiset union of parts, re-sorted into a partition."""
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


def _strip_border_strips(lam: tuple, length: int):
    """Yield (sign, smaller_partition) for each border strip of the given
    length that can be removed from lam.

    A border strip of length r removed from row i corresponds to lowering
    the beta-number lam[i] + (k - 1 - i) by r; the result must again be a
    strictly decreasing set of beta-numbers.  The sign is (-1)^height.
    """
    k = len(lam)
    beta = [lam[i] + (k - 1 - i) for i in range(k)]
    beta_set = set(beta)
    for i in range(k):
        b = beta[i] - length
        if b < 0 or b in beta_set:
            continue
        new_beta = sorted(beta_set - {beta[i]} | {b}, reverse=True)
        mu = tuple(new_beta[j] - (k - 1 - j) for j in range(k))
        mu = tuple(p for p in mu if p > 0)
        # height = number of rows the strip spans minus one
        height = sum(1 for c in beta if b < c < beta[i])
        yield (-1) ** height, mu


@lru_cache(maxsize=None)
def mn_character(lam: tuple, mu: tuple) -> int:
    """Irreducible character chi^lam evaluated on the class of type mu.

    Computed by recursive border-strip removal (Murnaghan-Nakayama),
    memoized on the (lam, mu) pair.  Both arguments must have equal size.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"size mismatch: |{lam}| != |{mu}|")
    if not mu:
        return 1
    head, rest = mu[0], mu[1:]
    total = 0
    for sign, smaller in _strip_border_strips(lam, head):
        total += sign * mn_character(smaller, rest)
    return total
