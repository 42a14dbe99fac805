"""Independent small-arity verification by brute-force enumeration.

The pipeline computes heavy/light series through plethysm; this module
recomputes small components directly from the stratification by the number
of distinct light points, averaging over explicit permutations, so that any
systematic error in the plethysm machinery is caught by exact comparison.
Enumeration is capped at total arity 7.  The Stirling numbers S(n, k) are
counted too, in one cached walk per n, never by the recurrence they are
checked against.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from .bisymseries import BiSymSeries
from .fixtures import SeriesFixture
from .partitions import gen_partitions, z_of
from .pipeline import stability_ok
from .uvpoly import UVPoly

ENUMERATION_CAP = 7


@lru_cache(maxsize=None)
def block_counts(n: int) -> tuple:
    """Set partitions of an n-set tallied by number of blocks: entry k is S(n, k).

    One walk over the restricted-growth strings of length n (Knuth, TAOCP 4A
    7.2.1.5) that tracks only how many blocks are open; each complete string
    adds one to its tally, so every partition is visited and counted once.
    """
    if not 0 <= n <= 12:
        raise ValueError(f"enumeration covers 0 <= n <= 12, not n = {n}")
    tally = [0] * (n + 1)

    def walk(length, blocks):
        if length == n:
            tally[blocks] += 1
            return
        for _ in range(blocks):  # the next element joins an open block
            walk(length + 1, blocks)
        walk(length + 1, blocks + 1)  # or opens a new one

    walk(0, 0)
    return tuple(tally)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Number of set partitions of an n-set into k blocks, by enumeration: read from
    `block_counts(n)`, one walk per n, cached, and independent of the recurrence."""
    if k < 0:
        raise ValueError("arguments must be nonnegative")
    counts = block_counts(n)
    return counts[k] if k <= n else 0


def stirling2_recurrence(n: int, k: int) -> int:
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2_recurrence(n - 1, k) + stirling2_recurrence(n - 1, k - 1)


def cycle_type(perm: tuple) -> tuple:
    """Cycle type of a permutation given in one-line notation on 1..n."""
    n = len(perm)
    seen = [False] * (n + 1)
    lengths = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x - 1]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def representative_of_type(mu: tuple) -> tuple:
    """A canonical permutation of cycle type mu, in one-line notation."""
    out = []
    start = 1
    for part in mu:
        cyc = list(range(start, start + part))
        for i, x in enumerate(cyc):
            out.append(cyc[(i + 1) % part])
        start += part
    return tuple(out)


@lru_cache(maxsize=None)
def _block_permutation_counts(tau: tuple, j: int) -> tuple:
    """The pairs (pi, number of ordered partitions (B_1..B_j) with tau(B_i) = B_{pi(i)}).

    Every surjective coloring determines its pi uniquely (pi(c(x)) = c(tau(x))
    must be well defined), so the sum over pi is organized by coloring.
    """
    n = len(tau)
    counts: dict = {}
    for assignment in product(range(1, j + 1), repeat=n):
        if len(set(assignment)) != j:
            continue
        pi = [0] * j
        ok = True
        for x in range(n):
            src = assignment[x]
            dst = assignment[tau[x] - 1]
            if pi[src - 1] == 0:
                pi[src - 1] = dst
            elif pi[src - 1] != dst:
                ok = False
                break
        if ok:
            key = tuple(pi)
            counts[key] = counts.get(key, 0) + 1
    return tuple(counts.items())


def oracle_open_ch(m: int, n: int, fixture: SeriesFixture) -> BiSymSeries:
    """Arity-(m, n) open heavy/light component computed without plethysm.

    For each class pair (type of sigma on the heavy markings, explicit tau on
    the light ones) and each number j of distinct light positions, averages
    over pi in S_j the count of ordered block decompositions compatible with
    (tau, pi), times the trace of (sigma, pi) on the arity-(m+j) term of the
    input series.
    """
    if m + n > ENUMERATION_CAP:
        raise ValueError(f"oracle enumeration capped at total arity {ENUMERATION_CAP}")
    needed = range(m + (1 if n else 0), m + n + 1)
    for arity in needed:
        if arity > fixture.trunc:
            raise ValueError(f"fixture truncation {fixture.trunc} lacks arity {arity}")
    trunc = m + n
    if not stability_ok(fixture.genus, m, n):
        return BiSymSeries.zero(trunc)
    out: dict = {}
    for lam in gen_partitions(m):
        for mu in gen_partitions(n):
            tau = representative_of_type(mu)
            if n == 0:
                trace = fixture.data.trace_from_ch(lam)
            else:
                trace = UVPoly.zero()
                for j in range(1, n + 1):
                    acc = UVPoly.zero()
                    for pi, cnt in _block_permutation_counts(tau, j):
                        joint = tuple(
                            sorted(lam + cycle_type(pi), reverse=True)
                        )
                        tr = fixture.data.trace_from_ch(joint)
                        acc = acc + tr * cnt
                    trace = trace + acc * Fraction(1, factorial(j))
            out[(lam, mu)] = trace * Fraction(1, z_of(lam) * z_of(mu))
    return BiSymSeries(out, trunc)


def oracle_compare(fixture: SeriesFixture, open_result, max_arity: int) -> list:
    """Compare oracle_open_ch against the pipeline per (m, n); returns rows
    (m, n, ok) for every pair with m + n <= max_arity."""
    rows = []
    for total in range(max_arity + 1):
        for m in range(total + 1):
            n = total - m
            if m + n == 0:
                continue
            expected = open_result.component(m, n)
            got = oracle_open_ch(m, n, fixture)
            ok = got == expected
            rows.append((m, n, ok))
    return rows
