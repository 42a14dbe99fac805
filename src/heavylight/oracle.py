"""Independent small-arity verification by brute-force enumeration.

The pipeline computes heavy/light series through plethysm; this module
recomputes small components directly from the stratification of the smooth
locus by which light points coincide: one stratum M_{g,m+|P|} per set
partition P of the light markings, summed explicitly, so that any
systematic error in the plethysm machinery is caught by exact comparison.
Enumeration is capped at total arity 7.  The Stirling numbers S(n, k) are
counted too, in one cached walk per n, never by the recurrence they are
checked against.
"""

from fractions import Fraction
from functools import lru_cache

from .bisymseries import BiSymSeries
from .fixtures import SeriesFixture
from .partitions import gen_partitions, union, z_of
from .pipeline import Refused, stability_ok
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


def _set_partitions(n: int) -> list:
    """The set partitions of 1..n as restricted growth strings: entry x - 1 is
    the block of x, blocks numbered 0, 1, ... in order of their least element."""
    strings = [()]
    for _ in range(n):
        strings = [s + (b,) for s in strings for b in range(max(s, default=-1) + 2)]
    return strings


def _block_cycle_type(tau: tuple, blocks: tuple):
    """The cycle type of the permutation tau induces on the blocks of a set
    partition, or None when tau does not map blocks onto blocks."""
    image: dict = {}
    for x, b in enumerate(blocks):
        if image.setdefault(b, blocks[tau[x] - 1]) != blocks[tau[x] - 1]:
            return None
    return cycle_type(tuple(image[b] + 1 for b in range(len(image))))


def oracle_open_ch(m: int, n: int, fixture: SeriesFixture) -> BiSymSeries:
    """Arity-(m, n) open heavy/light component computed without plethysm.

    For each class pair (sigma of type lam on the heavy markings, explicit tau
    of type mu on the light ones), sums over the set partitions P of the light
    markings with tau(P) = P the trace of (sigma, the permutation tau induces
    on the blocks of P) on the arity-(m + |P|) term of the input series.
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
    strings = _set_partitions(n)
    out: dict = {}
    for lam in gen_partitions(m):
        for mu in gen_partitions(n):
            tau = representative_of_type(mu)
            trace = UVPoly.zero()
            for blocks in strings:
                nu = _block_cycle_type(tau, blocks)
                if nu is not None:
                    trace = trace + fixture.data.trace_from_ch(union(lam, nu))
            out[(lam, mu)] = trace * Fraction(1, z_of(lam) * z_of(mu))
    return BiSymSeries(out, trunc)


def oracle_compare(fixture: SeriesFixture, open_result, max_arity: int) -> list:
    """Compare oracle_open_ch against the pipeline per (m, n); returns rows
    (m, n, ok) for every stable pair with m + n <= max_arity (both sides are zero
    on an unstable one), and refuses, before enumerating anything, a max_arity
    beyond the enumeration cap or a range with no stable pair."""
    if max_arity > ENUMERATION_CAP:
        raise Refused(f"the oracle enumerates up to total arity {ENUMERATION_CAP}")
    cells = [(m, total - m) for total in range(1, max_arity + 1) for m in range(total + 1)
             if stability_ok(fixture.genus, m, total - m)]
    if not cells:
        raise Refused(f"no stable (m, n) in genus {fixture.genus} up to total arity {max_arity}")
    return [(m, n, oracle_open_ch(m, n, fixture) == open_result.component(m, n)) for m, n in cells]
