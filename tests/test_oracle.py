from math import factorial

import pytest

from heavylight.bisymseries import BiSymSeries
from heavylight.fixtures import load_fixture
from heavylight.oracle import (
    block_counts,
    cycle_type,
    oracle_compare,
    oracle_open_ch,
    representative_of_type,
    stirling2,
    stirling2_recurrence,
)
from heavylight.pipeline import open_series, open_series_numeric
from heavylight.symseries import SymSeries
from heavylight.uvpoly import UVPoly


def test_set_partitions_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
    for n, b in enumerate(bell):
        assert sum(block_counts(n)) == b


def test_stirling2():
    for n in range(1, 13):
        assert stirling2(n, n) == 1
        assert stirling2(n, 1) == 1
    assert stirling2(4, 2) == 7
    for n in range(13):
        for k in range(n + 2):
            assert stirling2(n, k) == stirling2_recurrence(n, k)
    for n, k in ((13, 2), (-1, 0), (2, -1)):
        with pytest.raises(ValueError):
            stirling2(n, k)


def test_cycle_type_and_representative():
    assert cycle_type((2, 1, 3)) == (2, 1)
    for mu in [(3, 2, 1), (4,), (1, 1, 1)]:
        assert cycle_type(representative_of_type(mu)) == mu


def test_oracle_heavy_only_is_injection():
    smooth1 = load_fixture("genus1_smooth")
    for m in range(1, 5):
        got = oracle_open_ch(1, m, 0, smooth1)
        want = BiSymSeries.inject(smooth1.data.arity_part(m), 1).truncate(m)
        assert got == want


def test_oracle_matches_pipeline_genus1():
    smooth1 = load_fixture("genus1_smooth")
    res = open_series(smooth1, trunc=5)
    rows = oracle_compare(1, smooth1, res, 5)
    assert rows and all(ok for _, _, ok in rows)


def test_oracle_matches_pipeline_genus0():
    # 11 of the 20 (m, n) pairs are unstable in genus 0: m + min(n, 1) <= 2.
    smooth0 = load_fixture("genus0_smooth")
    rows = oracle_compare(0, smooth0, open_series(smooth0, trunc=5), 5)
    assert len(rows) == 20 and all(ok for _, _, ok in rows)


def test_oracle_matches_pipeline_genus2_weight0():
    w0 = load_fixture("genus2_smooth_weight0")
    res = open_series(w0, trunc=5)
    rows = oracle_compare(2, w0, res, 5)
    assert rows and all(ok for _, _, ok in rows)
    got = oracle_open_ch(2, 0, 2, w0)
    assert got.to_schur_pairs() == {((), (2,)): UVPoly.const(-1)}


def test_oracle_cap():
    smooth1 = load_fixture("genus1_smooth")
    with pytest.raises(ValueError):
        oracle_open_ch(1, 4, 4, smooth1)


def stirling_rank_check(
    g: int, m: int, n: int, numeric_open, numeric_smooth: dict
) -> bool:
    """Check the multiset-of-markings class identity at the numeric level.

    `numeric_open` is the bivariate numeric open series; `numeric_smooth`
    maps arity k to the numeric polynomial of the smooth space with k
    markings.  Verifies that the (m,n) value equals
    sum_k S(n,k) * numeric_smooth[m+k].
    """
    val = numeric_open[(m, n)] * (factorial(m) * factorial(n))
    if n == 0:
        expected = numeric_smooth.get(m, UVPoly.zero())
    else:
        expected = UVPoly.zero()
        for k in range(1, n + 1):
            s = stirling2(n, k)
            if s and (m + k) in numeric_smooth:
                expected = expected + numeric_smooth[m + k] * s
    return val == expected


def test_stirling_rank_check():
    smooth1 = load_fixture("genus1_smooth")
    b = smooth1.data.rank1("x")
    numeric_smooth = {k: b[k] * factorial(k) for k in range(1, smooth1.trunc + 1)}
    table = open_series_numeric(b, smooth1.trunc)
    # n = 1 reduces to the next smooth value
    assert stirling_rank_check(1, 2, 1, table, numeric_smooth)
    assert table[(2, 1)] * (factorial(2) * factorial(1)) == numeric_smooth[3]
    # weight-zero genus-1 instance with several blocks
    assert stirling_rank_check(1, 1, 3, table, numeric_smooth)
    for m in range(4):
        for n in range(0, 5 - m):
            assert stirling_rank_check(1, m, n, table, numeric_smooth)




def test_oracle_input_agnostic_identity():
    # the stratification identity is linear in the input series: it holds
    # for the stable genus-1 fixture fed through the open pipeline as well
    stable1 = load_fixture("genus1_stable")
    res = open_series(
        type(stable1)(
            name=stable1.name,
            genus=1,
            variant="open",
            trunc=5,
            data=stable1.data.truncate(5),
        )
    )
    for m in range(3):
        for n in range(3 - m):
            got = oracle_open_ch(1, m, n, stable1)
            assert got == res.component(m, n)
