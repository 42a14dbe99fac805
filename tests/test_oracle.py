from collections import Counter

import pytest

from heavylight import oracle
from heavylight.bisymseries import BiSymSeries
from heavylight.fixtures import load_fixture
from heavylight.oracle import (
    ENUMERATION_CAP,
    _set_partitions,
    block_counts,
    cycle_type,
    oracle_compare,
    oracle_open_ch,
    representative_of_type,
    stirling2,
    stirling2_recurrence,
)
from heavylight.pipeline import Refused, open_series
from heavylight.uvpoly import UVPoly


def test_set_partitions_bell_numbers():
    bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]
    for n, b in enumerate(bell):
        assert sum(block_counts(n)) == b
    # the oracle's restricted growth strings, tallied by number of blocks, agree
    for n in range(ENUMERATION_CAP + 1):
        strings = _set_partitions(n)
        assert len(set(strings)) == len(strings)
        assert tuple(Counter(len(set(s)) for s in strings)[k] for k in range(n + 1)) == block_counts(n)


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
        got = oracle_open_ch(m, 0, smooth1)
        want = BiSymSeries.inject(smooth1.data.arity_part(m), 1).truncate(m)
        assert got == want


def test_oracle_matches_pipeline_genus0():
    # 11 of the 20 (m, n) pairs are unstable in genus 0, m + min(n, 1) <= 2, and get no row
    smooth0 = load_fixture("genus0_smooth")
    rows = oracle_compare(smooth0, open_series(smooth0, trunc=5), 5)
    assert len(rows) == 9 and all(ok for _, _, ok in rows)


@pytest.mark.parametrize("name", ["genus0_smooth", "genus1_smooth", "genus2_smooth_weight0"])
def test_oracle_compare_rows_the_stable_cells_only(name):
    # a cell where the oracle and the pipeline are both zero by stability is no check;
    # genus 0 has no stable cell to total arity 2, genus 1 and 2 have no unstable one
    fx = load_fixture(name)
    refused = []
    for max_arity in range(1, 4):
        stable = [(m, t - m) for t in range(1, max_arity + 1) for m in range(t + 1)
                  if 2 * fx.genus - 2 + m + min(t - m, 1) > 0]
        try:
            rows = oracle_compare(fx, open_series(fx, trunc=max_arity), max_arity)
        except Refused as exc:
            assert str(exc) == f"no stable (m, n) in genus {fx.genus} up to total arity {max_arity}"
            refused.append(max_arity)
            continue
        assert [(m, n) for m, n, ok in rows if ok] == stable
    assert refused == ([1, 2] if fx.genus == 0 else [])


def test_oracle_matches_pipeline_genus2_weight0():
    # the oracle's agreement up to arity 5 is a row of `hl verify`; here, one known entry
    got = oracle_open_ch(0, 2, load_fixture("genus2_smooth_weight0"))
    assert got.to_schur_pairs() == {((), (2,)): UVPoly.const(-1)}


def test_oracle_cap(monkeypatch):
    smooth1 = load_fixture("genus1_smooth")
    with pytest.raises(ValueError, match="^oracle enumeration capped at total arity 7$"):
        oracle_open_ch(4, 4, smooth1)
    with pytest.raises(ValueError, match="^fixture truncation 6 lacks arity 7$"):
        oracle_open_ch(3, 4, smooth1)
    # oracle_compare refuses a comparison beyond the cap before it enumerates anything
    monkeypatch.setattr(oracle, "oracle_open_ch", lambda m, n, fx: pytest.fail(f"enumerated {m, n}"))
    with pytest.raises(Refused, match="^the oracle enumerates up to total arity 7$"):
        oracle_compare(smooth1, None, 8)


def test_oracle_input_agnostic_identity():
    # the stratification identity is linear in the input series: it holds
    # for the stable genus-1 fixture fed through the open pipeline as well,
    # on every cell up to the enumeration cap
    stable1 = load_fixture("genus1_stable")
    res = open_series(stable1._replace(variant="open", data=stable1.data.truncate(ENUMERATION_CAP)))
    for m in range(ENUMERATION_CAP + 1):
        for n in range(ENUMERATION_CAP + 1 - m):
            got = oracle_open_ch(m, n, stable1)
            assert got == res.component(m, n)
