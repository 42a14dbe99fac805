from math import factorial

import pytest

from heavylight.partitions import (
    format_partition,
    gen_partitions,
    mn_character,
    parse_partition,
    partition,
    union,
    z_of,
)


def brute_force_partitions(n):
    """Independent oracle: enumerate weakly decreasing positive sums."""
    if n == 0:
        return [()]
    out = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            out.append(prefix)
            return
        for k in range(min(cap, remaining), 0, -1):
            rec(remaining - k, k, prefix + (k,))

    rec(n, n, ())
    return out


def count_syt(shape):
    """Independent oracle: count standard Young tableaux by backtracking."""
    n = sum(shape)
    rows = [0] * len(shape)

    def rec(step):
        if step == n:
            return 1
        total = 0
        for i, filled in enumerate(rows):
            if filled < shape[i] and (i == 0 or rows[i - 1] > filled):
                rows[i] += 1
                total += rec(step + 1)
                rows[i] -= 1
        return total

    return rec(0)


def test_gen_partitions_base_cases():
    assert gen_partitions(0) == ((),)
    assert gen_partitions(1) == ((1,),)


def test_gen_partitions_five_matches_brute_force():
    got = list(gen_partitions(5))
    assert len(got) == 7
    assert got == brute_force_partitions(5)
    for n in range(9):
        assert list(gen_partitions(n)) == brute_force_partitions(n)


def test_gen_partitions_order_is_lex_decreasing():
    parts = gen_partitions(6)
    assert list(parts) == sorted(parts, reverse=True)


def test_z_of():
    assert z_of(()) == 1
    assert z_of((1, 1, 1)) == 6
    # |class of a transposition in S_3| = 3, so z = 3!/3
    assert z_of((2, 1)) == 2


def test_mn_character_trivial_and_sign():
    for mu in gen_partitions(4):
        assert mn_character((4,), mu) == 1
    assert mn_character((1, 1, 1), (2, 1)) == -1


def test_mn_character_dimension_from_syt():
    assert mn_character((2, 1), (1, 1, 1)) == 2
    for n in range(1, 7):
        for lam in gen_partitions(n):
            assert mn_character(lam, (1,) * sum(lam)) == count_syt(lam)


def test_mn_character_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2,), (1, 1, 1))


def test_column_orthogonality_up_to_seven():
    for n in range(8):
        parts = gen_partitions(n)
        for mu in parts:
            for nu in parts:
                s = sum(mn_character(lam, mu) * mn_character(lam, nu) for lam in parts)
                assert s == (z_of(mu) if mu == nu else 0)


def test_dimension_positivity_and_sum_of_squares():
    for n in range(8):
        dims = [mn_character(lam, (1,) * n) for lam in gen_partitions(n)]
        assert all(d > 0 for d in dims)
        assert sum(d * d for d in dims) == factorial(n)


def test_union_and_serialization():
    assert union((2, 1), (3,)) == (3, 2, 1)
    assert format_partition((2, 1, 1)) == "[2,1,1]"
    assert format_partition(()) == "[]"
    assert parse_partition("[2,1,1]") == (2, 1, 1)
    assert parse_partition("[]") == ()
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        parse_partition("2,1")
