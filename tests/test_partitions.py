"""Partition enumeration, hooks, and counting against brute-force oracles."""

from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest

from nekrasov.partitions import (
    Partition,
    enumerate_partitions,
    hook_lengths,
    multiplicities,
    partition_count,
    trivial_leg_hooks,
)


def ref_partitions(n, max_part=None):
    """Independent recursive enumeration (parts bounded above)."""
    if max_part is None:
        max_part = n
    if n == 0:
        return [()]
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in ref_partitions(n - first, first):
            out.append((first,) + rest)
    return out


def ref_hooks(parts):
    """Hook lengths straight from the cell grid: count arm and leg cells."""
    cells = {(i, j) for i, row in enumerate(parts) for j in range(row)}
    hooks = []
    for (i, j) in cells:
        arm = sum(1 for jj in range(j + 1, parts[i]) if (i, jj) in cells)
        leg = sum(1 for ii in range(i + 1, len(parts)) if (ii, j) in cells)
        hooks.append(arm + leg + 1)
    return Counter(hooks)


def test_partition_validation():
    for bad in ([1, 2], [2, 0], [3, 0, 1], [-1], [1, 1, 2], (2, 3)):
        with pytest.raises(ValueError):
            Partition(bad)
    assert Partition([3, 1]).n == 4
    assert Partition(()).n == 0


def test_unchecked_partitions_equal_checked_ones():
    # enumerate_partitions and conjugate skip the checks that Partition(...) makes
    for n in range(12):
        for p in enumerate_partitions(n):
            for q in (p, p.conjugate()):
                assert q == Partition(q.parts) and q.n == n and type(q.parts) is tuple


def test_enumeration_trivial_cases():
    assert [p.parts for p in enumerate_partitions(0)] == [()]
    assert [p.parts for p in enumerate_partitions(1)] == [(1,)]


def test_enumeration_order_n4():
    got = [p.parts for p in enumerate_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize("n", range(13))
def test_enumeration_matches_reference(n):
    got = [p.parts for p in enumerate_partitions(n)]
    ref = ref_partitions(n)
    assert len(got) == len(set(got)) == len(ref)
    assert set(got) == set(ref)
    # reverse-lexicographic: each partition precedes lexicographically smaller ones
    assert got == sorted(got, reverse=True)


def test_partition_count_small():
    assert partition_count(0) == 1
    assert partition_count(5) == 7 == len(list(enumerate_partitions(5)))


def test_partition_count_regression_25():
    # value frozen from the enumeration oracle
    assert partition_count(25) == 1958
    assert sum(1 for _ in enumerate_partitions(25)) == 1958


def test_enumeration_count_agreement_to_30():
    for n in range(31):
        assert sum(1 for _ in enumerate_partitions(n)) == partition_count(n)


def test_partition_count_strictly_increasing():
    values = [partition_count(n) for n in range(1, 400)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_partition_count_tail_log_concave():
    # p(n) for 25 <= n <= 1000, exact cross-multiplication
    p = [partition_count(n) for n in range(25, 1001)]
    assert all(p[i] * p[i] >= p[i - 1] * p[i + 1] for i in range(1, len(p) - 1))


def test_partition_count_thread_reads():
    partition_count(200)  # warm-up
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = list(pool.map(partition_count, range(201)))
    assert got == [partition_count(n) for n in range(201)]


def test_hooks_single_row_and_column():
    assert sorted(hook_lengths(Partition([5]))) == [1, 2, 3, 4, 5]
    assert sorted(hook_lengths(Partition([1, 1, 1]))) == [1, 2, 3]


def test_hooks_hand_case():
    assert Counter(hook_lengths(Partition([2, 1]))) == Counter({3: 1, 1: 2})


@pytest.mark.parametrize("n", range(11))
def test_hooks_match_grid_oracle(n):
    for p in enumerate_partitions(n):
        assert Counter(hook_lengths(p)) == ref_hooks(p.parts)
        assert len(hook_lengths(p)) == n


def test_hooks_conjugate_invariant():
    # the identity behind the weight 2 of darcais._hook_walk, which walks only
    # the partitions with lambda_1 >= l(lambda)
    for n in range(21):
        for p in enumerate_partitions(n):
            assert Counter(hook_lengths(p)) == Counter(hook_lengths(p.conjugate()))


def test_trivial_leg_hooks_examples():
    assert trivial_leg_hooks(Partition([1])) == [1]
    assert sorted(trivial_leg_hooks(Partition([2]))) == [1, 2]
    assert sorted(trivial_leg_hooks(Partition([2, 1]))) == [1, 1]
    # single row: trivial-leg hooks are the full hook multiset
    assert sorted(trivial_leg_hooks(Partition([6]))) == sorted(hook_lengths(Partition([6])))


def test_trivial_leg_hooks_submultiset_and_count():
    for n in range(13):
        for p in enumerate_partitions(n):
            full = Counter(hook_lengths(p))
            triv = Counter(trivial_leg_hooks(p))
            assert all(triv[h] <= full[h] for h in triv)
            expected = p.parts[0] if p.parts else 0
            assert sum(triv.values()) == expected


def test_trivial_leg_oracle():
    # grid oracle: a cell has leg 0 iff no cell below it
    for n in range(11):
        for p in enumerate_partitions(n):
            parts = p.parts
            hooks = []
            for i, row in enumerate(parts):
                for j in range(row):
                    below = i + 1 < len(parts) and parts[i + 1] > j
                    if not below:
                        hooks.append(row - j)
            assert sorted(hooks) == sorted(trivial_leg_hooks(p))


def test_multiplicities_examples():
    m = multiplicities(Partition([2, 1]))
    assert m == {2: 1, 1: 1}
    assert multiplicities(Partition([1, 1, 1, 1])) == {1: 4}
    m = multiplicities(Partition([3, 3, 1]))
    assert m.get(1, 0) == 1 and m.get(2, 0) == 0 and m.get(3, 0) == 2


def test_multiplicities_weight_identity():
    for n in range(16):
        for p in enumerate_partitions(n):
            assert sum(j * k for j, k in multiplicities(p).items()) == n


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))
    with pytest.raises(ValueError):
        partition_count(-1)
