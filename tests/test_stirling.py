"""Stirling table, harmonic numbers, and the inequality checks."""

import math
from fractions import Fraction
from itertools import permutations, product

import pytest

from nekrasov import stirling
from nekrasov.analysis import is_log_concave
from nekrasov.cli import _checks_stirling
from nekrasov.partitions import enumerate_partitions, multiplicities
from nekrasov.stirling import (
    TABLE_LIMIT,
    PreconditionError,
    constrained_stirling_sum,
    DescentResult,
    ModeResult,
    descent_check,
    descent_threshold,
    harmonic,
    mode_bound_check,
    q_coeff_numerators,
    q_coeffs,
    ratio_decay_start,
    sibuya_check,
    sibuya_holds,
    stirling_ratio_decay_check,
    stirling_rows,
    stirling_unsigned,
)


def rising_factorial_coeffs(n):
    """Coefficients of t(t+1)...(t+n-1), multiplied out directly."""
    poly = [1]
    for i in range(n):
        shifted = [0] + poly
        poly = [shifted[j] + (i * poly[j] if j < len(poly) else 0) for j in range(len(shifted))]
    return poly


def ref_constrained_sum(k_vec, total):
    acc = 0
    for combo in product(*(range(k + 1) for k in k_vec)):
        if sum(combo) == total:
            term = 1
            for k, l in zip(k_vec, combo):
                term *= stirling_unsigned(k + 1, l + 1)
            acc += term
    return acc


def old_q_coeff_numerators(k_vec):
    """The per-entry product kernel: one stirling_unsigned call per row entry, full degree."""
    coeffs, denom = [1], 1
    for k in (k for k in k_vec if k > 0):
        row = [stirling_unsigned(k + 1, l + 1) for l in range(k + 1)]
        new = [0] * (len(coeffs) + k)
        for i, a in enumerate(coeffs):
            for l, b in enumerate(row):
                new[i + l] += a * b
        coeffs = new
        denom *= math.factorial(k)
    return coeffs, denom


def old_constrained_sum(k_vec, total):
    """The per-entry DP over (factor index, running total), capped at total."""
    if total < 0:
        return 0
    dp = [1] + [0] * total
    for k in (k for k in k_vec if k > 0):
        row = [stirling_unsigned(k + 1, l + 1) for l in range(k + 1)]
        new = [0] * (total + 1)
        for s, acc in enumerate(dp):
            for l, b in enumerate(row):
                if s + l > total:
                    break
                new[s + l] += acc * b
        dp = new
    return dp[total]


def per_partition_results(n_max):
    """The stirling suite's partition checks as first written, the oracle for its
    deduplicated loop: every partition, two DPs for the descent, and mode and
    log-concavity on the Fraction coefficients.  Yields (n, k_vec, s, lhs, rhs,
    mode, first log-concavity violation)."""
    for n in range(2, min(max(n_max, 2), 18) + 1):
        for p in enumerate_partitions(n):
            k_vec = list(multiplicities(p).values())
            s, r = descent_threshold(k_vec, n)
            nums, denom = old_q_coeff_numerators(k_vec)
            coeffs = [Fraction(c, denom) for c in nums]
            mode = max(range(len(coeffs)), key=lambda i: (coeffs[i], -i))
            yield (n, k_vec, s, old_constrained_sum(k_vec, s),
                   old_constrained_sum(k_vec, s - r), mode, is_log_concave(coeffs))


def test_stirling_examples():
    assert stirling_unsigned(4, 2) == 11
    assert stirling_unsigned(5, 1) == 24
    for n in range(10):
        assert stirling_unsigned(n, n) == 1
    for n in range(1, 10):
        assert stirling_unsigned(n, 0) == 0
        assert stirling_unsigned(n, 1) == math.factorial(n - 1)


def test_stirling_bad_indices():
    with pytest.raises(ValueError):
        stirling_unsigned(3, 4)
    with pytest.raises(ValueError):
        stirling_unsigned(-1, 0)


def test_stirling_matches_rising_factorial():
    for n in range(26):
        poly = rising_factorial_coeffs(n)
        for m in range(n + 1):
            assert stirling_unsigned(n, m) == poly[m]


def test_row_sums():
    for n in range(61):
        assert sum(stirling_unsigned(n, m) for m in range(n + 1)) == math.factorial(n)


def test_stirling_table_type():
    rows = stirling_rows(6)
    assert [len(row) for row in rows] == list(range(1, 8))
    assert rows[4][2] == 11
    assert stirling_rows(8)[8][8] == 1


def test_stirling_rows_are_copies():
    # changing what stirling_rows returns changes no later read of the shared table
    rows = stirling_rows(5)
    rows[4][2] = 0
    rows[5].append(7)
    rows.append([1])
    assert stirling_unsigned(4, 2) == 11
    assert stirling_rows(5) == [[1], [0, 1], [0, 1, 1], [0, 2, 3, 1], [0, 6, 11, 6, 1], [0, 24, 50, 35, 10, 1]]


def test_harmonic():
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(30) == sum(Fraction(1, i) for i in range(1, 31))
    with pytest.raises(ValueError):
        harmonic(0)


def test_sibuya_equality_case():
    res = sibuya_check(4, 2)
    assert res.holds
    assert res.ratio == Fraction(11, 6)
    assert res.refined_bound == Fraction(11, 6)


def test_sibuya_boundary_case():
    res = sibuya_check(2, 2)
    assert res.holds
    assert res.ratio == 1
    assert res.harmonic_bound == 1


def test_sibuya_diagonal():
    for n in range(2, 51):
        assert sibuya_check(n, n).holds


def test_sibuya_small_sweep():
    for n in range(2, 61):
        for m in range(2, n + 1):
            assert sibuya_check(n, m).holds


def test_sibuya_precondition():
    with pytest.raises(ValueError):
        sibuya_check(4, 1)
    for n, m in ((4, 1), (1, 1), (3, 4)):
        with pytest.raises(ValueError):
            sibuya_holds(n, m)


def test_sibuya_holds_equals_the_fraction_chain():
    for n in range(2, 151):
        for m in range(2, n + 1):
            res = sibuya_check(n, m)
            verdict = res.ratio <= res.refined_bound <= res.harmonic_bound
            assert sibuya_holds(n, m) is res.holds is verdict, (n, m)


def test_sibuya_holds_fails_a_ratio_above_the_bound(monkeypatch):
    # (4, 2) is the equality case: one more in [4 2] must break it
    from nekrasov import stirling

    real = stirling.stirling_unsigned
    monkeypatch.setattr(
        stirling, "stirling_unsigned", lambda n, m: real(n, m) + ((n, m) == (4, 2))
    )
    assert not sibuya_holds(4, 2)
    res = sibuya_check(4, 2)
    assert not res.holds and res.ratio > res.refined_bound
    assert sibuya_holds(5, 2) and sibuya_holds(4, 3)


def test_ratio_decay_trivial_t0():
    # any m meeting the harmonic precondition gives ratio 1 <= 1 at t=0
    assert stirling_ratio_decay_check(20, 9, 0)


def test_ratio_decay_examples():
    assert stirling_ratio_decay_check(20, 9, 3)
    assert stirling_ratio_decay_check(50, 11, 5)


def test_ratio_decay_sweep():
    for n in range(2, 61):
        bound = 2 * harmonic(n) + 1
        for m in range(1, n + 1):
            if Fraction(m) < bound:
                continue
            for t in range(0, n - m + 1):
                assert stirling_ratio_decay_check(n, m, t)


def test_ratio_decay_precondition_matches_fraction_predicate():
    for n in range(1, 61):
        start = ratio_decay_start(n)
        for m in range(1, n + 4):
            below = Fraction(m) < 2 * harmonic(n) + 1
            assert (m < start) == below
            if m <= n:
                if below:
                    with pytest.raises(PreconditionError):
                        stirling_ratio_decay_check(n, m, 0)
                else:
                    assert stirling_ratio_decay_check(n, m, 0)
    # 2 H_1 + 1 = 3 is an integer; m = 3 meets m >= 2 H_1 + 1
    assert ratio_decay_start(1) == 3


def test_ratio_decay_error_kinds():
    # harmonic precondition reported distinctly from index errors
    with pytest.raises(PreconditionError):
        stirling_ratio_decay_check(20, 5, 2)  # 5 < 2*H_20 + 1
    with pytest.raises(ValueError) as info:
        stirling_ratio_decay_check(20, 15, 10)  # m + t > n
    assert not isinstance(info.value, PreconditionError)


def test_q_coeffs_examples():
    assert q_coeffs([1]) == [1, 1]
    assert q_coeffs([2]) == [1, Fraction(3, 2), Fraction(1, 2)]
    # zero multiplicities contribute the factor 1
    assert q_coeffs([0, 2, 0]) == q_coeffs([2])


def test_q_coeff_numerators_example():
    # binom(2+z, 2) binom(1+z, 1) = (z+1)(z+2)(z+1)/2
    assert q_coeff_numerators([2, 1]) == ([2, 5, 4, 1], 2)
    assert q_coeff_numerators([]) == ([1], 1)


def test_q_coeffs_sum_over_partitions_of_3():
    total = [Fraction(0)] * 4
    for p in enumerate_partitions(3):
        for i, c in enumerate(q_coeffs(multiplicities(p).values())):
            total[i] += c
    assert total == [3, Fraction(29, 6), 2, Fraction(1, 6)]


def test_q_coeffs_symbolic_oracle():
    # direct expansion of prod (z+1)...(z+k)/k!
    for k_vec in ([1, 1], [2, 1], [3], [2, 2], [4, 1], [1, 1, 1, 1]):
        poly = [Fraction(1)]
        for k in k_vec:
            for shift in range(1, k + 1):
                poly = [Fraction(0)] + poly
                poly = [
                    poly[j] + (shift * poly[j + 1] if j + 1 < len(poly) else 0)
                    for j in range(len(poly))
                ]
            poly = [c / math.factorial(k) for c in poly]
        # trim trailing zeros from the prepend-based expansion
        while len(poly) > 1 and poly[-1] == 0:
            poly.pop()
        assert q_coeffs(k_vec) == poly


def test_constrained_sum_against_enumeration():
    cases = [([3, 2], 4), ([2, 2, 2], 3), ([5], 4), ([4, 3, 1], 6), ([1] * 8, 5)]
    for k_vec, total in cases:
        assert constrained_stirling_sum(k_vec, total) == ref_constrained_sum(k_vec, total)
    for n in range(2, 8):
        for p in enumerate_partitions(n):
            k_vec = list(multiplicities(p).values())
            for total in range(sum(k_vec) + 2):
                assert constrained_stirling_sum(k_vec, total) == ref_constrained_sum(k_vec, total)


def test_descent_check_empty_sum_case():
    res = descent_check([4], 4)
    assert res.s == 9 and res.lhs == 0 and res.holds


def test_descent_check_single_block():
    res = descent_check([30], 30)
    assert (res.s, res.r) == (14, 5)
    assert res.lhs == stirling_unsigned(31, 15)
    assert res.rhs == stirling_unsigned(31, 10)
    assert res.holds


def test_descent_check_all_partitions_of_12():
    for p in enumerate_partitions(12):
        assert descent_check(multiplicities(p).values(), 12).holds


def test_descent_threshold_values():
    s, r = descent_threshold([1, 1, 1, 1], 4)
    assert r == 2
    assert s == 4 * (2 * 1 + r + 1)  # H_1 = 1 so ceil is 1


def test_mode_bound_examples():
    res = mode_bound_check([1], 2)
    assert res.mode == 0 and res.holds
    res = mode_bound_check([20], 20)
    assert res.holds
    coeffs = q_coeffs([20])
    assert coeffs[res.mode] == max(coeffs)


def test_mode_bound_all_partitions_of_15():
    for p in enumerate_partitions(15):
        assert mode_bound_check(multiplicities(p).values(), 15).holds


def test_q_coeffs_log_concave_small():
    from nekrasov.analysis import is_log_concave, is_unimodal

    for n in range(1, 13):
        for p in enumerate_partitions(n):
            coeffs = q_coeffs(multiplicities(p).values())
            assert is_log_concave(coeffs) is None
            assert is_unimodal(coeffs)[0]


def test_table_size_limits():
    held = len(stirling._rows)
    for n_max in (-1, TABLE_LIMIT + 1):
        with pytest.raises(ValueError, match=f"n_max={n_max} is outside the Stirling range 0..{TABLE_LIMIT}"):
            stirling_rows(n_max)
    with pytest.raises(ValueError):
        stirling_unsigned(TABLE_LIMIT + 1, 1)
    assert len(stirling._rows) == held  # a refusal grows no row


def test_sliced_kernels_match_per_entry_kernels():
    for n in range(0, 13):
        for p in enumerate_partitions(n):
            k_vec = list(multiplicities(p).values()) + [0]
            assert q_coeff_numerators(k_vec) == old_q_coeff_numerators(k_vec)
            for total in range(-1, sum(k_vec) + 3):
                assert constrained_stirling_sum(k_vec, total) == old_constrained_sum(k_vec, total)


def test_partition_checks_match_per_partition_oracle():
    for n, k_vec, s, lhs, rhs, mode, violation in per_partition_results(18):
        key = tuple(sorted(k_vec))
        assert descent_check(key, n) == descent_check(k_vec, n)
        assert descent_check(key, n) == DescentResult(
            s, (n - 1).bit_length(), lhs, rhs, lhs <= rhs
        )
        assert mode_bound_check(key, n) == ModeResult(mode, s, mode <= s)
        assert is_log_concave(q_coeff_numerators(key)[0]) == violation


@pytest.mark.parametrize("n_max", [2, 5, 12, 18])
def test_deduplicated_suite_verdicts_match_oracle(n_max):
    descent = mode = logconcave = True
    for n, k_vec, s, lhs, rhs, mode_at, violation in per_partition_results(n_max):
        descent = descent and lhs <= rhs
        mode = mode and mode_at <= s
        logconcave = logconcave and violation is None
    assert _checks_stirling(n_max)[-3:] == [
        ("constrained-sum-descent", descent),
        ("mode-below-threshold", mode),
        ("binomial-product-log-concave", logconcave),
    ]


def test_checks_ignore_the_order_of_multiplicities():
    for n in range(2, 11):
        for p in enumerate_partitions(n):
            k_vec = list(multiplicities(p).values())
            ref = (descent_check(k_vec, n), mode_bound_check(k_vec, n), q_coeff_numerators(k_vec))
            for perm in set(permutations(k_vec)):
                assert (
                    descent_check(perm, n), mode_bound_check(perm, n), q_coeff_numerators(perm)
                ) == ref


def test_product_memo_matches_per_partition_oracle_cold_and_warm(monkeypatch):
    monkeypatch.setattr(stirling, "_products", {(): [1]})
    monkeypatch.setattr(stirling, "_ceil_harmonic", {})
    cases = list(per_partition_results(18))
    for _ in ("cold", "warm"):
        for n, k_vec, s, lhs, rhs, mode, violation in cases:
            r = (n - 1).bit_length()
            assert descent_check(k_vec, n) == DescentResult(s, r, lhs, rhs, lhs <= rhs)
            assert mode_bound_check(k_vec, n) == ModeResult(mode, s, mode <= s)
            assert constrained_stirling_sum(k_vec, s) == lhs
            assert q_coeff_numerators(k_vec) == old_q_coeff_numerators(k_vec)
            assert is_log_concave(q_coeff_numerators(k_vec)[0]) == violation


def test_product_memo_is_keyed_by_the_multiset(monkeypatch):
    monkeypatch.setattr(stirling, "_products", {(): [1]})
    ref = old_q_coeff_numerators([3, 1, 2])
    for perm in permutations([0, 3, 1, 2]):
        assert q_coeff_numerators(perm) == ref
    # built once, through the prefixes that drop the largest count
    assert set(stirling._products) == {(), (1,), (1, 2), (1, 2, 3)}


def test_returned_products_are_fresh_lists():
    nums, _ = q_coeff_numerators([2, 1])
    nums[0] = 99
    nums.append(7)
    assert q_coeff_numerators([1, 2]) == ([2, 5, 4, 1], 2)
    assert constrained_stirling_sum([2, 1], 0) == 2
    assert q_coeffs([2, 1]) == [1, Fraction(5, 2), 2, Fraction(1, 2)]


def test_cold_suite_builds_one_product_per_multiset(monkeypatch):
    # each entry past the empty key is one row product; the 604 (n, multiset)
    # pairs of n <= 18 share 143 multisets, closed under dropping the largest count
    monkeypatch.setattr(stirling, "_products", {(): [1]})
    _checks_stirling(40)
    keys = {
        tuple(sorted(multiplicities(p).values()))
        for n in range(2, 19) for p in enumerate_partitions(n)
    }
    assert len(keys) == 143
    assert set(stirling._products) == keys | {()}
