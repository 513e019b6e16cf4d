"""Diagnostics, scanners, ratio reports, and the surrogate sums."""

import math
import random
import tracemalloc
from fractions import Fraction
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekrasov import analysis, cli, series
from nekrasov.analysis import (
    SCAN_LIMIT,
    coefficient_c,
    hardy_ramanujan_ratio,
    is_log_concave,
    is_unimodal,
    partial_sum_ratio,
    scan_conjecture,
    shape_report,
    surrogate_binomial,
    surrogate_binomial_sequence,
    surrogate_truncated,
    surrogate_truncated_sequence,
    tail_monotone_from,
    tail_start,
)
from nekrasov.darcais import q_via_recursion
from nekrasov.partitions import partition_count
from nekrasov.series import (
    BallSeries,
    RationalSeries,
    _ld_available,
    _MIN_LIMBS_PER_MATMUL,
    _ROWS_PER_MATMUL,
    _ExactToeplitz,
    _PowerRow,
    _scaled_rule_base,
    custom_series,
    f_series,
    register_series_rule,
    series_multiply,
    series_power,
    sigma_minus1,
)


def test_is_log_concave_basics():
    assert is_log_concave([1, 2, 3]) is None
    assert is_log_concave([1, 1, 2]) == 1
    assert is_log_concave([5]) is None
    assert is_log_concave(q_via_recursion(3).coeffs) is None
    with pytest.raises(ValueError):
        is_log_concave([])


def test_is_log_concave_first_index():
    # violations at 1 and 3; the smallest interior index must be reported
    assert is_log_concave([1, 1, 2, 1, 9, 1]) == 1


def test_is_unimodal_basics():
    assert is_unimodal([1, 3, 2]) == (True, 1)
    assert is_unimodal([2, 1, 2])[0] is False
    assert is_unimodal([1, 3, 3, 2]) == (True, 1)
    assert is_unimodal([1]) == (True, 0)
    assert is_unimodal(q_via_recursion(10).coeffs)[0] is True


def test_tail_monotone_from():
    q50 = q_via_recursion(50).coeffs
    _, mode = is_unimodal(q50)
    assert tail_monotone_from(q50, mode)
    assert not tail_monotone_from([1, 2, 1, 2], 1)
    with pytest.raises(ValueError):
        tail_monotone_from([1, 2], 5)


def test_tail_start():
    assert tail_start([5, 4, 3]) == 0
    assert tail_start([1, 2, 3]) == 2
    assert tail_start([1, 3, 2, 1]) == 1


def test_scan_exact_k2():
    report = scan_conjecture(2, 100)
    assert report.n0 == 6
    assert report.certified and report.mode_of_certification == "exact"
    assert report.violations_checked == 5  # n = 2..6


def test_scan_exact_no_violation_below_6():
    report = scan_conjecture(2, 5)
    assert report.n0 is None
    assert report.certified


def test_scan_exact_holds_strictly_before_n0():
    c = [coefficient_c(n, 2) for n in range(8)]
    for n in range(2, 6):
        assert c[n] * c[n] >= c[n - 1] * c[n + 1]
    assert c[6] * c[6] < c[5] * c[7]


def test_scan_bad_arguments():
    with pytest.raises(ValueError):
        scan_conjecture(1, 100)
    with pytest.raises(ValueError):
        scan_conjecture(2, 2)
    with pytest.raises(ValueError):
        scan_conjecture(2, 100, "sloppy")
    with pytest.raises(ValueError, match="k must be >= 1"):
        scan_conjecture(0, 100, rule="remark-series")


@pytest.mark.parametrize("k,expected", [(2, 6), (3, 21), (4, 39), (5, 73), (6, 135)])
def test_scan_modes_agree(k, expected):
    exact = scan_conjecture(k, 300, "exact")
    floated = scan_conjecture(k, 300, "adaptive-float")
    assert exact.n0 == floated.n0 == expected
    assert floated.certified


def test_scan_float_reports_certified_counts():
    report = scan_conjecture(3, mode="adaptive-float")
    assert report.n0 == 21
    assert report.violations_checked == 20
    assert report.mode_of_certification == "adaptive-float"


def test_scan_custom_sigma_rule_matches():
    # naming the default rule changes nothing, in either mode
    for mode in ("exact", "adaptive-float"):
        a = scan_conjecture(2, 64, mode)
        b = scan_conjecture(2, 64, mode, rule="sigma-minus-one")
        assert (a.n0, a.violations_checked, a.rule) == (b.n0, b.violations_checked, b.rule)
    # a copy of f under another name takes the Fraction paths, not the sieve's, to the same table
    register_series_rule("sigma-copy-test", f_series)
    for mode, ks in (("exact", range(2, 10)), ("adaptive-float", range(2, 13))):
        for k in ks:
            a = scan_conjecture(k, mode=mode)
            b = scan_conjecture(k, mode=mode, rule="sigma-copy-test")
            assert (a.n0, a.certified, a.mode_of_certification, a.violations_checked) == (
                b.n0, b.certified, b.mode_of_certification, b.violations_checked), (mode, k)
    # the paper's table starts at k = 2, though f itself first violates log-concavity at
    # n = 3: f_3^2 = 16/9 < f_2 f_4 = 21/8
    assert scan_conjecture(1, 64, rule="sigma-copy-test").n0 == 3
    with pytest.raises(ValueError, match="k must be >= 2"):
        scan_conjecture(1, 64)


def test_scan_custom_remark_k1():
    # coefficients 1, 3/2, 1, 3/2, ...: first violation at n = 3 (1 < 9/4)
    report = scan_conjecture(1, 50, rule="remark-series")
    assert report.n0 == 3
    s = custom_series("remark-series", 10).coeffs
    assert s[3] * s[3] < s[2] * s[4]
    assert s[2] * s[2] >= s[1] * s[3]


def test_scan_custom_remark_k2_modes_agree():
    exact = scan_conjecture(2, 200, "exact", rule="remark-series")
    floated = scan_conjecture(2, 200, "adaptive-float", rule="remark-series")
    assert exact.n0 == floated.n0
    assert exact.certified and floated.certified
    # oracle: direct exact convolution and first-violation search
    sq = series_power(custom_series("remark-series", 200), 2).coeffs
    expected = next(
        (n for n in range(2, 200) if sq[n] * sq[n] < sq[n - 1] * sq[n + 1]), None
    )
    assert exact.n0 == expected


def test_scan_report_csv_shape():
    # the CLI's csv and tsv scan rows are these to_dict() values
    row = scan_conjecture(2, 64).to_dict()
    k, n0, mode, elapsed_ms, n_max = (row[c] for c in cli.SCAN_COLUMNS)
    assert (k, n0, mode, n_max) == (2, 6, "exact", 64)
    assert isinstance(elapsed_ms, int)


def test_scan_exact_fallback_decides_ties():
    # a geometric series is log-concave with equality everywhere, which no
    # finite-precision enclosure can certify; only the exact rung can
    from nekrasov.series import RationalSeries, register_series_rule

    register_series_rule(
        "geometric-test",
        lambda n: RationalSeries([0] + [Fraction(1, 2**i) for i in range(1, n + 1)]),
    )
    report = scan_conjecture(1, 20, "adaptive-float", rule="geometric-test", exact_fallback=25)
    assert report.certified and report.n0 is None
    starved = scan_conjecture(1, 20, "adaptive-float", rule="geometric-test", exact_fallback=0)
    assert not starved.certified and starved.n0 is None
    exact = scan_conjecture(1, 20, "exact", rule="geometric-test")
    assert exact.certified and exact.n0 is None


def test_scan_refuses_a_negative_exact_fallback():
    # it used to act as 0: an enclosure overlap left the row uncertified
    for mode in ("exact", "adaptive-float"):
        with pytest.raises(ValueError, match="exact_fallback=-5 is negative"):
            scan_conjecture(5, mode=mode, exact_fallback=-5)


def test_coefficient_c_values():
    assert coefficient_c(3, 2) == 3
    assert coefficient_c(7, 2) == Fraction(184, 15)
    assert coefficient_c(0, 0) == 1
    assert coefficient_c(5, 0) == 0
    assert coefficient_c(0, 3) == 0
    f4 = series_power(f_series(12), 4)
    assert all(coefficient_c(n, 4) == f4[n] for n in range(13))


def test_partial_sum_ratio_k1():
    report = partial_sum_ratio(1, 100)
    assert report.lhs == sum(sigma_minus1(m) for m in range(1, 101))
    assert report.ratio_lo <= report.ratio_hi
    assert abs(report.ratio_lo - 1) <= 5 * math.log(100) / 100
    assert abs(report.ratio_hi - 1) <= 5 * math.log(100) / 100
    assert report.certification == "exact-over-dyadic-enclosure"
    assert hardy_ramanujan_ratio(10).certification == "widened-float"


def test_partial_sum_ratio_boundary():
    report = partial_sum_ratio(3, 9)  # minimum legal n for k=3
    assert report.ratio_lo > 0


def test_partial_sum_ratio_precondition():
    with pytest.raises(ValueError):
        partial_sum_ratio(3, 8)
    with pytest.raises(ValueError):
        partial_sum_ratio(0, 10)


def test_hardy_ramanujan_examples():
    r1 = hardy_ramanujan_ratio(1)
    assert r1.ratio_lo > 0
    r500 = hardy_ramanujan_ratio(500)
    assert 0.9 <= r500.ratio_lo <= r500.ratio_hi <= 1.1
    # monotone approach to 1 over n = 100, 200, 400 (certified intervals)
    rs = [hardy_ramanujan_ratio(n) for n in (100, 200, 400)]
    dist_lo = [max(r.ratio_lo - 1, 1 - r.ratio_hi, 0.0) for r in rs]
    dist_hi = [max(r.ratio_hi - 1, 1 - r.ratio_lo) for r in rs]
    assert dist_lo[0] > dist_hi[1] > dist_lo[2] or dist_lo[0] > dist_hi[1] >= dist_hi[2]
    assert dist_lo[1] > dist_hi[2]


def test_surrogate_binomial_values():
    assert surrogate_binomial(28, 1) == partition_count(27) + partition_count(26)
    with pytest.raises(ValueError):
        surrogate_binomial(26, 1)
    with pytest.raises(ValueError):
        surrogate_binomial(30, 0)


def test_surrogate_truncated_values():
    assert surrogate_truncated(28, 0) == partition_count(28)
    # k = 1: (1/1!) sum_{i=1}^{2} p(28-i) c_{i,1}, c_{1,1}=1, c_{2,1}=3/2
    expected = partition_count(27) + Fraction(3, 2) * partition_count(26)
    assert surrogate_truncated(28, 1) == expected


def test_surrogate_sequences_match_single_values():
    seq = surrogate_binomial_sequence(3, 27, 60)
    assert seq == [surrogate_binomial(n, 3) for n in range(27, 61)]
    seq = surrogate_truncated_sequence(4, 27, 50)
    assert seq == [surrogate_truncated(n, 4) for n in range(27, 51)]


def test_surrogate_truncated_sequence_refuses_a_negative_power():
    with pytest.raises(ValueError, match="k >= 0"):
        surrogate_truncated_sequence(-1, 27, 30)
    with pytest.raises(ValueError, match="k >= 0"):
        surrogate_truncated(30, -1)


def test_surrogate_binomial_log_concave_k3():
    seq = surrogate_binomial_sequence(3, 27, 150)
    assert is_log_concave(seq) is None


def test_surrogate_truncated_log_concave_window():
    seq = surrogate_truncated_sequence(5, 27, 32)
    assert is_log_concave(seq) is None


def test_shape_report_values():
    rep = shape_report(3)
    assert rep.mode == 1 and rep.first_violation is None and rep.unimodal
    rep10 = shape_report(10)
    assert rep10.first_violation is None and rep10.unimodal
    rep50 = shape_report(50)
    start = math.ceil(math.sqrt(50) * math.log(50))
    assert start == 28
    assert rep50.tail_from <= start
    assert tail_monotone_from(q_via_recursion(50).coeffs, start)
    # reference scale sanity: sqrt(100) ln(100) is about 46
    rep100 = shape_report(100)
    assert rep100.tail_from <= 46
    assert 46.0 < rep100.high_scale < 46.1


def test_log_concave_implies_unimodal_on_rows():
    for n in range(1, 41):
        coeffs = q_via_recursion(n).coeffs
        if is_log_concave(coeffs) is None and all(c > 0 for c in coeffs):
            assert is_unimodal(coeffs)[0]


# ---------------------------------------------------------------------------
# The power-row kernel against the Fraction power series_power
# ---------------------------------------------------------------------------

def _late_start(n: int) -> RationalSeries:
    # first nonzero coefficient at q^70
    tail = [Fraction(m % 7 + 1, m % 5 + 1) for m in range(70, n + 1)]
    return RationalSeries([0] * min(n + 1, 70) + tail)


def _mixed_signs(n: int) -> RationalSeries:
    # nonzero constant term, negative leading coefficient, mixed signs
    return RationalSeries(
        [Fraction(-3, 2)] + [Fraction(-m if m % 3 == 1 else m, m % 4 + 1) for m in range(1, n + 1)]
    )


register_series_rule("late-start-test", _late_start)
register_series_rule("mixed-signs-test", _mixed_signs)
register_series_rule("all-zero-test", lambda n: RationalSeries([0] * (n + 1)))
KERNEL_RULES = [
    "sigma-minus-one", "remark-series", "late-start-test", "mixed-signs-test", "all-zero-test",
]


def _row_values(row: _PowerRow, k: int) -> list[Fraction]:
    # a ladder stores no row that is 0 to its order: such a row reads as zeros
    if k > row.k:
        return [Fraction(0)] * len(row.base)
    return [Fraction(c, row.denoms[k]) for c in row.rows[k]]


@pytest.mark.parametrize("rule", KERNEL_RULES)
def test_power_row_matches_series_power(rule):
    f = custom_series(rule, 60)
    power = series_power(f, 0)
    for k in range(10):
        # series_power(f, k) takes k - 1 successive products with f: each from the last
        power = series_multiply(power, f) if k > 1 else series_power(f, k)
        oracle = list(power.coeffs)
        built = _PowerRow(rule)
        built.extend(60, k)
        assert _row_values(built, k) == oracle
        grown = _PowerRow(rule)
        for order in (5, 17, 40, 60):
            grown.extend(order, k)
            assert _row_values(grown, k) == oracle[: order + 1]


def test_power_row_late_start_through_first_order():
    f = custom_series("late-start-test", 200)
    for k in (1, 2):
        row = _PowerRow("late-start-test")
        row.extend(64, k)
        assert not any(_row_values(row, k))
        row.extend(128, k)
        row.extend(200, k)
        sq = series_power(f, k).coeffs
        assert _row_values(row, k) == list(sq)
        expected = next((n for n in range(2, 200) if sq[n] * sq[n] < sq[n - 1] * sq[n + 1]), None)
        report = scan_conjecture(k, 200, "exact", rule="late-start-test")
        assert report.certified and report.n0 == expected


def test_power_row_extended_in_steps_equals_built_at_once():
    for rule in ("sigma-minus-one", "remark-series", "late-start-test", "mixed-signs-test"):
        for k in (2, 5):
            grown = _PowerRow(rule)
            for order in (64, 100, 200):
                nums = grown.extend(order, k)
            built = _PowerRow(rule)
            assert (nums, grown.denom, grown.base) == (built.extend(200, k), built.denom, built.base)


@pytest.mark.parametrize(
    "rule", ["sigma-minus-one", "remark-series", "late-start-test", "mixed-signs-test"]
)
def test_power_row_square_grown_equals_the_full_product(rule):
    # the oracle forms every pair of the square, so it shares no code with
    # the ladder, which builds f^2 from f by q d/dq
    row = _PowerRow(rule)
    for order in (64, 100, 200):
        row.extend(order, 2)
    base, scale = row.base, row.denoms[2]
    assert [c * row.denom**2 for c in row.rows[2]] == [
        sum(base[i] * base[n - i] for i in range(n + 1)) * scale for n in range(201)
    ]


def test_power_row_refuses_a_rule_that_rewrites_its_prefix():
    register_series_rule(
        "order-dependent-test", lambda n: RationalSeries([0] + [Fraction(1, n)] * n)
    )
    row = _PowerRow("order-dependent-test")
    row.extend(10, 2)
    with pytest.raises(ValueError, match="changed its coefficients"):
        row.extend(20, 2)


class _MillerRow:
    """The exact power row as first written: the oracle of the q d/dq ladder.

    Integers over denom^k like _PowerRow; k = 2 is a symmetric square and
    k >= 3 follows J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7)
    i h_0 g_i = sum_{j=1..i} ((k+1) j - i) h_j g_{i-j} for base = q^m0 h(q),
    extended in place with a rescale by (denom'/denom)^k.
    """

    def __init__(self, k: int, rule: str):
        self.k = k
        self.rule = rule
        self.base: list[int] = []
        self.denom = 1
        self.nums: list[int] = []

    def extend(self, order: int) -> None:
        old = len(self.nums)
        if order < old:
            return
        base, denom, _ = _scaled_rule_base(self.rule, order)
        scale, rem = divmod(denom, self.denom)
        assert rem == 0 and [c * scale for c in self.base] == base[:old]
        k = self.k
        factor = scale**k
        nums = self.nums = [c * factor for c in self.nums]
        self.base, self.denom = base, denom
        if k <= 1:
            nums.extend(base[old:] if k else (int(n == 0) for n in range(old, order + 1)))
            return
        if k == 2:
            for n in range(old, order + 1):
                half = sum(base[i] * base[n - i] for i in range((n + 1) // 2))
                nums.append(2 * half + (base[n // 2] ** 2 if n % 2 == 0 else 0))
            return
        m0 = next((i for i, c in enumerate(base) if c), order + 1)
        off = k * m0
        h = base[m0:]
        for n in range(old, order + 1):
            i = n - off
            if i <= 0:
                nums.append(h[0] ** k if i == 0 else 0)
                continue
            acc = sum(((k + 1) * j - i) * h[j] * nums[n - j] for j in range(1, i + 1))
            g, rem = divmod(acc, i * h[0])
            assert rem == 0
            nums.append(g)


def _oracle(k: int, rule: str, orders) -> _MillerRow:
    row = _MillerRow(k, rule)
    for order in orders:
        row.extend(order)
    return row


def _same_row(row: _PowerRow, oracle: _MillerRow) -> bool:
    # the oracle keeps row k over denom^k, the ladder over its own D_k: compare values
    k = oracle.k
    return (row.denom, row.base) == (oracle.denom, oracle.base) and _row_values(row, k) == [
        Fraction(c, oracle.denom**k) for c in oracle.nums
    ]


@pytest.mark.parametrize("rule", KERNEL_RULES)
def test_ladder_built_at_once_equals_millers_row(rule):
    for order in (1, 5, 64, 130):
        for k in range(10):
            row = _PowerRow(rule)
            row.extend(order, k)
            assert _same_row(row, _oracle(k, rule, [order])), (order, k)


@pytest.mark.parametrize("rule", KERNEL_RULES)
def test_ladder_grown_equals_millers_row(rule):
    for k in range(10):
        row = _PowerRow(rule)
        for order in (64, 100, 200):
            row.extend(order, k)
        assert _same_row(row, _oracle(k, rule, [64, 100, 200])), k


@pytest.mark.parametrize("rule", KERNEL_RULES)
def test_ladder_freeing_build_equals_millers_row_and_refuses_to_grow(rule):
    for k in range(10):
        for orders in ([64, 130], [3, 5]):  # at order 5, f^6..f^9 of a rule with lead >= 1 are 0
            row = _PowerRow(rule)
            row.extend(orders[0], k)
            row.extend(orders[1], k, free=True)
            assert _same_row(row, _oracle(k, rule, orders)), (k, orders)
            assert all(r is None for r in row.rows[2:k])  # only base and f^k are kept
            with pytest.raises(ValueError, match="freed"):
                row.extend(200, k)
            with pytest.raises(ValueError, match="freed"):
                row.extend(10, k)


@pytest.mark.parametrize("rule", KERNEL_RULES)
def test_freeing_build_equals_full_build(rule):
    # a freeing build stops row j < k at order - (k - j) s; row k must not notice
    for k in range(10):
        for orders in ([0], [1], [64], [130], [64, 130]):
            full, freeing = _PowerRow(rule), _PowerRow(rule)
            for order in orders:
                nums = full.extend(order, k)
            for order in orders[:-1]:
                freeing.extend(order, k)
            assert (freeing.extend(orders[-1], k, free=True), freeing.denom, freeing.base) == (
                nums, full.denom, full.base
            ), (k, orders)


class _LoopRow(_PowerRow):
    """The ladder with its sums as first written, one Python loop per entry:
    the oracle of `_ExactToeplitz`.  Same rows and free band, row j over denom^j;
    one power per ladder, never a row that is 0 to its order."""

    def extend(self, order: int, power: int, free: bool = False) -> None:
        if self.freed:
            raise ValueError("this power row freed its ladder and cannot be extended")
        rows = self.rows
        if power <= self.k and order < len(rows[power]):
            return
        old = len(self.base)
        if order >= old:
            base, denom, _ = _scaled_rule_base(self.rule, order)
            scale = denom // self.denom
            assert base[:old] == [c * scale for c in self.base]
            rows[2:] = [[c * scale**j for c in row] for j, row in enumerate(rows[2:], 2)]
            self.base, self.denom = base, denom
        base = self.base
        lead = next((i for i, c in enumerate(base) if c), len(base))
        if power > self.k and not (lead and power * lead > order):
            rows += [[] for _ in range(power - self.k)]
            self.k = power
        rows[0] += [int(n == 0) for n in range(len(rows[0]), order + 1)]
        rows[1] = base
        weights = [i * c for i, c in enumerate(base[: order + 1])]
        g = math.gcd(*weights) or 1
        rev = [w // g for w in reversed(weights)]  # rev[order - i] = e_i
        s = next((i for i, w in enumerate(weights) if w), 1)
        for j in range(2, self.k + 1):
            row, prev = rows[j], rows[j - 1]
            if not row:
                row.append(base[0] ** j)
            top = order - (self.k - j) * s if free else order
            for n in range(len(row), top + 1):
                c, rem = divmod(j * g * sum(map(mul, rev[order - n : order], prev)), n)
                assert rem == 0
                row.append(c)
            if free and j > 2:
                rows[j - 1] = None
        if free:
            self.freed = True


def _loop_sums(e: list[int], x: list[int], lo: int, start: int, stop: int) -> list[int]:
    """sum_{m=lo..n-1} e[n - m] x[m] for n = start..stop-1, one loop each."""
    return [sum(map(mul, e[n - lo : 0 : -1], x[lo:n])) for n in range(start, stop)]


def _huge_numerators(n: int) -> RationalSeries:
    # numerators from 2^40 up, mixed signs: the weights exceed 2^37 in sum
    # and are cut into 16-bit pieces
    return RationalSeries(
        [Fraction(5)] + [Fraction((-1) ** m * (2**40 + m**5), m % 3 + 1) for m in range(1, n + 1)]
    )


register_series_rule("huge-numerators-test", _huge_numerators)
LADDER_RULES = KERNEL_RULES + ["huge-numerators-test"]


def _same_ladder(row: _PowerRow, oracle: _LoopRow) -> bool:
    # the oracle keeps row j over denom^j, the ladder over its own D_j: compare values
    def values(rows, denoms):
        return [None if r is None else [Fraction(c, d) for c in r] for r, d in zip(rows, denoms)]

    return (row.denom, row.base, row.freed) == (oracle.denom, oracle.base, oracle.freed) and values(
        row.rows, row.denoms
    ) == values(oracle.rows, [oracle.denom**j for j in range(oracle.k + 1)])


@pytest.mark.parametrize("rule", LADDER_RULES)
def test_ladder_matches_the_loop(rule):
    for k in (0, 1, 2, 3, 7):
        for orders, free in (([100], False), ([1, 2, 40, 41, 100], False),
                             ([100], True), ([30, 75, 100], True), ([5], True)):
            row, oracle = _PowerRow(rule), _LoopRow(rule)
            for order in orders:
                row.extend(order, k, free and order == orders[-1])
                oracle.extend(order, k, free and order == orders[-1])
                assert _same_ladder(row, oracle), (k, orders, free, order)


# ---------------------------------------------------------------------------
# Row denominators D_j: the valuation bound against Fraction powers
# ---------------------------------------------------------------------------

def _third_constant(n: int) -> RationalSeries:
    # sigma_{-1} with f_0 = 1/3: every factor may take index 0 and its 3 for free
    return RationalSeries([Fraction(1, 3)] + list(f_series(n).coeffs[1:]))


def _far_denominators(n: int) -> RationalSeries:
    # every denominator is above any order a test reaches, so none is factored
    return RationalSeries([Fraction(1, m + 10**6) for m in range(n + 1)])


def _far_start(n: int) -> RationalSeries:
    # sigma_{-1} but 1/(m + 10^6) below q^3, denominators above the order whose primes
    # 2, 3 and 5 also divide factored ones, so those keep their power in denom; and
    # f_200 = 1/263, above the order 256, where D_2 holds 263^2, but factored from the
    # order 263 on, where two factors cannot both afford q^200: D_2 keeps one 263, and
    # growing 256 -> 300 divides row 2 by it
    coeffs = [Fraction(1, m + 10**6) if m < 3 else c for m, c in enumerate(f_series(n).coeffs)]
    return RationalSeries([Fraction(1, 263) if m == 200 else c for m, c in enumerate(coeffs)])


def _clumped_twos(n: int) -> RationalSeries:
    # 1/m, but 2/m for m = 2 mod 4: 2^1 and 2^2 first divide a denominator at q^4,
    # so the costs of the powers of 2 (3, 3, 7 past the lead) are not convex
    return RationalSeries([0] + [Fraction(2 if m % 4 == 2 else 1, m) for m in range(1, n + 1)])


register_series_rule("third-constant-test", _third_constant)
register_series_rule("far-denominators-test", _far_denominators)
register_series_rule("far-start-test", _far_start)
register_series_rule("clumped-twos-test", _clumped_twos)
DENOMINATOR_RULES = [
    "sigma-minus-one", "remark-series", "third-constant-test", "far-start-test", "clumped-twos-test",
]


@pytest.fixture(scope="module")
def fraction_squares():
    """rule -> f^0, f, f^2 at order 300 as Fractions, f^2 = series_power(f, 2)."""
    squares = {}
    for rule in DENOMINATOR_RULES:
        f = custom_series(rule, 300)
        squares[rule] = [list(series_power(f, j).coeffs) for j in range(3)]
    return squares


@pytest.mark.parametrize("rule", DENOMINATOR_RULES)
def test_row_denominators_grown_and_built_give_the_fraction_powers(rule, fraction_squares):
    oracle, k = fraction_squares[rule], 2
    grown = _PowerRow(rule)
    for order in (64, 128, 256, 300):
        grown.extend(order, k)
        for j in range(k + 1):
            d, row = grown.denoms[j], grown.rows[j]
            assert len(row) == order + 1 and all(
                c * x.denominator == x.numerator * d for c, x in zip(row, oracle[j])
            ), (order, j)
    built = _PowerRow(rule)
    built.extend(300, k)
    assert (built.rows, built.denoms) == (grown.rows, grown.denoms)
    assert all(built.denom**j % d == 0 for j, d in enumerate(built.denoms))


def _valuation(d: int, p: int) -> int:
    e = 0
    while d % p == 0:
        d //= p
        e += 1
    return e


def _most_valuation(v: list[int], lead: int, j: int) -> int | None:
    """max sum_i v[m_i] over j indices m_i >= lead with sum m_i <= N = len(v) - 1, by dynamic programming."""
    best = [0] + [None] * (len(v) - 1)  # best[s]: the most over the tuples so far with sum s
    for _ in range(j):
        best = [max((best[s - m] + v[m] for m in range(lead, s + 1) if best[s - m] is not None), default=None)
                for s in range(len(v))]
    return max((b for b in best if b is not None), default=None)


def _random_rule(seed: int):
    # numerators and denominators up to 60, zeros included: orders 12 and 30 see
    # denominators above the order, repeated powers and non-convex costs
    def rule(n: int) -> RationalSeries:
        rng = random.Random(seed)
        return RationalSeries([Fraction(rng.randrange(-2, 4), rng.randrange(1, 61)) for _ in range(n + 1)])
    return rule


def _random_late_rule(seed: int, lead: int):
    # the same draws from q^lead on: every factor spends lead of the budget
    def rule(n: int) -> RationalSeries:
        return RationalSeries(([0] * lead + list(_random_rule(seed)(n).coeffs))[: n + 1])
    return rule


for _seed in range(4):
    register_series_rule(f"random-{_seed}-test", _random_rule(_seed))
    register_series_rule(f"random-{_seed}-late-test", _random_late_rule(_seed, 2 + _seed % 2))


@pytest.mark.parametrize("rule", [
    "sigma-minus-one", "remark-series", "third-constant-test", "late-start-test", "far-denominators-test",
    "far-start-test", "clumped-twos-test", "mixed-signs-test", *(f"random-{seed}-test" for seed in range(4)),
    *(f"random-{seed}-late-test" for seed in range(4)),
])
def test_row_denominators_against_the_brute_force_valuations(rule):
    # v_p(D_j) bounds the most j factors can carry, the maximum when the costs
    # w(a) - lead of p's powers are convex; a prime of a denominator above N
    # keeps its power in denom, charged j times
    for order, k in ((12, 16), (30, 6)):
        base, denom, dens = _scaled_rule_base(rule, order)
        lead = next((m for m, c in enumerate(base) if c), order + 1)
        top = min(k, order // lead) if lead else k  # rows above top are 0 to q^N: no ladder holds them
        row = _PowerRow(rule)
        for step in (order // 2, order):
            row.extend(step, k)
        assert _row_values(row, k) == list(series_power(custom_series(rule, order), k).coeffs)
        row.extend(order, top)
        big = [d for d in dens if d > order]
        for p in (p for p in range(2, order + 1) if all(p % q for q in range(2, p)) and denom % p == 0):
            if any(d % p == 0 for d in big):
                assert all(_valuation(row.denoms[j], p) == j * _valuation(denom, p) for j in range(top + 1))
                continue
            v = [_valuation(d, p) for d in dens]
            w = [min(m for m in range(order + 1) if v[m] >= a) for a in range(1, max(v) + 1)]
            costs = [0] + [m - lead for m in w]
            convex = all(x - y <= z - x for y, x, z in zip(costs, costs[1:], costs[2:]))
            for j in range(1, top + 1):
                most, bound = _most_valuation(v, lead, j), _valuation(row.denoms[j], p)
                assert most <= bound if not convex else most == bound, (order, p, j)


def test_row_denominators_pin_the_order_512_ladder():
    row = _PowerRow("sigma-minus-one")
    row.extend(512, 8)
    # denom^8 has 5942 bits; row 8's true common denominator has 1964
    assert row.denoms[8].bit_length() <= 1964 < (row.denom**8).bit_length()
    assert all(row.denom**j % d == 0 for j, d in enumerate(row.denoms))
    # D_5 lacks 509: five indices from 1 up that sum to at most 512 cannot use 509
    assert row.denoms[4] % 509 == 0 and row.denoms[5] % 509


def test_refused_raise_stores_no_row_above_f():
    # f^5000 is 0 to q^100: the raise returns zeros and stores no row above f
    row = _PowerRow("sigma-minus-one")
    assert row.extend(100, 5000) == [0] * 101
    assert (row.k, len(row.rows), len(row.denoms), len(row.rows[1])) == (1, 2, 2, 101)
    assert row.extend(100, 100)[100] == row.denoms[100]  # c_{100,100} = 1
    assert row.k == 100 and all(len(r) == 101 for r in row.rows)
    one_shot = _PowerRow("sigma-minus-one")
    assert one_shot.extend(100, 5000, free=True) == [0] * 101
    assert (one_shot.k, len(one_shot.rows), one_shot.freed) == (1, 2, True)


def test_refused_raise_on_a_held_order_builds_no_kernel(monkeypatch):
    # f^65 is 0 to q^64: at an order the ladder holds, the zeros come before
    # the rule's weights and Toeplitz kernel, and no row or D_j moves
    row = _PowerRow("sigma-minus-one")
    row.extend(64, 8)
    rows, denoms = [list(r) for r in row.rows], list(row.denoms)
    monkeypatch.setattr(series, "_ExactToeplitz", lambda *args: pytest.fail("built a Toeplitz kernel"))
    assert row.extend(64, 65) == [0] * 65
    assert row.extend(40, 600) == [0] * 41
    assert (row.k, row.rows, row.denoms) == (8, rows, denoms)


@pytest.mark.parametrize("short", [2, 3, 467])
def test_ladder_refuses_a_row_denominator_one_prime_short(short):
    # at order 512 D_8 is row 8's exact common denominator, so each of its primes is needed
    class ShortRow(_PowerRow):
        def _denominators(self, denom, nums, dens):
            denoms = super()._denominators(denom, nums, dens)
            return denoms[:-1] + [denoms[-1] // short]

    row = ShortRow("sigma-minus-one")
    with pytest.raises(ArithmeticError, match=r"row 8 of the power ladder is not an integer at q\^\d+"):
        row.extend(512, 8)


def _fraction_rule_base(rule: str, n_max: int) -> tuple[list[int], int, list[int]]:
    """`_scaled_rule_base` through the rule's Fraction series: the oracle of the sieve path."""
    coeffs = custom_series(rule, n_max).coeffs
    dens = [c.denominator for c in coeffs]
    denom = math.lcm(*dens)
    return [c.numerator * (denom // d) for c, d in zip(coeffs, dens)], denom, dens


def test_sigma_rule_base_from_the_sieve_matches_the_fractions(monkeypatch):
    for n in range(601):
        assert _scaled_rule_base("sigma-minus-one", n) == _fraction_rule_base("sigma-minus-one", n), n
    # one sieve per order and no Fraction series; a registered rule still builds one
    sieves, built = [], []
    sieve, build = series.sigma_sieve, series.custom_series
    monkeypatch.setattr(series, "sigma_sieve", lambda n: sieves.append(n) or sieve(n))
    monkeypatch.setattr(series, "custom_series", lambda rule, n: built.append(rule) or build(rule, n))
    _scaled_rule_base("sigma-minus-one", 64)
    assert (sieves, built) == ([64], [])
    assert _scaled_rule_base("remark-series", 64) == _fraction_rule_base("remark-series", 64)
    assert built == ["remark-series"]


def test_huge_numerators_take_the_split_weights():
    base, _, _ = _scaled_rule_base("huge-numerators-test", 100)
    kernel = _ExactToeplitz([i * c for i, c in enumerate(base)])
    assert len(kernel.shifts) > 1 and kernel.w == 16


def _big_signed(rng: random.Random, count: int, bits: int) -> list[int]:
    # every sign, zeros, powers of two, entries above 2^64 and near 2^bits
    special = [0, 1, -1, 2**64, -(2**64), 2**64 - 1, -(2**63), 2**bits - 1, -(2**bits) + 1]
    out = [rng.randrange(-(2**bits), 2**bits) >> rng.randrange(bits) for _ in range(count)]
    for i, v in enumerate(special):
        out[(7 * i) % count] = v
    return out


@pytest.mark.parametrize(
    "e_bits, count, w, pieces",
    [(10, 4 * _ROWS_PER_MATMUL + 44, 32, 1),  # sum|e| < 2^21
     (20, 4 * _ROWS_PER_MATMUL + 44, 16, 1),  # sum|e| < 2^37
     (45, 4 * _ROWS_PER_MATMUL + 44, 16, 3),  # split into 16-bit pieces
     (40, 20, 32, 3)],  # pieces short enough for 32-bit limbs: at most 32 weights, one block
)
def test_exact_toeplitz_matches_the_loop_on_each_path(e_bits, count, w, pieces):
    rng = random.Random(e_bits * count)
    e = [rng.randrange(-(2**e_bits), 2**e_bits) for _ in range(count)]
    e[1] = 2**e_bits - 1
    kernel = _ExactToeplitz(e)
    assert (kernel.w, len(kernel.shifts)) == (w, pieces)
    x = _big_signed(rng, count, 300)
    rows = _ROWS_PER_MATMUL  # the most outputs one block takes
    # the whole row, one-entry rows, a row that ends one entry into its third
    # block, three full blocks; a row past the weights is cut at lo + count
    for lo, start, stop in ((0, 1, count), (5, 6, 7), (3, count // 3, count + 3), (0, count - 1, count),
                            (10, 11, 12 + 2 * rows), (1, 2, 2 + 3 * rows)):
        stop = min(stop, lo + count)
        assert list(kernel.rows(x, lo, start, stop)) == _loop_sums(e, x, lo, start, stop)
    # row j - 1 of a freeing ladder is shorter than the band row j reads, over several blocks
    short = x[: count // 4]
    assert list(kernel.rows(short, 2, 6, count)) == _loop_sums(e, short, 2, 6, count)


def test_exact_toeplitz_work_buffers_stay_within_their_budget():
    # a row of 4096 entries takes 64 blocks of _ROWS_PER_MATMUL outputs: beside
    # the limb image of row j - 1 and two lists of its references, the buffers
    # hold one block of the Toeplitz matrix, one limb slab, and the limb sums of
    # a block with their words, bytes and ints; not a 4096-row block (128 MB)
    rng = random.Random(4096)
    e = [0] + [rng.randrange(2**8) for _ in range(4096)]
    x = [rng.getrandbits(600) for _ in range(4096)]
    kernel = _ExactToeplitz(e)
    assert kernel.w == 32
    size, height = 80, 4095  # bytes per entry, the columns a call reads
    width = size // 4  # 32-bit limbs per entry
    budget = 8 * (_ROWS_PER_MATMUL * height + height * _MIN_LIMBS_PER_MATMUL + _ROWS_PER_MATMUL * 4 * width)
    tracemalloc.start()
    try:
        for _ in kernel.rows(x, 0, 1, 4097):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= height * size + 2 * 8 * height + budget + 2**16, (peak, budget)


def test_exact_toeplitz_all_ones_limbs_need_16_bits():
    # sigma(i) to 1800 sums past 2^21, and entries whose limbs are all ones
    # drive every limb sum to its bound: 32-bit limbs would round past 2^53
    e = [0] + series.sigma_sieve(1800)[1:]
    kernel = _ExactToeplitz(e)
    assert sum(e) >= 2**21 and kernel.w == 16
    for x in ([(1 << 320) - 1] * 1801, [-1] * 1801):
        assert list(kernel.rows(x, 0, 1760, 1801)) == _loop_sums(e, x, 0, 1760, 1801)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-(2**50), 2**50), min_size=2, max_size=80),
    st.lists(st.integers(-(2**200), 2**200), min_size=1, max_size=80),
    st.data(),
)
def test_exact_toeplitz_matches_the_loop_on_random_vectors(e, x, data):
    lo = data.draw(st.integers(0, len(x) - 1))
    start = data.draw(st.integers(lo + 1, lo + len(e) - 1))
    stop = data.draw(st.integers(start, lo + len(e)))
    assert list(_ExactToeplitz(e).rows(x, lo, start, stop)) == _loop_sums(e, x, lo, start, stop)


def test_ladder_skips_the_zero_prefix(monkeypatch):
    # late-start-test starts at q^70, so f^j is 0 below q^(70 j): those
    # entries are appended, and row j reads row j - 1 from q^(70 (j - 1))
    calls = _record_kernel_calls(monkeypatch)
    row = _PowerRow("late-start-test")
    row.extend(300, 3)
    assert calls == [(70, 140, 301), (140, 210, 301)]
    oracle = _LoopRow("late-start-test")
    oracle.extend(300, 3)
    assert _same_ladder(row, oracle)
    calls.clear()
    row.extend(400, 3)  # a grown ladder reads the same prefix and computes only the new entries
    assert calls == [(70, 301, 401), (140, 301, 401)]


def test_ladder_order_guard_refuses_before_any_work(monkeypatch):
    built = []
    monkeypatch.setattr(series, "_scaled_rule_base", lambda *args: built.append(args))
    with pytest.raises(ValueError, match="limit"):
        coefficient_c(2**21, 2)
    with pytest.raises(ValueError, match="limit"):
        _PowerRow("sigma-minus-one").extend(2**21 - 1, 2)
    # a power takes the same bound, before its 2^21 rows are allocated
    with pytest.raises(ValueError, match="power 2097151 is above"):
        _PowerRow("sigma-minus-one").extend(10, 2**21 - 1)
    assert built == []


def _record_kernel_calls(monkeypatch) -> list[tuple[int, int, int]]:
    """(lo, start, stop) of every call of the ladder's exact convolution."""
    calls = []
    rows = _ExactToeplitz.rows

    def recorded(self, x, lo, start, stop):
        calls.append((lo, start, stop))
        return rows(self, x, lo, start, stop)

    monkeypatch.setattr(_ExactToeplitz, "rows", recorded)
    return calls


def test_freeing_build_computes_only_the_band(monkeypatch):
    # building f^40 to q^40 with s = 1 stops row j at q^j, where full rows
    # reach q^40; sigma_{-1} starts at q^1, so row j also skips the zeros
    # below q^j and computes only its entry at q^j
    calls = _record_kernel_calls(monkeypatch)
    k = 40
    row = _PowerRow("sigma-minus-one")
    assert row.extend(k, k, free=True)[k] == row.denoms[k]  # c_{k,k} = 1
    assert calls == [(j - 1, j, j + 1) for j in range(2, k + 1)]
    # mixed-signs-test has a constant term, so every entry of the band is computed
    calls.clear()
    _PowerRow("mixed-signs-test").extend(k, k, free=True)
    assert calls == [(0, 1, j + 1) for j in range(2, k + 1)]


def test_exact_scans_extend_one_shared_ladder(monkeypatch):
    # the scans of a rule read f^k off one ladder that grows in order and power
    # and is never freed: a scan extends it only to the orders and powers it
    # lacks, and only to the order where float64 first sees a violation
    monkeypatch.setattr(series, "_LADDERS", {})
    calls, bases = [], []
    extend, scaled = _PowerRow.extend, series._scaled_rule_base

    def recorded(self, order, power, free=False):
        calls.append((order, free, power))
        return extend(self, order, power, free)

    monkeypatch.setattr(_PowerRow, "extend", recorded)
    monkeypatch.setattr(series, "_scaled_rule_base", lambda rule, n: bases.append(n) or scaled(rule, n))
    assert scan_conjecture(7, mode="exact").n0 == 251
    assert calls == [(256, False, 7)]  # not 64 and 128 first: float64 sees no violation there
    ladder = series._LADDERS["sigma-minus-one"]
    calls.clear()
    assert scan_conjecture(6, mode="exact").n0 == 135  # row 6 is there to 256: no extend
    assert calls == []
    # k = 8 raises the power and grows the order in one extend
    assert scan_conjecture(8, mode="exact").n0 == 475
    assert calls == [(512, False, 8)]
    assert series._LADDERS["sigma-minus-one"] is ladder and ladder.k == 8 and not ladder.freed
    assert [len(row) for row in ladder.rows] == [513] * 9
    assert bases == [256, 512]  # one rule base per order the ladder reached


def test_exact_scan_result_does_not_depend_on_the_float_guess(monkeypatch):
    # the float64 guess only picks the order to build: too low, and the scan
    # doubles on from it; too high, and the scan still reports the first n
    expected = {k: scan_conjecture(k, mode="exact") for k in (2, 5, 8)}
    for guess in (lambda rule, k, order, n_max: order, lambda rule, k, order, n_max: n_max):
        monkeypatch.setattr(series, "_LADDERS", {})
        monkeypatch.setattr(analysis, "_build_order", guess)
        for k in (2, 5, 8):
            report = scan_conjecture(k, mode="exact")
            assert (report.n0, report.violations_checked) == (expected[k].n0, expected[k].violations_checked)


@pytest.mark.parametrize("seq", [
    [1, 2, 4, 8, 17, 30],  # a violation at 3, far from equality
    [1, 1, 1, 1, 1],  # equality throughout: every comparison cross-multiplied
    [3, 0, 5, 0, 2],  # zeros
    [4, -2, 1, -3, 5, 2, -7],  # signs
    [10**400, 10**401, 10**402 + 1, 10**403 + 10**3],  # ties broken far below float64
    [2**3000 + i * i for i in range(20)],  # logs within 2^-40 of their size
])
def test_first_violation_agrees_with_the_cross_multiplication(seq):
    for lo in range(1, len(seq) - 1):
        exact = next((n for n in range(lo, len(seq) - 1)
                      if seq[n] * seq[n] < seq[n - 1] * seq[n + 1]), None)
        assert analysis._first_violation(seq, lo, len(seq) - 1) == exact


def test_exact_scans_in_any_order_give_the_readme_table(monkeypatch):
    # each (n0, certified, mode, violations_checked, n_max) equals the README
    # table and a lone scan on a fresh ladder, whatever the scans before it built
    readme = {2: 6, 3: 21, 4: 39, 5: 73, 6: 135, 7: 251, 8: 475, 9: 917}

    def fields(report):
        return (report.n0, report.certified, report.mode_of_certification,
                report.violations_checked, report.n_max)

    lone = {}
    for k, n0 in readme.items():
        monkeypatch.setattr(series, "_LADDERS", {})
        lone[k] = fields(scan_conjecture(k, mode="exact"))
        assert lone[k] == (n0, True, "exact", n0 - 1, max(2 * 2**k, 256))
    for order in (range(2, 10), range(9, 1, -1), [5, 8, 7, 4, 2, 6, 3]):
        monkeypatch.setattr(series, "_LADDERS", {})
        for k in order:
            assert fields(scan_conjecture(k, mode="exact")) == lone[k], (list(order), k)


@pytest.mark.parametrize("rule", ["sigma-minus-one", "remark-series", "mixed-signs-test"])
def test_raised_power_equals_a_fresh_ladder(monkeypatch, rule):
    fresh = _PowerRow(rule)
    fresh.extend(512, 8)
    ladder = _PowerRow(rule)
    ladder.extend(512, 2)
    bases, scaled = [], series._scaled_rule_base
    monkeypatch.setattr(series, "_scaled_rule_base", lambda *args: bases.append(args) or scaled(*args))
    ladder.extend(512, 8)  # the D_j of the new rows come from the stored rule base
    assert bases == []
    assert (ladder.k, ladder.denoms, ladder.rows) == (8, fresh.denoms, fresh.rows)
    # a lower power grows alone; the rows above it keep their order and move to the new D_j
    ladder.extend(1024, 3)
    assert [len(row) for row in ladder.rows] == [1025] * 4 + [513] * 5
    ladder.extend(1024, 8)
    fresh.extend(1024, 8)
    assert (ladder.denoms, ladder.rows) == (fresh.denoms, fresh.rows)


def test_shared_ladder_dropped_when_an_extend_fails(monkeypatch):
    # D_8 one prime 2 short at order 512: the rescale of the rows built to 256
    # stops halfway, so the ladder must not be read again
    monkeypatch.setattr(series, "_LADDERS", {})
    denominators = _PowerRow._denominators

    def short(self, denom, nums, dens):
        denoms = denominators(self, denom, nums, dens)
        return denoms[:-1] + [denoms[-1] // 2] if len(dens) == 513 else denoms

    with monkeypatch.context() as patch:
        patch.setattr(_PowerRow, "_denominators", short)
        with pytest.raises(ArithmeticError, match="row 8 of the power ladder is not an integer"):
            scan_conjecture(8, mode="exact")
        assert "sigma-minus-one" not in series._LADDERS
    assert scan_conjecture(8, mode="exact").n0 == 475


def test_exact_scan_checks_the_order_it_doubled_from():
    # c_n = 1 except c_65 = 3: equality up to n = 63, first violation at n = 64,
    # the first order of the scan.  float64 sees it only at order 128, where the
    # scan builds; c_1 = -1 leaves the second rule no float64 image, so its
    # scan builds at 64 and only the second pass can check n = 64
    register_series_rule(
        "bump-at-65-test", lambda n: RationalSeries([1 + 2 * (m == 65) for m in range(n + 1)])
    )
    register_series_rule(
        "bump-at-65-signed-test",
        lambda n: RationalSeries([1 + 2 * (m == 65) - 2 * (m == 1) for m in range(n + 1)]),
    )
    for rule, first in (("bump-at-65-test", 128), ("bump-at-65-signed-test", 64)):
        assert analysis._build_order(rule, 1, 64, 200) == first
        report = scan_conjecture(1, 200, "exact", rule=rule)
        assert report.n0 == 64 and report.violations_checked == 63


def test_partial_sum_lhs_matches_series_power():
    f = f_series(40)
    for k in range(1, 5):
        power = series_power(f, k).coeffs
        for n in range(max(2, k * k), 41):
            assert partial_sum_ratio(k, n).lhs == sum(power[: n + 1])


def test_exact_scan_checks_up_to_n0():
    for k in range(2, 9):
        report = scan_conjecture(k, mode="exact")
        assert report.violations_checked == report.n0 - 1


def test_scan_bound_limit(monkeypatch):
    monkeypatch.setattr(analysis, "_PowerRow", lambda *args: pytest.fail("built a ladder"))
    monkeypatch.setattr(analysis, "_shared_power", lambda *args: pytest.fail("grew the shared ladder"))
    monkeypatch.setattr(analysis, "_float_base", lambda *args: pytest.fail("built a ball"))
    for mode in ("exact", "adaptive-float"):
        # the default bound 2^(k+1) is refused by the size of k, never formatted
        with pytest.raises(ValueError, match=f"2\\^20001 of k=20000 is above the scan limit {SCAN_LIMIT}"):
            scan_conjecture(20000, mode=mode)
        with pytest.raises(ValueError, match=f"k=10000000000 is above the scan limit {SCAN_LIMIT}"):
            scan_conjecture(10**10, mode=mode)
        with pytest.raises(ValueError, match=f"k={SCAN_LIMIT + 1} is above the scan limit"):
            scan_conjecture(SCAN_LIMIT + 1, 300, mode)
        with pytest.raises(ValueError, match=str(SCAN_LIMIT)):
            scan_conjecture(30, mode=mode)
        with pytest.raises(ValueError, match=str(SCAN_LIMIT)):
            scan_conjecture(3, SCAN_LIMIT + 1, mode)
    assert analysis.default_scan_bound(17) == SCAN_LIMIT


def test_power_far_above_its_order_costs_little(monkeypatch):
    # f^k starts at q^k: a fresh ladder rescales none of its empty rows, and
    # the shared ladder stores no row that is 0 to its order
    assert coefficient_c(300, 2000) == 0
    monkeypatch.setattr(series, "_LADDERS", {})
    for k in (20000, 100000):
        report = scan_conjecture(k, 300, "exact")
        assert report.certified and report.n0 is None and report.violations_checked == 298
    ladder = series._LADDERS["sigma-minus-one"]
    assert sum(1 for row in ladder.rows if row) <= 301 and len(ladder.denoms) <= 301


def test_coefficient_below_its_power_builds_no_ladder(monkeypatch):
    # c_{n,k} = 0 for n < k, with no ladder and no Fraction over denom^k
    built = []

    class CountingRow(_PowerRow):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(analysis, "_PowerRow", CountingRow)
    assert coefficient_c(300, 20000) == 0
    assert coefficient_c(0, 1) == 0
    assert built == []
    assert coefficient_c(3, 2) == 3  # the counter sees a ladder that is built
    assert built == [("sigma-minus-one",)]


def test_surrogate_above_its_power_builds_no_ladder(monkeypatch):
    # every term is 0 when k > n_hi - 26: no ladder and no Fraction over denom^k k!
    built = []

    class CountingRow(_PowerRow):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(analysis, "_PowerRow", CountingRow)
    assert surrogate_truncated_sequence(5, 27, 30) == [0, 0, 0, 0]
    assert surrogate_truncated_sequence(20000, 27, 300) == [0] * 274
    assert surrogate_truncated(28, 3) == 0
    assert built == []
    assert surrogate_truncated_sequence(4, 27, 30)[-1] > 0  # the counter sees a ladder that is built
    assert built == [("sigma-minus-one",)]


# ---------------------------------------------------------------------------
# Certified float scan: escalation, merged certificates, extreme magnitudes
# ---------------------------------------------------------------------------

needs_ld = pytest.mark.skipif(not _ld_available(), reason="extended precision unavailable")

# sigma_{-1}(n) 10^-300: log-concave exactly where sigma_{-1} is, and every
# square underflows in float64
register_series_rule(
    "tiny-sigma-test",
    lambda n: RationalSeries([0] + [sigma_minus1(i) / 10**300 for i in range(1, n + 1)]),
)
# first violation at n = 2, where every product overflows in float64
register_series_rule(
    "huge-test", lambda n: RationalSeries(([0, 10**200, 10**200] + [2 * 10**200] * n)[: n + 1])
)


# f = 1 + 2^-48 sum g_n q^n with g_n = 1, 8, 48, 240, 960, 3840, 11520, 23040,
# 115200 (ratios 8, 6, 5, 4, 4, 3, 2, 5): log-concave but for the tie at n = 5
# and the clear violation at n = 8.  In f^3 the tie is broken by the 2^-48
# terms into a violation by about 2^-50 relative: below what float64 can
# resolve, well above what longdouble can.
_NEAR_TIE = [1, 8, 48, 240, 960, 3840, 11520, 23040, 115200]
register_series_rule(
    "near-tie-test",
    lambda n: RationalSeries(([1] + [Fraction(g, 2**48) for g in _NEAR_TIE] + [0] * n)[: n + 1]),
)


@pytest.mark.parametrize("rule,k,n_max,n0", [
    ("tiny-sigma-test", 2, 256, 6),
    ("tiny-sigma-test", 3, 256, 21),
    ("huge-test", 1, 20, 2),
])
def test_scan_extreme_magnitudes_certify_the_exact_n0(monkeypatch, rule, k, n_max, n0):
    exact = scan_conjecture(k, n_max, "exact", rule=rule)
    floated = scan_conjecture(k, n_max, "adaptive-float", rule=rule)
    assert exact.n0 == floated.n0 == n0
    assert floated.certified and floated.violations_checked == n0 - 1
    # float64 alone decides none of the comparisons at the first violation
    monkeypatch.setattr(analysis, "_ld_available", lambda: False)
    starved = scan_conjecture(k, n_max, "adaptive-float", rule=rule, exact_fallback=0)
    assert not starved.certified and starved.n0 is None


@pytest.fixture
def float64_only(monkeypatch):
    """The scan as it runs where numpy's longdouble is float64: no 64-bit pass."""
    monkeypatch.setattr(analysis, "_ld_available", lambda: False)


@pytest.mark.usefixtures("float64_only")
def test_float64_alone_certifies_k_up_to_12():
    # exact zeros below the leading index stay exact, so the leading
    # comparisons (0 >= 0) need no escalation either
    readme = {
        2: 6, 3: 21, 4: 39, 5: 73, 6: 135, 7: 251, 8: 475, 9: 917, 10: 1801, 11: 3595, 12: 7259,
    }
    for k, n0 in readme.items():
        report = scan_conjecture(k, mode="adaptive-float", exact_fallback=0)
        assert report.certified and report.n0 == n0
        assert report.violations_checked == n0 - 1


@pytest.mark.usefixtures("float64_only")
def test_scan_uncertified_when_escalation_disabled():
    # the near-tie rule has an enclosure overlap at 53 bits at its violation;
    # with no extended-precision rung and no exact fallback, the scan must
    # refuse to name n0 rather than guess
    report = scan_conjecture(3, 10, "adaptive-float", rule="near-tie-test", exact_fallback=0)
    assert not report.certified
    assert report.n0 is None


@needs_ld
def test_scan_longdouble_rechecks_only_what_float64_left_open(monkeypatch):
    calls = []
    multiply = BallSeries.multiply
    monkeypatch.setattr(
        BallSeries, "multiply", lambda a, b: calls.append((a.mid.dtype, a.order)) or multiply(a, b)
    )
    # float64 certifies the violation at n = 8 and leaves n = 5 open; with no
    # exact fallback only the longdouble pass can certify n0 = 5
    report = scan_conjecture(3, 10, "adaptive-float", rule="near-tie-test", exact_fallback=0)
    assert (report.k, report.n0, report.to_dict()["mode"]) == (3, 5, "adaptive-float")
    assert (report.n_max, report.certified, report.violations_checked) == (10, True, 4)
    assert scan_conjecture(3, 10, "exact", rule="near-tie-test").n0 == 5
    ld_orders = [order for dtype, order in calls if dtype == np.longdouble]
    assert 1 <= len(ld_orders) <= 4 and max(ld_orders) <= 6


def _stub_ball_scan(monkeypatch, f64, ld):
    """Make _ball_scan return the given (violation, undecided) per precision.

    Returns the list of (order, n_stop) the longdouble pass was called with.
    """
    ld_calls = []

    def stub(ball, k, n_stop):
        if ball.mid.dtype == np.float64:
            return analysis._BallScanOutcome(*f64)
        ld_calls.append((ball.order, n_stop))
        return analysis._BallScanOutcome(*ld)

    monkeypatch.setattr(analysis, "_ball_scan", stub)
    return ld_calls


@needs_ld
def test_scan_keeps_float64_certificates_the_longdouble_pass_leaves_open(monkeypatch):
    # float64 decides n = 5 and leaves 10 open; longdouble decides 10 but not 5
    ld_calls = _stub_ball_scan(monkeypatch, (21, [10]), (None, [5]))
    report = scan_conjecture(3, 300, "adaptive-float", exact_fallback=0)
    assert ld_calls == [(11, 10)]
    assert report.certified and report.n0 == 21 and report.violations_checked == 20


@needs_ld
def test_scan_takes_the_first_violation_of_either_precision(monkeypatch):
    ld_calls = _stub_ball_scan(monkeypatch, (40, [21, 30]), (21, []))
    report = scan_conjecture(3, 300, "adaptive-float", exact_fallback=0)
    assert ld_calls == [(31, 30)]
    assert report.certified and report.n0 == 21 and report.violations_checked == 20


@needs_ld
def test_scan_sends_only_doubly_open_n_to_the_exact_fallback(monkeypatch):
    _stub_ball_scan(monkeypatch, (21, [10, 12]), (None, [12]))
    # n = 12 holds exactly, so a fallback reaching it certifies
    report = scan_conjecture(3, 300, "adaptive-float", exact_fallback=12)
    assert report.certified and report.n0 == 21
    # one below it, the row is uncertified; it counts the n up to float64's
    # violation, less the one left open
    starved = scan_conjecture(3, 300, "adaptive-float", exact_fallback=11)
    assert not starved.certified and starved.n0 is None
    assert starved.violations_checked == 19


@st.composite
def extreme_rules(draw):
    """Non-negative coefficients m 10^e, 1e-300 <= m 10^e < 1e302, some leading zeros."""
    n_max = draw(st.integers(3, 12))
    lead = draw(st.integers(0, 3))
    scale = draw(st.integers(-300, 300))
    spread = draw(st.sampled_from([0, 3, 600]))
    terms = draw(st.lists(
        st.tuples(st.integers(0, 30), st.integers(-spread, spread)),
        min_size=n_max + 1, max_size=n_max + 1,
    ))
    return [0] * lead + [
        m * Fraction(10) ** max(-300, min(300, scale + d)) for m, d in terms[lead:]
    ]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(coeffs=extreme_rules(), k=st.integers(1, 4), fallback=st.sampled_from([0, 400]))
def test_adaptive_float_never_contradicts_exact(coeffs, k, fallback):
    n_max = len(coeffs) - 1
    register_series_rule(
        "hypothesis-test", lambda n: RationalSeries((coeffs + [0] * n)[: n + 1])
    )
    exact = scan_conjecture(k, n_max, "exact", rule="hypothesis-test")
    floated = scan_conjecture(
        k, n_max, "adaptive-float", rule="hypothesis-test", exact_fallback=fallback
    )
    if floated.certified:
        assert (floated.n0, floated.violations_checked) == (exact.n0, exact.violations_checked)
    else:
        assert floated.n0 is None
