"""Diagnostics, scanners, ratio reports, and the surrogate sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nekrasov import analysis
from nekrasov.analysis import (
    SCAN_LIMIT,
    _PowerRow,
    coefficient_c,
    hardy_ramanujan_ratio,
    is_log_concave,
    is_unimodal,
    partial_sum_ratio,
    scan_conjecture,
    scan_conjecture_custom,
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
    custom_series,
    f_series,
    register_series_rule,
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
    with pytest.raises(ValueError):
        scan_conjecture(2, 100, "exact", precision_cap=40)


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
    a = scan_conjecture(2, 64, "exact")
    b = scan_conjecture_custom("sigma-minus-one", 2, 64, "exact")
    assert (a.n0, a.violations_checked) == (b.n0, b.violations_checked)


def test_scan_custom_remark_k1():
    # coefficients 1, 3/2, 1, 3/2, ...: first violation at n = 3 (1 < 9/4)
    report = scan_conjecture_custom("remark-series", 1, 50)
    assert report.n0 == 3
    s = custom_series("remark-series", 10).coeffs
    assert s[3] * s[3] < s[2] * s[4]
    assert s[2] * s[2] >= s[1] * s[3]


def test_scan_custom_remark_k2_modes_agree():
    exact = scan_conjecture_custom("remark-series", 2, 200, "exact")
    floated = scan_conjecture_custom("remark-series", 2, 200, "adaptive-float")
    assert exact.n0 == floated.n0
    assert exact.certified and floated.certified
    # oracle: direct exact convolution and first-violation search
    sq = series_power(custom_series("remark-series", 200), 2).coeffs
    expected = next(
        (n for n in range(2, 200) if sq[n] * sq[n] < sq[n - 1] * sq[n + 1]), None
    )
    assert exact.n0 == expected


def test_scan_report_csv_shape():
    report = scan_conjecture(2, 64)
    row = report.csv_row()
    fields = row.split(",")
    assert fields[0] == "2" and fields[1] == "6" and fields[2] == "exact"
    assert fields[4] == "64"


def test_scan_uncertified_when_escalation_disabled():
    # k = 12 has enclosure overlaps at 53 bits near its violation; with the
    # extended-precision rung capped away and no exact fallback, the scan
    # must refuse to name n0 rather than guess
    report = scan_conjecture(
        12, mode="adaptive-float", precision_cap=53, exact_fallback=0
    )
    assert not report.certified
    assert report.n0 is None


def test_scan_exact_fallback_decides_ties():
    # a geometric series is log-concave with equality everywhere, which no
    # finite-precision enclosure can certify; only the exact rung can
    from nekrasov.series import RationalSeries, register_series_rule

    register_series_rule(
        "geometric-test",
        lambda n: RationalSeries([0] + [Fraction(1, 2**i) for i in range(1, n + 1)]),
    )
    report = scan_conjecture_custom(
        "geometric-test", 1, 20, "adaptive-float", exact_fallback=25
    )
    assert report.certified and report.n0 is None
    starved = scan_conjecture_custom(
        "geometric-test", 1, 20, "adaptive-float", exact_fallback=0
    )
    assert not starved.certified and starved.n0 is None
    exact = scan_conjecture_custom("geometric-test", 1, 20, "exact")
    assert exact.certified and exact.n0 is None


def test_ratio_report_csv_shape():
    report = partial_sum_ratio(2, 16)
    fields = report.csv_row().split(",")
    assert fields[0] == "2" and fields[1] == "16"
    assert float(fields[2]) == report.ratio_lo
    assert float(fields[3]) == report.ratio_hi
    assert float(fields[4]) == report.envelope


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


def _row_values(row: _PowerRow) -> list[Fraction]:
    return [Fraction(c, row.denom**row.k) for c in row.nums]


@pytest.mark.parametrize("rule", KERNEL_RULES)
def test_power_row_matches_series_power(rule):
    f = custom_series(rule, 60)
    for k in range(10):
        oracle = list(series_power(f, k).coeffs)
        built = _PowerRow(k, rule)
        built.extend(60)
        assert _row_values(built) == oracle
        grown = _PowerRow(k, rule)
        for order in (5, 17, 40, 60):
            grown.extend(order)
            assert _row_values(grown) == oracle[: order + 1]


def test_power_row_late_start_through_first_order():
    f = custom_series("late-start-test", 200)
    for k in (1, 2):
        row = _PowerRow(k, "late-start-test")
        row.extend(64)
        assert not any(row.nums)
        row.extend(128)
        row.extend(200)
        sq = series_power(f, k).coeffs
        assert _row_values(row) == list(sq)
        expected = next((n for n in range(2, 200) if sq[n] * sq[n] < sq[n - 1] * sq[n + 1]), None)
        report = scan_conjecture_custom("late-start-test", k, 200, "exact")
        assert report.certified and report.n0 == expected


def test_power_row_extended_in_steps_equals_built_at_once():
    for rule in ("sigma-minus-one", "remark-series", "late-start-test", "mixed-signs-test"):
        for k in (2, 5):
            grown = _PowerRow(k, rule)
            for order in (64, 100, 200):
                grown.extend(order)
            built = _PowerRow(k, rule)
            built.extend(200)
            assert (grown.nums, grown.denom, grown.base) == (built.nums, built.denom, built.base)


@pytest.mark.parametrize(
    "rule", ["sigma-minus-one", "remark-series", "late-start-test", "mixed-signs-test"]
)
def test_power_row_square_grown_equals_the_full_product(rule):
    # k = 2 sums each pair i < n - i once and doubles it; the oracle forms
    # every pair, so it shares no code with the kernel
    row = _PowerRow(2, rule)
    for order in (64, 100, 200):
        row.extend(order)
    base = row.base
    assert row.nums == [sum(base[i] * base[n - i] for i in range(n + 1)) for n in range(201)]


def test_power_row_refuses_a_rule_that_rewrites_its_prefix():
    register_series_rule(
        "order-dependent-test", lambda n: RationalSeries([0] + [Fraction(1, n)] * n)
    )
    row = _PowerRow(2, "order-dependent-test")
    row.extend(10)
    with pytest.raises(ValueError, match="changed its coefficients"):
        row.extend(20)


def test_exact_scan_checks_the_order_it_doubled_from():
    # c_n = 1 except c_65 = 3: equality up to n = 63, first violation at n = 64,
    # the first order of the scan, which only the second pass can check
    register_series_rule(
        "bump-at-65-test", lambda n: RationalSeries([1 + 2 * (m == 65) for m in range(n + 1)])
    )
    report = scan_conjecture_custom("bump-at-65-test", 1, 200, "exact")
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


def test_scan_bound_limit():
    with pytest.raises(ValueError, match=str(SCAN_LIMIT)):
        scan_conjecture(30)
    with pytest.raises(ValueError, match=str(SCAN_LIMIT)):
        scan_conjecture(3, SCAN_LIMIT + 1, "exact")


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


@pytest.mark.parametrize("rule,k,n_max,n0", [
    ("tiny-sigma-test", 2, 256, 6),
    ("tiny-sigma-test", 3, 256, 21),
    ("huge-test", 1, 20, 2),
])
def test_scan_extreme_magnitudes_certify_the_exact_n0(rule, k, n_max, n0):
    exact = scan_conjecture_custom(rule, k, n_max, "exact")
    floated = scan_conjecture_custom(rule, k, n_max, "adaptive-float")
    assert exact.n0 == floated.n0 == n0
    assert floated.certified and floated.violations_checked == n0 - 1
    # float64 alone decides none of the comparisons at the first violation
    starved = scan_conjecture_custom(
        rule, k, n_max, "adaptive-float", precision_cap=53, exact_fallback=0
    )
    assert not starved.certified and starved.n0 is None


def test_float64_alone_certifies_k_up_to_11():
    # exact zeros below the leading index stay exact, so the leading
    # comparisons (0 >= 0) need no escalation either
    readme = {2: 6, 3: 21, 4: 39, 5: 73, 6: 135, 7: 251, 8: 475, 9: 917, 10: 1801, 11: 3595}
    for k, n0 in readme.items():
        report = scan_conjecture(k, mode="adaptive-float", precision_cap=53, exact_fallback=0)
        assert report.certified and report.n0 == n0


@needs_ld
def test_scan_k12_rechecks_only_what_float64_left_open(monkeypatch):
    calls = []
    multiply = BallSeries.multiply
    monkeypatch.setattr(
        BallSeries, "multiply", lambda a, b: calls.append((a.mid.dtype, a.order)) or multiply(a, b)
    )
    report = scan_conjecture(12, mode="adaptive-float")
    # the README row: k = 12, n0 = 7259, certified, n_max = 8192
    assert report.csv_row().split(",")[:3] == ["12", "7259", "adaptive-float"]
    assert (report.n_max, report.certified, report.violations_checked) == (8192, True, 7258)
    ld_orders = [order for dtype, order in calls if dtype == np.longdouble]
    assert 1 <= len(ld_orders) <= 4 and max(ld_orders) <= 7260


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
    exact = scan_conjecture_custom("hypothesis-test", k, n_max, "exact")
    floated = scan_conjecture_custom(
        "hypothesis-test", k, n_max, "adaptive-float", exact_fallback=fallback
    )
    if floated.certified:
        assert (floated.n0, floated.violations_checked) == (exact.n0, exact.violations_checked)
    else:
        assert floated.n0 is None
