"""Exact series arithmetic against direct-summation and enumeration oracles."""

import math
import re
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from nekrasov.analysis import _PowerRow
from nekrasov.partitions import partition_count
from nekrasov.series import (
    _BLOCK,
    BallSeries,
    RationalSeries,
    _convolve_prefix,
    custom_series,
    divisor_sigma,
    f_series,
    ln_lower_bound,
    partition_series,
    pi2_over_6_bounds,
    register_series_rule,
    series_exp,
    series_multiply,
    series_power,
    sigma_minus1,
    sigma_sieve,
)


def ref_sigma_minus1(n):
    return sum(Fraction(1, d) for d in range(1, n + 1) if n % d == 0)


def ref_power_coefficient(s, k, n):
    """c_{n,k} by brute-force summation over compositions of n into k parts."""
    if k == 0:
        return Fraction(1 if n == 0 else 0)
    total = Fraction(0)
    for combo in product(range(n + 1), repeat=k):
        if sum(combo) == n:
            term = Fraction(1)
            for a in combo:
                term *= s[a]
            total += term
    return total


def test_sigma_minus1_examples():
    assert sigma_minus1(1) == 1
    assert sigma_minus1(4) == Fraction(7, 4)
    assert sigma_minus1(6) == 2
    with pytest.raises(ValueError):
        sigma_minus1(0)


def test_sigma_minus1_against_divisor_enumeration():
    for n in range(1, 201):
        assert sigma_minus1(n) == ref_sigma_minus1(n)


def test_sigma_sieve_matches_divisor_sigma():
    sieve = sigma_sieve(300)
    assert all(sieve[n] == divisor_sigma(n) for n in range(1, 301))


def test_f_series_values():
    assert f_series(0).coeffs == (Fraction(0),)
    assert f_series(3).coeffs == (0, 1, Fraction(3, 2), Fraction(4, 3))
    assert f_series(6)[6] == 2


def test_series_multiply_identity_and_shift():
    one = RationalSeries([1])
    assert series_multiply(one, one) == one
    q = RationalSeries([0, 1, 0, 0])
    q2 = series_multiply(q, q)
    assert q2.coeffs == (0, 0, 1, 0)


def test_series_multiply_f_squared():
    f = f_series(4)
    assert series_multiply(f, f)[4] == Fraction(59, 12)


def test_series_multiply_rejects_mismatched_orders():
    with pytest.raises(ValueError):
        series_multiply(RationalSeries([1, 2]), RationalSeries([1]))


def test_series_power_trivial():
    f = f_series(5)
    p0 = series_power(f, 0)
    assert p0.coeffs == (1, 0, 0, 0, 0, 0)
    assert series_power(f, 1) == f


def test_series_power_examples():
    f = f_series(7)
    f2 = series_power(f, 2)
    assert f2[3] == 3
    assert f2[7] == Fraction(184, 15)


@pytest.mark.parametrize("k", [2, 3])
def test_series_power_composition_oracle(k):
    f = f_series(10)
    fk = series_power(f, k)
    for n in range(11):
        assert fk[n] == ref_power_coefficient(f.coeffs, k, n)


def test_partition_series_values():
    assert partition_series(0).coeffs == (1,)
    assert partition_series(5).coeffs == (1, 1, 2, 3, 5, 7)
    ps = partition_series(100)
    assert all(ps[n] == partition_count(n) for n in range(101))


def test_partition_series_product_oracle():
    # multiply the truncated geometric factors 1/(1-q^m) directly
    n_max = 40
    prod = RationalSeries([1] + [0] * n_max)
    for m in range(1, n_max + 1):
        factor = RationalSeries([1 if i % m == 0 else 0 for i in range(n_max + 1)])
        prod = series_multiply(prod, factor)
    assert prod == partition_series(n_max)


def test_series_exp_trivial():
    zero = RationalSeries([0, 0, 0])
    assert series_exp(zero).coeffs == (1, 0, 0)
    q = RationalSeries([0, 1, 0, 0, 0])
    e = series_exp(q)
    assert all(e[m] == Fraction(1, math.factorial(m)) for m in range(5))


def test_series_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        series_exp(RationalSeries([1, 0]))


def test_exp_of_f_is_partition_series():
    assert series_exp(f_series(50)) == partition_series(50)


def test_power_consistency():
    f = f_series(100)
    powers = {j: series_power(f, j) for j in range(1, 7)}
    for a in range(1, 6):
        for b in range(1, 7 - a):
            assert series_multiply(powers[a], powers[b]) == powers[a + b]


def test_custom_series_remark():
    s = custom_series("remark-series", 4)
    assert s.coeffs == (0, 1, Fraction(3, 2), 1, Fraction(3, 2))
    assert custom_series("remark-series", 1).coeffs == (0, 1)


def test_custom_series_sigma_rule():
    assert custom_series("sigma-minus-one", 3) == f_series(3)


def test_custom_series_unknown_rule():
    with pytest.raises(ValueError):
        custom_series("no-such-rule", 5)


def test_series_rule_registry_extension():
    register_series_rule("ones-test", lambda n: RationalSeries([0] + [1] * n))
    assert custom_series("ones-test", 3).coeffs == (0, 1, 1, 1)


def test_dump_format():
    assert f_series(3).dump_lines() == ["0\t0", "1\t1", "2\t3/2", "3\t4/3"]


def test_pi2_over_6_enclosure():
    lo, hi = pi2_over_6_bounds()
    assert hi - lo < Fraction(1, 2**128)
    # independent sandwich: partial sums of 1/i^2 with integral tail bounds
    m = 300
    partial = sum(Fraction(1, i * i) for i in range(1, m + 1))
    assert partial + Fraction(1, m + 1) < lo < hi < partial + Fraction(1, m)


def test_c_coefficient_upper_bound():
    # c_{n,k} <= (pi^2/6)^k n^k / k!, checked against the enclosure's low side
    lo6, _ = pi2_over_6_bounds()
    f = f_series(200)
    fk = f
    for k in range(1, 6):
        if k > 1:
            fk = series_multiply(fk, f)
        bound_base = lo6**k / math.factorial(k)
        for n in range(1, 201):
            assert fk[n] <= bound_base * n**k
    # also catch the bound being vacuous: at n=k the coefficient is 1
    assert f[1] == 1


def test_sigma_minus1_range():
    # 1 <= sigma_{-1}(i) <= 2 + ln i for 2 <= i <= 10^4
    sieve = sigma_sieve(10**4)
    for i in range(2, 10**4 + 1):
        value = Fraction(sieve[i], i)
        assert 1 <= value
        assert value <= 2 + ln_lower_bound(i)


def test_ln_lower_bound_is_lower_and_tight():
    for n in (2, 3, 10, 97, 1024, 99991):
        lo = ln_lower_bound(n)
        assert float(lo) <= math.log(n)
        assert math.log(n) - float(lo) < 1e-9


def test_ball_series_encloses_exact_power():
    f_exact = series_power(f_series(50), 3)
    ball = BallSeries.divisor_sum_series(50).power(3)
    lo, hi = ball.bounds()
    for n in range(51):
        assert lo[n] <= f_exact[n] <= hi[n]
        if f_exact[n] != 0:
            assert (hi[n] - lo[n]) / float(f_exact[n]) < 1e-10


def test_ball_series_from_fractions_encloses():
    coeffs = custom_series("remark-series", 30).coeffs
    exact = series_power(custom_series("remark-series", 30), 2)
    ball = BallSeries.from_fractions(coeffs).power(2)
    lo, hi = ball.bounds()
    assert all(lo[n] <= exact[n] <= hi[n] for n in range(31))


@pytest.mark.parametrize(
    "value, shown",
    [
        (Fraction(1, 10**400), "about 10^-400"),  # underflows to 0.0
        (Fraction(3, 10**310), "about 10^-310"),  # subnormal in float64
        (Fraction(10**400), "about 10^400"),  # float() overflows
    ],
)
def test_ball_series_from_fractions_refuses_outside_normal_range(value, shown):
    for dtype in (np.float64, np.longdouble):
        with pytest.raises(ValueError, match=re.escape(f"coefficient 2 = {shown} is ")):
            BallSeries.from_fractions([Fraction(0), Fraction(1), value], dtype)


def test_ball_series_longdouble_tighter():
    if np.finfo(np.longdouble).nmant <= 52:
        pytest.skip("extended precision unavailable on this platform")
    b64 = BallSeries.divisor_sum_series(100).power(4)
    b80 = BallSeries.divisor_sum_series(100, np.longdouble).power(4)
    assert float(b80.rad[100]) < float(b64.rad[100])


# ---------------------------------------------------------------------------
# Binary powering, squares and underflow, against the exact Fraction powers
# ---------------------------------------------------------------------------

DTYPES = [np.float64] + ([np.longdouble] if np.finfo(np.longdouble).nmant > 52 else [])
POWER_ORDER = 200


def _as_fraction(x):
    return Fraction(*x.as_integer_ratio())


def _tiny_series(n):
    """sigma_{-1}(n) 10^-300: its squares underflow in float64."""
    return RationalSeries([0] + [sigma_minus1(i) / 10**300 for i in range(1, n + 1)])


@pytest.fixture(scope="module")
def sigma_powers():
    """[f^1, ..., f^13] to POWER_ORDER, by k - 1 Fraction products."""
    f = f_series(POWER_ORDER)
    powers = [f]
    for _ in range(12):
        powers.append(series_multiply(powers[-1], f))
    return powers


@pytest.mark.parametrize("scale", [1, Fraction(1, 10**300)], ids=["1", "1e-300"])
@pytest.mark.parametrize("dtype", DTYPES)
def test_ball_power_encloses_exact_series_power(sigma_powers, dtype, scale):
    # scale 10^-300 makes every square underflow in float64
    ball = BallSeries.from_fractions([c * scale for c in sigma_powers[0]], dtype)
    for k, exact in enumerate(sigma_powers, start=1):
        lo, hi = ball.power(k).bounds()
        for n, c in enumerate(exact):
            assert _as_fraction(lo[n]) <= c * scale**k <= _as_fraction(hi[n]), (k, n)
            if n < k:  # below the leading index the enclosure is the exact 0
                assert lo[n] == hi[n] == 0


def test_ball_power_counts_binary_powering(monkeypatch):
    calls = []
    multiply = BallSeries.multiply
    monkeypatch.setattr(BallSeries, "multiply", lambda a, b: calls.append(b is a) or multiply(a, b))
    ball = BallSeries.divisor_sum_series(20)
    for k in range(1, 14):
        calls.clear()
        ball.power(k)
        squares = k.bit_length() - 1
        assert calls.count(True) == squares
        assert calls.count(False) == bin(k).count("1") - 1


@pytest.mark.parametrize("dtype", DTYPES)
def test_ball_square_matches_general_product(dtype):
    # the square sums the cross term once and doubles it, so its radius
    # differs from the four-convolution product only by summation order
    unit = float(np.finfo(dtype).eps) / 2
    for k in (1, 2, 3, 6):
        x = BallSeries.divisor_sum_series(300, dtype).power(k)
        square = x.multiply(x)
        general = x.multiply(BallSeries(x.mid.copy(), x.rad.copy(), x.unit))
        assert np.array_equal(square.mid, general.mid)
        assert np.all(np.abs(square.rad - general.rad) <= 4 * unit * general.rad)


# ---------------------------------------------------------------------------
# The prefix convolution kernel, and enclosures that span several of its blocks
# ---------------------------------------------------------------------------

PREFIX_LENGTHS = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 3 * _BLOCK + 7]


@pytest.mark.parametrize("n", PREFIX_LENGTHS)
@pytest.mark.parametrize("dtype", DTYPES)
def test_convolve_prefix_matches_numpy_bit_for_bit(dtype, n):
    # small integers: every product and partial sum is exact, so any grouping
    # of the same products must give numpy's values exactly
    rng = np.random.default_rng(n)
    a = rng.integers(0, 64, n).astype(dtype)
    b = rng.integers(0, 64, n).astype(dtype)
    for x, y in ((a, b), (b, a), (a, a), (a, a.copy())):
        got = _convolve_prefix(x, y)
        assert got.dtype == dtype
        assert np.array_equal(got, np.convolve(x, y)[:n])


def _sigma_thirds(n: int) -> RationalSeries:
    # sigma(m)/3: inexact in binary floating point, small integers over 3^k exactly
    return RationalSeries([0] + [Fraction(s, 3) for s in sigma_sieve(n)[1:]])


register_series_rule("sigma-thirds-test", _sigma_thirds)
BLOCKS_ORDER = 3 * _BLOCK + 7  # spans four blocks; order + 1 is no multiple of _BLOCK


@pytest.fixture(scope="module")
def sigma_thirds_rows():
    """Exact rows of (sigma/3)^k, k = 1..4, to BLOCKS_ORDER."""
    rows = []
    for k in range(1, 5):
        row = _PowerRow(k, "sigma-thirds-test")
        row.extend(BLOCKS_ORDER)
        rows.append(row)
    return rows


@pytest.mark.parametrize("dtype", DTYPES)
def test_ball_power_encloses_exact_rows_across_blocks(sigma_thirds_rows, dtype):
    ball = BallSeries.from_fractions(custom_series("sigma-thirds-test", BLOCKS_ORDER).coeffs, dtype)
    for row in sigma_thirds_rows:
        lo, hi = ball.power(row.k).bounds()
        scale = row.denom**row.k
        for n, num in enumerate(row.nums):
            assert _as_fraction(lo[n]) * scale <= num <= _as_fraction(hi[n]) * scale, (row.k, n)
            if num:
                assert (hi[n] - lo[n]) * scale < 1e-9 * num, (row.k, n)
            else:
                assert lo[n] == hi[n] == 0, (row.k, n)


def test_ball_multiply_radius_covers_underflow():
    # (10^-300 q)^2 underflows to 0 in float64; the enclosure must still hold it
    ball = BallSeries.from_fractions(_tiny_series(4).coeffs)
    square = ball.multiply(ball)
    lo, hi = square.bounds()
    assert square.mid[2] == 0 and hi[2] > 0 and lo[2] == 0
    assert lo[1] == hi[1] == 0
