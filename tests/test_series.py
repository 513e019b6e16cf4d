"""Exact series arithmetic against direct-summation and enumeration oracles."""

import math
import re
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import nekrasov
from nekrasov import darcais, series
from nekrasov.analysis import SCAN_LIMIT, scan_conjecture
from nekrasov.partitions import partition_count
from nekrasov.series import (
    _BLOCK,
    BallSeries,
    RationalSeries,
    _convolve_prefix,
    _PowerRow,
    _sum_terms,
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


def _loop_sigma_sieve(n_max):
    """The interpreted double loop the numpy sieve replaced: every d adds itself to its multiples."""
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            sig[m] += d
    return sig


@pytest.mark.parametrize("orders", [range(401), (4095, 4096, 4097, 8192, 8193, 10**4)])
def test_sigma_sieve_matches_the_loop(orders):
    # 4096 = 64^2 ends on a square pair; the exact callers need Python ints, not np.int64
    for n in orders:
        sieve = sigma_sieve(n)
        assert sieve == _loop_sigma_sieve(n), n
        assert all(type(x) is int for x in sieve), n


@pytest.mark.parametrize("n", [-1, -5])
@pytest.mark.parametrize("build", [sigma_sieve, BallSeries.divisor_sum_series, f_series])
def test_negative_order_is_refused(build, n):
    with pytest.raises(ValueError, match="^truncation order must be non-negative$"):
        build(n)


@pytest.mark.parametrize("dtype", [np.float64] + ([np.longdouble] if series._ld_available() else []))
def test_divisor_sum_series_midpoints_from_the_loop(dtype):
    # one correctly-rounded division of dtype-exact operands: bit-identical to the loop's sums
    n_max = 8192
    ball = BallSeries.divisor_sum_series(n_max, dtype)
    idx = np.arange(n_max + 1, dtype=dtype)
    idx[0] = 1
    assert np.array_equal(ball.mid, np.array(_loop_sigma_sieve(n_max), dtype) / idx)
    unit = np.finfo(dtype).eps / 2
    assert (ball.eps, ball.tau, ball.lead, ball.unit) == (2 * unit, 0, 1, unit)


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


def test_custom_series_refuses_a_rule_of_another_order():
    # a builder that ignores its order: read as order 2, its series would fail the
    # exact scan inside its kernel and the float scan in a numpy broadcast
    register_series_rule("fixed-order-test", lambda n: RationalSeries([0, 1, 1]))
    assert custom_series("fixed-order-test", 2).coeffs == (0, 1, 1)
    refusal = "series rule 'fixed-order-test' built order 2 when asked for order"
    with pytest.raises(ValueError, match=f"{refusal} 10$"):
        custom_series("fixed-order-test", 10)
    for mode, order in (("exact", 64), ("adaptive-float", 300)):
        with pytest.raises(ValueError, match=f"{refusal} {order}$"):
            scan_conjecture(1, 300, mode, rule="fixed-order-test")


def test_series_rule_registry_extension(monkeypatch):
    register_series_rule("ones-test", lambda n: RationalSeries([0] + [1] * n))
    assert custom_series("ones-test", 3).coeffs == (0, 1, 1, 1)
    assert scan_conjecture(1, 200, "exact", rule="ones-test").n0 is None
    # a user rule may be replaced, and the exact scans then drop the ladder of the old one:
    # reading it would report no violation, and growing it would raise ValueError
    register_series_rule("ones-test", lambda n: RationalSeries(([0] + [2, 1] * n)[: n + 1]))
    assert custom_series("ones-test", 3).coeffs == (0, 2, 1, 2)
    for n_max in (100, 300):
        report = scan_conjecture(1, n_max, "exact", rule="ones-test")
        assert (report.n0, report.certified, report.violations_checked) == (2, True, 1)
    # the built-in rules may not: series keys its sigma_{-1} fast paths on the name, so a
    # shadowing rule would scan and tabulate under the name in two different ways
    monkeypatch.setattr(series, "_SERIES_RULES", dict(series._SERIES_RULES))  # undo a shadowing
    rules = dict(series._SERIES_RULES)
    for name in ("sigma-minus-one", "remark-series"):
        with pytest.raises(ValueError, match=f"series rule '{name}' is built in"):
            register_series_rule(name, lambda n: RationalSeries([0] + [1] * n))
    assert series._SERIES_RULES == rules and rules["sigma-minus-one"] is f_series
    assert custom_series("sigma-minus-one", 8) == f_series(8)
    report = scan_conjecture(6, mode="adaptive-float")
    assert (report.n0, report.certified, report.violations_checked) == (135, True, 134)
    monkeypatch.setattr(darcais, "_ladder", darcais._QTable())
    assert darcais.q_via_recursion(4).coeffs == darcais.q_via_hooks(4).coeffs == (
        5, Fraction(109, 12), Fraction(119, 24), Fraction(11, 12), Fraction(1, 24))


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


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_divisor_sum_series_equals_the_rule_built_ball(dtype):
    # the float scan builds sigma_{-1} by the sieve, every other rule from
    # its Fractions; for sigma_{-1} the two are the same ball
    for n in (0, 1, 2, 3, 50, 1000, 8192):
        sieved = BallSeries.divisor_sum_series(n, dtype)
        ruled = BallSeries.from_fractions(custom_series("sigma-minus-one", n).coeffs, dtype)
        assert sieved.mid.dtype == ruled.mid.dtype == dtype
        assert np.array_equal(sieved.mid, ruled.mid), n
        assert (sieved.eps, sieved.tau, sieved.lead, sieved.unit) == (
            ruled.eps, ruled.tau, ruled.lead, ruled.unit), n


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


def test_scan_refuses_a_rule_too_long_for_str():
    # 10^5000 has more digits than int -> str converts by default
    register_series_rule(
        "ten-to-5000-test", lambda n: RationalSeries([0, 1, Fraction(10**5000)] + [1] * (n - 2))
    )
    with pytest.raises(ValueError, match=re.escape("coefficient 2 = about 10^5000 is outside")):
        scan_conjecture(2, 40, "adaptive-float", rule="ten-to-5000-test")


def test_only_series_names_the_fraction_power_kernels():
    # f^k has one exact kernel, _PowerRow; the Fraction products stay its reference
    names = re.compile(r"\b(series_multiply|series_power|f_powers?)\b")
    found = {
        path.name: names.findall(path.read_text())
        for path in Path(nekrasov.__file__).parent.glob("*.py")
        if path.name != "series.py"
    }
    assert {name: hits for name, hits in found.items() if hits} == {}


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
    # the radius is a function of the factors' scalars, so a square and the
    # product with an equal copy agree exactly
    for k in (1, 2, 3, 6):
        x = BallSeries.divisor_sum_series(300, dtype).power(k)
        square = x.multiply(x)
        general = x.multiply(BallSeries(x.mid.copy(), x.eps, x.tau, x.lead, x.unit))
        assert np.array_equal(square.mid, general.mid)
        assert (square.eps, square.tau, square.lead) == (general.eps, general.tau, general.lead)


def test_ball_multiply_runs_one_convolution(monkeypatch):
    calls = []
    convolve = series._convolve_prefix
    monkeypatch.setattr(series, "_convolve_prefix", lambda a, b: calls.append(b is a) or convolve(a, b))
    x, y = BallSeries.divisor_sum_series(100), BallSeries.from_fractions(f_series(100).coeffs)
    x.multiply(x)
    assert calls == [True]
    calls.clear()
    x.multiply(y)
    assert calls == [False]


def _lead(mid, rad):
    nonzero = np.flatnonzero((mid != 0) | (rad != 0))
    return int(nonzero[0]) if len(nonzero) else len(mid)


def _four_convolution_multiply(a, b):
    """A per-coefficient radius kernel on (mid, rad) pairs, the scalar radius's oracle.

    Four convolutions: the radius is bounded through mid*mid, the cross terms
    mid*rad and rad*mid, and rad*rad, plus a summation term g*mid and an
    underflow term.
    """
    (ma, ra), (mb, rb) = a, b
    n = len(ma)
    scalar = ma.dtype.type
    lu = _sum_terms(n) * float(np.finfo(ma.dtype).eps) / 2
    g = scalar(2.0 * lu / (1.0 - lu))
    tiny = scalar(2 * n + 2) * np.finfo(ma.dtype).smallest_subnormal
    mid = _convolve_prefix(ma, mb)
    cross = _convolve_prefix(ma, rb) + _convolve_prefix(mb, ra)
    rad = (cross + _convolve_prefix(ra, rb) + g * mid + tiny) * (scalar(1.0) + 4 * g)
    rad[: _lead(ma, ra) + _lead(mb, rb)] = 0
    return mid, rad


@pytest.mark.parametrize("dtype", DTYPES)
def test_scalar_radius_matches_the_four_convolution_oracle(dtype):
    ball = BallSeries.divisor_sum_series(300, dtype)
    base = (ball.mid, ball.mid * ball.eps)  # f's radius, 2u mid, as the oracle had it
    for k in range(1, 14):
        x = ball.power(k)
        acc = base
        for bit in bin(k)[3:]:
            acc = _four_convolution_multiply(acc, acc)
            if bit == "1":
                acc = _four_convolution_multiply(acc, base)
        mid, rad = acc
        assert np.array_equal(x.mid, mid), k
        assert x.lead == k and np.all(x.rad[:k] == 0) and np.all(rad[:k] == 0)
        assert np.all(np.abs(x.rad[k:] - rad[k:]) <= 1e-6 * rad[k:]), k


def _corners(ball):
    """The exact lowest and highest series inside a ball."""
    lo, hi = [], []
    for n, m in enumerate(ball.mid):
        m, eps, tau = _as_fraction(m), _as_fraction(ball.eps), _as_fraction(ball.tau)
        inside = n >= ball.lead
        lo.append(max(m - eps * m - tau, 0) if inside else Fraction(0))
        hi.append(m + eps * m + tau if inside else Fraction(0))
    return RationalSeries(lo), RationalSeries(hi)


@pytest.mark.parametrize("dtype", DTYPES)
def test_wide_balls_enclose_the_products_of_their_corners(dtype):
    # eps = 1/2 and tau = 1/4: the cross term eps_a eps_b and the propagated
    # tau are as large as the rest of the radius
    unit = float(np.finfo(dtype).eps) / 2
    mid_a = np.array([0, 0, 1, 3, 0, 2, 5, 1], dtype=dtype)
    mid_b = np.array([0, 4, 1, 0, 7, 1, 2, 3], dtype=dtype)
    a = BallSeries(mid_a, dtype(0.5), dtype(0.25), 2, unit)
    b = BallSeries(mid_b, dtype(0.5), dtype(0.25), 1, unit)
    (a_lo, a_hi), (b_lo, b_hi) = _corners(a), _corners(b)
    for x, y, low, high in ((a, b, series_multiply(a_lo, b_lo), series_multiply(a_hi, b_hi)),
                            (a, a, series_multiply(a_lo, a_lo), series_multiply(a_hi, a_hi))):
        lo, hi = x.multiply(y).bounds()
        for n in range(len(mid_a)):
            assert _as_fraction(lo[n]) <= low[n] and high[n] <= _as_fraction(hi[n]), n


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


def _view_convolve_prefix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`_convolve_prefix` as first written, np.convolve on the blocks themselves:
    the oracle of its aligned buffer."""
    n = len(a)
    out = np.zeros(n, dtype=np.result_type(a, b))
    if b is a:
        for s in range(0, (n + 1) // 2, _BLOCK):
            block = a[s : s + _BLOCK]
            diag = np.convolve(block, block)[: n - 2 * s]
            out[2 * s : 2 * s + len(diag)] += diag
            t = s + len(block)
            if t < n - s:
                out[s + t :] += 2 * np.convolve(block, a[t : n - s])[: n - s - t]
    else:
        for s in range(0, n, _BLOCK):
            out[s:] += np.convolve(a[s : s + _BLOCK], b[: n - s])[: n - s]
    return out


@pytest.mark.parametrize("dtype", DTYPES)
def test_convolve_prefix_reproduces_the_view_kernel_on_floats(dtype):
    # random floats round differently under any other order, so equal bits mean
    # the same products in the same order, wherever a lies
    rng = np.random.default_rng(7)
    for n in (_BLOCK - 1, 2 * _BLOCK + 1, 3 * _BLOCK + 7):
        spread = rng.random(n + 8).astype(dtype)
        other = rng.random(n).astype(dtype)
        for offset in range(4):
            a = spread[offset : offset + n]
            for x, y in ((a, other), (other, a), (a, a)):
                assert np.array_equal(_convolve_prefix(x, y), _view_convolve_prefix(x, y)), (n, offset)


class _Rounded:
    """A float value by its history: the most roundings any product in it passed.

    Multiplying two of them rounds once; scaling by a plain number (the exact
    doubling of a square's off-diagonal blocks) does not round; adding to the
    plain 0 an output array starts from is exact, and any other sum rounds once.
    """

    __slots__ = ("depth",)

    def __init__(self, depth):
        self.depth = depth

    def __mul__(self, other):
        return _Rounded(max(self.depth, other.depth) + 1) if isinstance(other, _Rounded) else self

    def __add__(self, other):
        return _Rounded(max(self.depth, other.depth) + 1) if isinstance(other, _Rounded) else self

    __rmul__ = __mul__
    __radd__ = __add__


def _depths(values):
    return [v.depth if isinstance(v, _Rounded) else 0 for v in values]


def _leaves(n):
    return np.array([_Rounded(0) for _ in range(n)], dtype=object)


def test_numpy_convolve_is_one_dot_per_output():
    # the model the counted kernel below relies on: np.convolve forms each
    # output as one dot, so a product in it passes through at most as many
    # roundings as the dot has products
    for p, q in ((1, 1), (1, 7), (7, 1), (5, 9), (40, 40), (3, 60)):
        got = _depths(np.convolve(_leaves(p), _leaves(q)))
        assert got == [int(c) for c in np.convolve(np.ones(p), np.ones(q))], (p, q)


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_sum_terms_covers_every_output_of_the_kernel(monkeypatch, n):
    # np.convolve is replaced by the roundings of its dots (one per output,
    # as checked above), so the kernel's block additions and exact doublings
    # run for real on the counts
    convolve = np.convolve

    def counted(x, y):
        lengths = convolve(np.ones(len(x)), np.ones(len(y)))
        return np.array([_Rounded(int(c)) for c in lengths], dtype=object)

    monkeypatch.setattr(np, "convolve", counted)
    a, b = _leaves(n), _leaves(n)
    for x, y in ((a, b), (a, a)):
        depths = _depths(_convolve_prefix(x, y))
        assert len(depths) == n and depths[0] == 1
        assert max(depths) <= _sum_terms(n), (n, y is x, max(depths))


def test_sum_terms_never_exceeds_one_plain_sum():
    # the bound is never looser than gamma of a single sum of 2n + 16 terms
    # for any length a scan can reach, and it is tighter for every n > 2
    terms = [_sum_terms(n) for n in range(1, SCAN_LIMIT + 2)]
    assert all(t <= 2 * n + 16 for n, t in enumerate(terms, start=1))
    assert all(t < 2 * n + 16 for n, t in enumerate(terms, start=1) if n > 2)


def _sigma_thirds(n: int) -> RationalSeries:
    # sigma(m)/3: inexact in binary floating point, small integers over 3^k exactly
    return RationalSeries([0] + [Fraction(s, 3) for s in sigma_sieve(n)[1:]])


register_series_rule("sigma-thirds-test", _sigma_thirds)
BLOCKS_ORDER = 3 * _BLOCK + 7  # spans four blocks; order + 1 is no multiple of _BLOCK


@pytest.fixture(scope="module")
def sigma_thirds_rows():
    """One exact ladder of (sigma/3)^k, k = 0..8, to BLOCKS_ORDER; k = 8 takes three squares."""
    ladder = _PowerRow("sigma-thirds-test")
    ladder.extend(BLOCKS_ORDER, 8)
    return ladder


@pytest.mark.parametrize("dtype", DTYPES)
def test_ball_power_encloses_exact_rows_across_blocks(sigma_thirds_rows, dtype):
    ball = BallSeries.from_fractions(custom_series("sigma-thirds-test", BLOCKS_ORDER).coeffs, dtype)
    for k in range(1, 9):
        lo, hi = ball.power(k).bounds()
        scale = sigma_thirds_rows.denoms[k]
        for n, num in enumerate(sigma_thirds_rows.rows[k]):
            assert _as_fraction(lo[n]) * scale <= num <= _as_fraction(hi[n]) * scale, (k, n)
            if num:
                assert (hi[n] - lo[n]) * scale < 1e-9 * num, (k, n)
            else:
                assert lo[n] == hi[n] == 0, (k, n)


def test_ball_multiply_radius_covers_underflow():
    # (10^-300 q)^2 underflows to 0 in float64; the enclosure must still hold it
    ball = BallSeries.from_fractions(_tiny_series(4).coeffs)
    square = ball.multiply(ball)
    lo, hi = square.bounds()
    assert square.mid[2] == 0 and hi[2] > 0 and lo[2] == 0
    assert lo[1] == hi[1] == 0


@pytest.mark.parametrize("exponent", [160, 170])
def test_underflowed_square_times_a_huge_series_keeps_its_enclosure(exponent):
    # the square of sigma_{-1} 10^-e rounds to subnormals (e = 160) or to 0
    # (e = 170); only the absolute term it inherits bounds those coefficients
    # once they are multiplied by sigma_{-1} 10^300 up to about 10^-40
    small = RationalSeries([0] + [sigma_minus1(i) / 10**exponent for i in range(1, 13)])
    huge = RationalSeries([0] + [sigma_minus1(i) * 10**300 for i in range(1, 13)])
    square = BallSeries.from_fractions(small.coeffs).power(2)
    assert square.tau > 0 and square.mid[2] < np.finfo(np.float64).tiny
    ball = square.multiply(BallSeries.from_fractions(huge.coeffs))
    exact = series_multiply(series_multiply(small, small), huge)
    lo, hi = ball.bounds()
    for n, c in enumerate(exact):
        assert _as_fraction(lo[n]) <= c <= _as_fraction(hi[n]), n
    assert ball.lead == 3 and lo[2] == hi[2] == 0


def test_an_overflowed_midpoint_sum_makes_the_absolute_term_infinite():
    # (10^-200 q + 10^200 q^2)^2 underflows at q^2 (tau > 0) and overflows at
    # q^4; the next square needs the sum of those midpoints to bound tau
    square = BallSeries.from_fractions([Fraction(0), Fraction(1, 10**200), Fraction(10**200)]
                                       + [Fraction(0)] * 6).power(2)
    assert square.tau > 0 and np.isinf(square.mid[4])
    with np.errstate(over="ignore", invalid="ignore"):
        fourth = square.multiply(square)
    assert np.isinf(fourth.tau) and not np.any(np.isfinite(fourth.rad[fourth.lead:]))
