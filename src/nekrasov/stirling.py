"""Unsigned Stirling numbers of the first kind and related inequalities.

The table rows satisfy sum_m [n m] t^m = t(t+1)...(t+n-1).  On top of the
table: harmonic numbers, Sibuya's ratio inequality, the geometric decay of
high-order ratios, and the coefficient machinery for products of binomials
binom(k_j + z, k_j) built from part multiplicities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable


# The largest n_max the table accepts.  Rows hold n + 1 integers of up to log2(n!)
# bits, so the table grows like N^3.3: about 30 MB at N = 500, some 2.5 GB at 2000.
TABLE_LIMIT = 500


class PreconditionError(ValueError):
    """A check was called outside its mathematical precondition."""


# Rows 0.. of the shared table, _rows[n][m] = [n m]: append-only and unlocked,
# since the package runs single-threaded.
_rows: list[list[int]] = [[1]]


def _grow(n_max: int) -> None:
    """Append rows to _rows until it holds 0..n_max; an n_max outside 0..TABLE_LIMIT raises ValueError."""
    if not 0 <= n_max <= TABLE_LIMIT:
        raise ValueError(f"n_max={n_max} is outside the Stirling range 0..{TABLE_LIMIT}")
    while len(_rows) <= n_max:  # [n+1 m] = [n m-1] + n [n m]
        n, prev = len(_rows) - 1, _rows[-1]
        _rows.append([a + n * b for a, b in zip([0] + prev, prev + [0])])


def stirling_rows(n_max: int) -> list[list[int]]:
    """Rows 0..n_max of unsigned first-kind Stirling numbers, [n 0..n] each, as copies."""
    _grow(n_max)
    return [list(row) for row in _rows[: n_max + 1]]


def stirling_unsigned(n: int, m: int) -> int:
    """[n m], growing the shared table on demand."""
    if n < 0 or m < 0 or m > n:
        raise ValueError(f"invalid Stirling indices [{n} {m}]")
    if n >= len(_rows):
        _grow(n)
    return _rows[n][m]


_h_memo: list[Fraction] = [Fraction(0)]


def harmonic(n: int) -> Fraction:
    """The n-th harmonic number, exactly."""
    if n < 1:
        raise ValueError("n must be positive")
    while len(_h_memo) <= n:
        m = len(_h_memo)
        _h_memo.append(_h_memo[m - 1] + Fraction(1, m))
    return _h_memo[n]


@dataclass(frozen=True)
class SibuyaResult:
    holds: bool
    ratio: Fraction
    refined_bound: Fraction
    harmonic_bound: Fraction


def sibuya_holds(n: int, m: int) -> bool:
    """Sibuya's inequality [n m]/[n m-1] <= (n-m+1) H_{n-1} / ((n-1)(m-1)), in integers.

    With H_{n-1} = p/q it reads [n m] q (n-1)(m-1) <= [n m-1] (n-m+1) p.
    The outer bound of sibuya_check, (n-m+1) H_{n-1} / ((n-1)(m-1)) <=
    H_{n-1}/(m-1), is n - m + 1 <= n - 1, which m >= 2 already gives.
    """
    if n < 2 or m < 2 or m > n:
        raise ValueError("requires n >= 2 and 2 <= m <= n")
    h = harmonic(n - 1)
    lhs = stirling_unsigned(n, m) * h.denominator * (n - 1) * (m - 1)
    return lhs <= stirling_unsigned(n, m - 1) * (n - m + 1) * h.numerator


def sibuya_check(n: int, m: int) -> SibuyaResult:
    """Sibuya's inequality for consecutive-ratio decay of Stirling rows.

    Checks [n m]/[n m-1] <= (n-m+1) H_{n-1} / ((n-1)(m-1)) <= H_{n-1}/(m-1),
    exactly (sibuya_holds), and returns the three compared quantities.
    """
    holds = sibuya_holds(n, m)
    ratio = Fraction(stirling_unsigned(n, m), stirling_unsigned(n, m - 1))
    h = harmonic(n - 1)
    refined = Fraction(n - m + 1) * h / ((n - 1) * (m - 1))
    outer = h / (m - 1)
    return SibuyaResult(holds, ratio, refined, outer)


_decay_starts: dict[int, int] = {}


def ratio_decay_start(n: int) -> int:
    """The least m >= 2 H_n + 1 (the ratio-decay precondition), as ceil(2 H_n) + 1 in integers."""
    start = _decay_starts.get(n)
    if start is None:
        h = harmonic(n)
        start = _decay_starts[n] = -(-2 * h.numerator // h.denominator) + 1
    return start


def stirling_ratio_decay_check(n: int, m: int, t: int) -> bool:
    """Verify [n+1 m+t+1] <= 2^-t [n+1 m+1] exactly, for m >= 2 H_n + 1.

    The start is computed once per n, and the two entries are read from
    row n + 1 of the shared table, whose indices the checks above bound.
    """
    if t < 0 or m < 1 or m + t > n:
        raise ValueError("requires t >= 0, m >= 1 and m + t <= n")
    if m < ratio_decay_start(n):
        raise PreconditionError(f"m={m} is below 2*H_{n}+1")
    if len(_rows) <= n + 1:
        _grow(n + 1)
    row = _rows[n + 1]
    return (1 << t) * row[m + t + 1] <= row[m + 1]


def _nonzero_counts(k_vec: Iterable[int]) -> list[int]:
    counts = []
    for k in k_vec:
        if k < 0:
            raise ValueError("multiplicities must be non-negative")
        if k > 0:
            counts.append(k)
    return counts


# Full products prod_j sum_l [k_j+1, l+1] z^l, keyed by the sorted nonzero counts.
# Every product depends only on the multiset of counts; the stirling suite's
# 604 (n, multiset) pairs of n <= 18 share 143 keys.
_products: dict[tuple[int, ...], list[int]] = {(): [1]}


def _product(key: tuple[int, ...]) -> list[int]:
    """The memoized product for sorted nonzero counts `key`; the stored list, not a copy.

    A missing key is the product for key[:-1] times one row [k+1, .] of its
    largest count k, and every prefix built on the way is stored too.
    """
    coeffs = _products.get(key)
    if coeffs is None:
        _grow(key[-1] + 1)
        cut = len(key) - 1
        while key[:cut] not in _products:
            cut -= 1
        coeffs = _products[key[:cut]]
        for end in range(cut + 1, len(key) + 1):
            k = key[end - 1]
            row = _rows[k + 1][1:]
            new = [0] * (len(coeffs) + k)
            for i, a in enumerate(coeffs):
                for l, b in enumerate(row):
                    new[i + l] += a * b
            coeffs = _products[key[:end]] = new
    return coeffs


def _product_prefix(counts: list[int], total: int) -> list[int]:
    """Coefficients 0..total of prod_j sum_l [k_j+1, l+1] z^l, zero-padded past its degree.

    A fresh list, so no caller can change a stored product.
    """
    coeffs = _product(tuple(sorted(counts)))
    return coeffs[: total + 1] + [0] * (total + 1 - len(coeffs))


def q_coeff_numerators(k_vec: Iterable[int]) -> tuple[list[int], int]:
    """Coefficients of prod_j binom(k_j + z, k_j) in z, as (numerators, prod_j k_j!).

    Each factor expands through the rising factorial:
    binom(k+z, k) = (1/k!) sum_l [k+1, l+1] z^l.  Entries with k_j = 0
    contribute the factor 1 and are skipped.
    """
    counts = _nonzero_counts(k_vec)
    return _product_prefix(counts, sum(counts)), math.prod(map(math.factorial, counts))


def q_coeffs(k_vec: Iterable[int]) -> list[Fraction]:
    """Coefficients of prod_j binom(k_j + z, k_j) in z, exactly."""
    coeffs, denom = q_coeff_numerators(k_vec)
    return [Fraction(c, denom) for c in coeffs]


def constrained_stirling_sum(k_vec: Iterable[int], total: int) -> int:
    """sum over (l_j) with sum l_j = total, 0 <= l_j <= k_j, of prod [k_j+1, l_j+1].

    This is the z^total coefficient of the product q_coeff_numerators
    expands, read from the memoized product.
    """
    if total < 0:
        return 0
    return _product_prefix(_nonzero_counts(k_vec), total)[total]


_ceil_harmonic: dict[int, int] = {}  # k -> ceil(H_k)


def descent_threshold(k_vec: Iterable[int], n: int) -> tuple[int, int]:
    """The comparison offsets (s, r) used by the descent and mode checks.

    r = ceil(log2 n); s sums 2*ceil(H_{k_j}) + r + 1 over the nonzero k_j.
    """
    if n < 2:
        raise ValueError("requires n >= 2")
    r = (n - 1).bit_length()
    s = 0
    for k in _nonzero_counts(k_vec):
        c = _ceil_harmonic.get(k)
        if c is None:
            h = harmonic(k)
            c = _ceil_harmonic[k] = -(-h.numerator // h.denominator)
        s += 2 * c + r + 1
    return s, r


@dataclass(frozen=True)
class DescentResult:
    s: int
    r: int
    lhs: int
    rhs: int
    holds: bool


def descent_check(k_vec: Iterable[int], n: int) -> DescentResult:
    """Compare the constrained Stirling sums at totals s and s - r.

    Establishes that the coefficient sequence of prod binom(k_j+z, k_j) has
    started descending by index s; the constant prod 1/k_j! cancels.
    """
    counts = _nonzero_counts(k_vec)
    s, r = descent_threshold(counts, n)
    sums = _product_prefix(counts, s)
    lhs, rhs = sums[s], (sums[s - r] if s >= r else 0)
    return DescentResult(s, r, lhs, rhs, lhs <= rhs)


@dataclass(frozen=True)
class ModeResult:
    mode: int
    s: int
    holds: bool


def mode_bound_check(k_vec: Iterable[int], n: int) -> ModeResult:
    """Check that the leftmost mode of q_coeffs(k_vec) (that of its numerators) is at most s."""
    counts = _nonzero_counts(k_vec)
    s, _ = descent_threshold(counts, n)
    coeffs = _product(tuple(sorted(counts)))  # read in place: the product has degree sum(counts)
    mode = coeffs.index(max(coeffs))
    return ModeResult(mode, s, mode <= s)
