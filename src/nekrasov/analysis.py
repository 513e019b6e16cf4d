"""Log-concavity diagnostics, conjecture scanners, and ratio reports.

The scanners look for the first n where the coefficients c_{n,k} of f(q)^k
violate log-concavity (c_n^2 < c_{n-1} c_{n+1}).  Two modes:

* exact: one power row of integers over a common denominator, extended in
  place by Miller's recurrence (a symmetric square for k = 2), so every
  comparison is an integer cross-multiplication.  The truncation order
  doubles until a violation is found or n_max is reached; each doubling only
  appends and checks the new coefficients.  The same rows serve the exact
  fallback below, the coefficients c_{n,k}, the partial sums and the
  truncated surrogates.
* adaptive-float: ball-arithmetic enclosures of f^k (binary powering) at 53
  bits over the whole range.  The n whose enclosures overlap are rechecked
  at 64-bit extended precision, with the power built only up to the highest
  of them; the n neither precision decided go to exact rationals below the
  exact-fallback bound.  Certificates of both precisions are merged: the
  first certified violation at either is n0.  A comparison is never
  reported without a disjoint-enclosure or exact certificate; if escalation
  runs out, the scan is flagged uncertified rather than guessed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .partitions import partition_count
from .series import (
    BallSeries,
    _ld_available,
    custom_series,
    pi2_over_6_bounds,
)

DEFAULT_EXACT_FALLBACK = 400
DEFAULT_PRECISION_CAP = 212
SCAN_LIMIT = 2**18  # the largest n_max a scan accepts: every default bound up to k = 17
SCAN_CSV_HEADER = "k,n0,mode,elapsed_ms,n_max"
RATIO_CSV_HEADER = "k,n,ratio_lo,ratio_hi,envelope"


# ---------------------------------------------------------------------------
# Sequence diagnostics
# ---------------------------------------------------------------------------

def is_log_concave(seq: Sequence) -> int | None:
    """Index of the first interior log-concavity violation, or None.

    Comparisons are exact (integer/rational cross-multiplication).
    """
    if len(seq) == 0:
        raise ValueError("sequence must be non-empty")
    for i in range(1, len(seq) - 1):
        if seq[i] * seq[i] < seq[i - 1] * seq[i + 1]:
            return i
    return None


def is_unimodal(seq: Sequence) -> tuple[bool, int]:
    """(unimodal?, leftmost argmax).

    A sequence is unimodal iff it weakly rises up to its leftmost maximum
    and weakly falls afterwards.
    """
    if len(seq) == 0:
        raise ValueError("sequence must be non-empty")
    mode = 0
    for i in range(1, len(seq)):
        if seq[i] > seq[mode]:
            mode = i
    rises = all(seq[i] <= seq[i + 1] for i in range(mode))
    falls = all(seq[i] >= seq[i + 1] for i in range(mode, len(seq) - 1))
    return rises and falls, mode


def tail_monotone_from(seq: Sequence, start: int) -> bool:
    """True iff seq[k] >= seq[k+1] for every k >= start."""
    if not (0 <= start < len(seq)):
        raise ValueError("start out of range")
    return all(seq[i] >= seq[i + 1] for i in range(start, len(seq) - 1))


def tail_start(seq: Sequence) -> int:
    """Smallest index from which the sequence is weakly decreasing."""
    t = len(seq) - 1
    for i in range(len(seq) - 2, -1, -1):
        if seq[i] >= seq[i + 1]:
            t = i
        else:
            break
    return t


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanReport:
    """Outcome of a log-concavity scan of c_{.,k}."""

    k: int
    n_max: int
    n0: int | None
    mode_of_certification: str  # "exact" or "adaptive-float"
    certified: bool
    violations_checked: int
    elapsed: float
    rule: str = "sigma-minus-one"

    def csv_row(self) -> str:
        mode = self.mode_of_certification if self.certified else "uncertified"
        n0 = "" if self.n0 is None else str(self.n0)
        return f"{self.k},{n0},{mode},{int(self.elapsed * 1000)},{self.n_max}"

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n0": self.n0,
            "mode": self.mode_of_certification if self.certified else "uncertified",
            "certified": self.certified,
            "violations_checked": self.violations_checked,
            "elapsed_ms": int(self.elapsed * 1000),
            "n_max": self.n_max,
            "rule": self.rule,
        }


@dataclass(frozen=True)
class RatioReport:
    """A certified ratio of an exact quantity against a reference value."""

    k: int
    n: int
    lhs: Fraction
    rhs_lo: Fraction
    rhs_hi: Fraction
    ratio_lo: float
    ratio_hi: float
    envelope: float
    certification: str = "exact-over-dyadic-enclosure"

    def csv_row(self) -> str:
        return (
            f"{self.k},{self.n},{self.ratio_lo:.17g},"
            f"{self.ratio_hi:.17g},{self.envelope:.17g}"
        )


@dataclass(frozen=True)
class ShapeReport:
    """Shape diagnostics of one exact Q_n coefficient row."""

    n: int
    first_violation: int | None
    unimodal: bool
    mode: int
    tail_from: int
    low_scale: float  # n^(1/6) / ln n
    high_scale: float  # sqrt(n) * ln n


# ---------------------------------------------------------------------------
# Exact power rows, extended in place by Miller's recurrence
# ---------------------------------------------------------------------------

def _scaled_rule_base(rule: str, n_max: int) -> tuple[list[int], int]:
    """A registered series as (numerators, denominator): the lcm of its denominators."""
    coeffs = custom_series(rule, n_max).coeffs
    denom = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (denom // c.denominator) for c in coeffs], denom


class _PowerRow:
    """Coefficients of f^k for a registered rule f, as integers over denom^k.

    base[n] = f_n denom and nums[n] = [q^n] f^k denom^k, where denom is the lcm
    of f's denominators up to the current order.  For k = 2, nums[n] is the
    symmetric square 2 sum_{i < n-i} base_i base_{n-i} + base_{n/2}^2.  For
    k >= 3, with base = q^m0 h(q), h_0 != 0, g_i = nums[k m0 + i] follows from
    J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7)
    i h_0 g_i = sum_{j=1..i} ((k+1) j - i) h_j g_{i-j}, whose divisions are
    exact.  `extend` appends coefficients and rescales the stored ones by
    (denom'/denom)^k when denom grows; nothing is recomputed.
    """

    def __init__(self, k: int, rule: str):
        self.k = k
        self.rule = rule
        self.base: list[int] = []
        self.denom = 1
        self.nums: list[int] = []

    def extend(self, order: int) -> None:
        """Make nums[0..order] available."""
        old = len(self.nums)
        if order < old:
            return
        base, denom = _scaled_rule_base(self.rule, order)
        scale, rem = divmod(denom, self.denom)
        if rem or [c * scale for c in self.base] != base[:old]:
            raise ValueError(f"series rule {self.rule!r} changed its coefficients below q^{old}")
        k = self.k
        factor = scale**k
        nums = self.nums = [c * factor for c in self.nums]
        self.base, self.denom = base, denom
        if k <= 1:  # f^0 = 1 and f^1 = f need no recurrence
            nums.extend(base[old:] if k else (int(n == 0) for n in range(old, order + 1)))
            return
        if k == 2:  # a symmetric square, each pair i < n - i once, costs half of Miller's
            for n in range(old, order + 1):
                half = sum(map(mul, base[: (n + 1) // 2], reversed(base[n // 2 + 1 : n + 1])))
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
            weighted = map(mul, range(k + 1 - i, k * i + 1, k + 1), h[1 : i + 1])
            g, rem = divmod(sum(map(mul, weighted, reversed(nums[off:n]))), i * h[0])
            assert rem == 0, "Miller's recurrence divides exactly"
            nums.append(g)


# ---------------------------------------------------------------------------
# Certified float scan with precision escalation
# ---------------------------------------------------------------------------

@dataclass
class _BallScanOutcome:
    violation: int | None
    undecided: list[int]  # undecided n, all below `violation` when it is set


def _ball_scan(ball: BallSeries, k: int, n_stop: int) -> _BallScanOutcome:
    """Scan c^2 vs c_- c_+ over n in [2, n_stop] with enclosure certificates.

    An enclosure that overflowed (inf or nan) certifies nothing: its
    comparisons stay undecided.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        powk = ball.power(k)
        lo, hi = powk.bounds()
        scalar = lo.dtype.type
        shift = max(powk.precision_bits - 3, 1)
        down = scalar(1.0) - scalar(2.0) ** -shift
        up = scalar(1.0) + scalar(2.0) ** -shift
        eta = np.finfo(lo.dtype).smallest_subnormal

        def product(a, b, scale, sign):
            # a*b rounded outward: relatively by `scale` and absolutely by one
            # subnormal against underflow; an exactly-zero factor gives exactly 0
            return np.where((a == 0) | (b == 0), scalar(0.0), a * b * scale + sign * eta)

        # index i of the sliced arrays corresponds to n = i + 2
        c_lo, c_hi = lo[2:n_stop + 1], hi[2:n_stop + 1]
        rhs_hi = product(hi[1:n_stop], hi[3:n_stop + 2], up, 1)
        holds = (product(c_lo, c_lo, down, -1) >= rhs_hi) & np.isfinite(rhs_hi)
        violates = product(c_hi, c_hi, up, 1) < product(lo[1:n_stop], lo[3:n_stop + 2], down, -1)
    viol_idx = np.nonzero(violates)[0]
    first = int(viol_idx[0]) + 2 if len(viol_idx) else None
    und_idx = np.nonzero(~holds & ~violates)[0] + 2
    if first is not None:
        und_idx = und_idx[und_idx < first]
    return _BallScanOutcome(first, [int(u) for u in und_idx])


def _scan_core(
    k: int,
    n_max: int,
    mode: str,
    rule: str,
    ball_base: Callable[[int, object], BallSeries],
    exact_fallback: int,
    precision_cap: int,
) -> ScanReport:
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    if n_max > SCAN_LIMIT:
        raise ValueError(f"n_max={n_max} is above the scan limit {SCAN_LIMIT}")
    if mode not in ("exact", "adaptive-float"):
        raise ValueError(f"unknown mode {mode!r}")
    if precision_cap < 53:
        raise ValueError("precision cap must be at least 53 bits")
    start = time.perf_counter()

    if mode == "exact":
        row = _PowerRow(k, rule)
        lo, order = 2, min(max(64, k + 2), n_max)
        while True:
            row.extend(order)
            c = row.nums
            n0 = next((n for n in range(lo, order) if c[n] * c[n] < c[n - 1] * c[n + 1]), None)
            if n0 is not None or order == n_max:
                checked = (n0 - 1) if n0 is not None else order - 2
                return ScanReport(
                    k, n_max, n0, "exact", True, checked,
                    time.perf_counter() - start, rule,
                )
            lo, order = order, min(2 * order, n_max)

    outcome = _ball_scan(ball_base(n_max, np.float64), k, n_max - 1)
    viol, undecided = outcome.violation, outcome.undecided
    last_n = n_max - 1  # an uncertified row counts the n up to here
    if undecided and precision_cap >= 64 and _ld_available():
        # recheck only what float64 left open, at the order that reaches it;
        # the float64 certificates stand
        if viol is not None:
            last_n = viol
        top = max(undecided)
        ld = _ball_scan(ball_base(top + 1, np.longdouble), k, top)
        if ld.violation is not None:  # below top, so below float64's violation
            viol = ld.violation
        still_open = set(ld.undecided)
        undecided = [u for u in undecided if u in still_open]
    if undecided:
        resolvable = [u for u in undecided if u <= exact_fallback]
        exact_row = _PowerRow(k, rule)
        if resolvable:
            exact_row.extend(max(resolvable) + 1)
        c = exact_row.nums
        for u in undecided:
            if u > exact_fallback:
                # cannot certify triple u; the first-violation claim is void
                return ScanReport(
                    k, n_max, None, "adaptive-float", False,
                    last_n - 1 - len([x for x in undecided if x >= u]),
                    time.perf_counter() - start, rule,
                )
            if c[u] * c[u] < c[u - 1] * c[u + 1]:
                viol = u
                break
    checked = (viol - 1) if viol is not None else last_n - 1
    return ScanReport(
        k, n_max, viol, "adaptive-float", True, checked,
        time.perf_counter() - start, rule,
    )


def default_scan_bound(k: int) -> int:
    """Default n_max: the conjectured window 2^k with doubling headroom,
    floored so that small k still reach their first violation."""
    return max(2 * 2**k, 256)


def scan_conjecture(
    k: int,
    n_max: int | None = None,
    mode: str = "exact",
    *,
    exact_fallback: int = DEFAULT_EXACT_FALLBACK,
    precision_cap: int = DEFAULT_PRECISION_CAP,
) -> ScanReport:
    """First log-concavity violation n0(k) of the coefficients of f(q)^k."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n_max is None:
        n_max = default_scan_bound(k)
    return _scan_core(
        k, n_max, mode, "sigma-minus-one",
        lambda order, dtype: BallSeries.divisor_sum_series(order, dtype),
        exact_fallback, precision_cap,
    )


def scan_conjecture_custom(
    rule: str,
    k: int,
    n_max: int | None = None,
    mode: str = "exact",
    *,
    exact_fallback: int = DEFAULT_EXACT_FALLBACK,
    precision_cap: int = DEFAULT_PRECISION_CAP,
) -> ScanReport:
    """Like scan_conjecture, over any registered series rule (k >= 1 allowed)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _scan_core(
        k, n_max if n_max is not None else default_scan_bound(k), mode, rule,
        lambda order, dtype: BallSeries.from_fractions(
            custom_series(rule, order).coeffs, dtype
        ),
        exact_fallback, precision_cap,
    )


# ---------------------------------------------------------------------------
# Exact coefficient rows of f^k, cached for the ratio and surrogate reports
# ---------------------------------------------------------------------------

_row_cache: dict[int, _PowerRow] = {}


def _exact_sigma_row(k: int, n_max: int) -> _PowerRow:
    """The cached power row of f^k (one per k), extended to q^n_max at least."""
    row = _row_cache.setdefault(k, _PowerRow(k, "sigma-minus-one"))
    row.extend(n_max)
    return row


def coefficient_c(n: int, k: int) -> Fraction:
    """c_{n,k}: the coefficient of q^n in f(q)^k, exactly."""
    if k < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    row = _exact_sigma_row(k, n)
    return Fraction(row.nums[n], row.denom**k)


# ---------------------------------------------------------------------------
# Ratio reports for the asymptotic reference formulas
# ---------------------------------------------------------------------------

_FLOAT_OUT = 2.0**-50  # outward widening for one nearest-rounded conversion


def partial_sum_ratio(k: int, n: int) -> RatioReport:
    """Ratio of sum_{m<=n} c_{m,k} against (pi^2/6)^k binom(n,k).

    The partial sum is exact, as sum_i c_{i,k-1} F_{n-i} with F the prefix
    sums of f, so it needs the row of f^(k-1) only; the reference value is
    enclosed by the dyadic pi^2/6 bounds, and the ratio endpoints are
    rounded outwards.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < max(2, k * k):
        raise ValueError(f"requires n >= max(2, k^2) = {max(2, k * k)}")
    row = _exact_sigma_row(k - 1, n)
    prefix = list(accumulate(row.base[: n + 1]))
    lhs = Fraction(sum(map(mul, row.nums[: n + 1], reversed(prefix))), row.denom**k)
    lo6, hi6 = pi2_over_6_bounds()
    binom = math.comb(n, k)
    rhs_lo = lo6**k * binom
    rhs_hi = hi6**k * binom
    ratio_lo = float(lhs / rhs_hi) * (1.0 - _FLOAT_OUT)
    ratio_hi = float(lhs / rhs_lo) * (1.0 + _FLOAT_OUT)
    envelope = k * k * math.log(n) / n
    return RatioReport(k, n, lhs, rhs_lo, rhs_hi, ratio_lo, ratio_hi, envelope)


# Blanket relative widening for the asymptotic formula below: a dozen
# correctly-rounded float operations plus exp amplification stay under 1e-12
# for every n this library targets; 1e-9 leaves three orders of headroom.
_HR_WIDEN = 1e-9


def hardy_ramanujan_ratio(n: int) -> RatioReport:
    """Ratio of exact p(n) to exp(pi sqrt(2n/3)) / (4 sqrt(3) n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pn = partition_count(n)
    x = math.pi * math.sqrt(2.0 / 3.0) * math.sqrt(n)
    reference = math.exp(x) / (4.0 * math.sqrt(3.0) * n)
    ratio = float(pn) / reference
    ratio_lo = ratio * (1.0 - _HR_WIDEN)
    ratio_hi = ratio * (1.0 + _HR_WIDEN)
    return RatioReport(
        0, n, Fraction(pn),
        Fraction(reference * (1.0 - _HR_WIDEN)), Fraction(reference * (1.0 + _HR_WIDEN)),
        ratio_lo, ratio_hi, 0.0,
        certification="widened-float",
    )


# ---------------------------------------------------------------------------
# Trimmed convolution surrogates (log-concave approximants of A_{n,k})
# ---------------------------------------------------------------------------

def surrogate_binomial(n: int, k: int) -> Fraction:
    """(1/k!) sum_{i=1}^{n-26} p(n-i) binom(i-1, k-1).

    The transcendental prefactor is dropped: it is constant in n and cancels
    in every log-concavity ratio, keeping the value exact.
    """
    if n < 27 or k < 1:
        raise ValueError("requires n >= 27 and k >= 1")
    total = sum(partition_count(n - i) * math.comb(i - 1, k - 1) for i in range(1, n - 25))
    return Fraction(total, math.factorial(k))


def surrogate_truncated(n: int, k: int) -> Fraction:
    """(1/k!) sum_{i=0}^{n-26} p(n-i) c_{i,k}, exactly."""
    if n < 27 or k < 0:
        raise ValueError("requires n >= 27 and k >= 0")
    return surrogate_truncated_sequence(k, n, n)[0]


def surrogate_binomial_sequence(k: int, n_lo: int, n_hi: int) -> list[Fraction]:
    return [surrogate_binomial(n, k) for n in range(n_lo, n_hi + 1)]


def surrogate_truncated_sequence(k: int, n_lo: int, n_hi: int) -> list[Fraction]:
    """Values of the truncated surrogate over a range, one row fetch."""
    if n_lo < 27:
        raise ValueError("requires n_lo >= 27")
    row = _exact_sigma_row(k, max(n_hi - 26, 1))
    denom = row.denom**k * math.factorial(k)
    return [
        Fraction(sum(partition_count(n - i) * row.nums[i] for i in range(n - 25)), denom)
        for n in range(n_lo, n_hi + 1)
    ]


def shape_report(n: int) -> ShapeReport:
    """Log-concavity / mode / tail diagnostics of the exact Q_n row."""
    from .darcais import q_via_recursion

    if n < 2:
        raise ValueError("n must be >= 2")
    coeffs = q_via_recursion(n).coeffs
    violation = is_log_concave(coeffs)
    unimodal, mode = is_unimodal(coeffs)
    return ShapeReport(
        n=n,
        first_violation=violation,
        unimodal=unimodal,
        mode=mode,
        tail_from=tail_start(coeffs),
        low_scale=n ** (1.0 / 6.0) / math.log(n),
        high_scale=math.sqrt(n) * math.log(n),
    )
