"""Log-concavity diagnostics, conjecture scanners, and ratio reports.

The scanners look for the first n where the coefficients c_{n,k} of f(q)^k
violate log-concavity (c_n^2 < c_{n-1} c_{n+1}).  Two modes:

* exact: the powers f^1..f^k as rows of integers, row j over its own
  denominator D_j (a bound on the primes j factors of f can carry), so
  every comparison within a row is an integer cross-multiplication.
  Row j follows from row j - 1 by q d/dq (f^j) = j f^(j-1) q f', the step
  behind the Heim-Neuhauser recurrence for Q_n: its multipliers i f_i are
  small integers (sigma(i) for sigma_{-1}) times one common factor, so each
  row is row j - 1 times a Toeplitz matrix of small integers, which
  `series._ExactToeplitz` applies on BLAS in float64 without rounding (row
  j - 1 cut into 32- or 16-bit limbs).  The ladder is `series._PowerRow`,
  the package's one exact kernel for powers of f; it appends the zeros of
  f^j below j times f's first nonzero index without computing them.  The
  scans of a rule share one ladder, which `series` keeps and drops when the
  rule is registered again, so a scan of k reuses the rows f^2..f^(k-1)
  that earlier scans built and keeps its rows.  Past the order the ladder
  already has, the scan builds at the first order of the doubling schedule
  where f^k in float64 shows a violation (a guess; the exact pass checks
  every n below it), and doubles on until a violation is found or n_max
  is reached; each pass only appends and checks the new coefficients, on
  their logs first.  The same kernel serves the exact fallback below, the
  coefficients c_{n,k}, the partial sums and the truncated surrogates: each
  builds its own one-shot ladder, reads the row `extend(..., free=True)`
  returns, and frees the rows below it as it goes.
* adaptive-float: ball-arithmetic enclosures of f^k (binary powering) at 53
  bits over the whole range.  Their radii count the roundings of the blocked
  convolution kernel, not of one long sum, so float64 alone decides the
  sigma_{-1} table up to k = 12.  The n whose enclosures overlap are
  rechecked at 64-bit extended precision wherever numpy's longdouble is
  wider than float64, with the power built only up to the highest of them;
  the n neither precision decided go to exact rationals below the
  exact-fallback bound.  Certificates of both precisions are merged: the
  first certified violation at either is n0.  A comparison is never
  reported without a disjoint-enclosure or exact certificate; if
  escalation runs out, the scan is flagged uncertified rather than guessed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Sequence

import numpy as np

from .partitions import partition_count
from .series import (
    BallSeries,
    _float_base,
    _ld_available,
    _convolve_prefix,
    _PowerRow,
    _shared_order,
    _shared_power,
    pi2_over_6_bounds,
)

DEFAULT_EXACT_FALLBACK = 400
SCAN_LIMIT = 2**18  # the largest n_max and k a scan accepts: every default bound up to k = 17


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


def _first_violation(c: list[int], lo: int, hi: int) -> int | None:
    """The first n in lo..hi-1 with c_n^2 < c_{n-1} c_{n+1}, decided exactly.

    Where all three are positive, the logs decide first: math.log2 of an int
    is within a few units of roundoff of its size, so a gap 2 log2 c_n -
    log2 c_{n-1} - log2 c_{n+1} wider than 2^-40 (1 + the sum of the logs)
    has the sign of the exact comparison.  A narrower gap, a zero or a
    negative entry is cross-multiplied.  A scan's reads then cost little
    beside its builds, at whatever order the shared ladder holds the row.
    """
    a, b = (math.log2(x) if x > 0 else -1.0 for x in c[lo - 1 : lo + 1])
    for n in range(lo, hi):
        d = math.log2(c[n + 1]) if c[n + 1] > 0 else -1.0
        if min(a, b, d) < 0 or abs(2 * b - a - d) <= (a + 2 * b + d + 1) * 2.0**-40:
            if c[n] * c[n] < c[n - 1] * c[n + 1]:
                return n
        elif 2 * b < a + d:
            return n
        a, b = b, d
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


def _float_power(f: np.ndarray, k: int) -> np.ndarray:
    """f^k truncated to len(f) coefficients, by binary powering in f's dtype."""
    acc = f
    for bit in bin(k)[3:]:
        acc = _convolve_prefix(acc, acc)
        if bit == "1":
            acc = _convolve_prefix(acc, f)
    return acc


def _build_order(rule: str, k: int, order: int, n_max: int) -> int:
    """The order of the doubling schedule from `order` that the exact scan builds next.

    It is the first whose float64 power f^k (midpoints, no radii) shows a
    violation below it or a coefficient that is not finite, else n_max.
    This is a guess, never a certificate: the exact scan checks every n
    below the order it builds and doubles on when it finds none.  A rule
    that has no float64 image (a negative or out-of-range coefficient) gets
    no guess: the scan builds at `order`.
    """
    while order < n_max:
        try:
            f = _float_base(rule, order, np.float64).mid
        except ValueError:
            return order
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            p = _float_power(f, k)
            if not np.isfinite(p).all() or (p[2:-1] * p[2:-1] < p[1:-2] * p[3:]).any():
                return order
        order = min(2 * order, n_max)
    return n_max


def default_scan_bound(k: int) -> int:
    """Default n_max: the conjectured window 2^k with doubling headroom,
    floored so that small k still reach their first violation.  A k whose
    bound would pass SCAN_LIMIT is refused by its size, before 2^k is built."""
    if k >= SCAN_LIMIT.bit_length() - 1:
        raise ValueError(f"the default n_max = 2^{k + 1} of k={k} is above the scan limit {SCAN_LIMIT}")
    return max(2 * 2**k, 256)


def scan_conjecture(
    k: int,
    n_max: int | None = None,
    mode: str = "exact",
    *,
    rule: str = "sigma-minus-one",
    exact_fallback: int = DEFAULT_EXACT_FALLBACK,
) -> ScanReport:
    """First log-concavity violation n0(k) of the coefficients of f(q)^k.

    f is any registered series rule; sigma_{-1} takes k >= 2, as the paper's
    table does (f itself fails at n = 3: 16/9 < 21/8), the others k >= 1.
    """
    k_min = 2 if rule == "sigma-minus-one" else 1
    if k < k_min:
        raise ValueError(f"k must be >= {k_min}")
    if k > SCAN_LIMIT:
        raise ValueError(f"k={k} is above the scan limit {SCAN_LIMIT}")
    if n_max is None:
        n_max = default_scan_bound(k)
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    if n_max > SCAN_LIMIT:
        raise ValueError(f"n_max={n_max} is above the scan limit {SCAN_LIMIT}")
    if mode not in ("exact", "adaptive-float"):
        raise ValueError(f"unknown mode {mode!r}")
    if exact_fallback < 0:
        raise ValueError(f"exact_fallback={exact_fallback} is negative")
    start = time.perf_counter()
    last_n, certified = n_max - 1, True  # a row without a violation counts the n up to last_n

    if mode == "exact":
        lo, order = 2, min(max(64, k + 2), n_max)
        while True:
            if order > _shared_order(rule, k):  # the orders its ladder already has come free
                order = _build_order(rule, k, order, n_max)
            c = _shared_power(rule, k, order)
            order = min(len(c) - 1, n_max)
            viol = _first_violation(c, lo, order)
            if viol is not None or order == n_max:
                break
            lo, order = order, min(2 * order, n_max)
    else:
        outcome = _ball_scan(_float_base(rule, n_max, np.float64), k, n_max - 1)
        viol, undecided = outcome.violation, outcome.undecided
        if undecided and _ld_available():
            # recheck only what float64 left open, at the order that reaches it;
            # the float64 certificates stand
            if viol is not None:
                last_n = viol
            top = max(undecided)
            ld = _ball_scan(_float_base(rule, top + 1, np.longdouble), k, top)
            if ld.violation is not None:  # below top, so below float64's violation
                viol = ld.violation
            still_open = set(ld.undecided)
            undecided = [u for u in undecided if u in still_open]
        if undecided:
            resolvable = [u for u in undecided if u <= exact_fallback]
            # a one-shot ladder of its own, off the shared one, so it checks the exact scans independently
            c = _PowerRow(rule).extend(max(resolvable) + 1, k, free=True) if resolvable else []
            for u in undecided:
                if u > exact_fallback:
                    # cannot certify triple u; the first-violation claim is void
                    viol, certified = None, False
                    last_n -= len([x for x in undecided if x >= u])
                    break
                if c[u] * c[u] < c[u - 1] * c[u + 1]:
                    viol = u
                    break
    checked = (viol - 1) if viol is not None else last_n - 1
    return ScanReport(k, n_max, viol, mode, certified, checked, time.perf_counter() - start, rule)


# ---------------------------------------------------------------------------
# Exact coefficient rows of f^k, rebuilt per call
# ---------------------------------------------------------------------------

def coefficient_c(n: int, k: int) -> Fraction:
    """c_{n,k}: the coefficient of q^n in f(q)^k, exactly."""
    if k < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if n < k:  # f starts at q^1
        return Fraction(0)
    ladder = _PowerRow("sigma-minus-one")
    num = ladder.extend(n, k, free=True)[n]
    return Fraction(num, ladder.denoms[k]) if num else Fraction(0)


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
    ladder = _PowerRow("sigma-minus-one")
    c = ladder.extend(n, k - 1, free=True)
    prefix = list(accumulate(ladder.base[: n + 1]))
    lhs = Fraction(sum(map(mul, c, reversed(prefix))), ladder.denoms[k - 1] * ladder.denom)
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
    if n_lo < 27 or k < 0:
        raise ValueError("requires n_lo >= 27 and k >= 0")
    if k > n_hi - 26:  # c_{i,k} = 0 for every i <= n_hi - 26
        return [Fraction(0)] * (n_hi - n_lo + 1)
    ladder = _PowerRow("sigma-minus-one")
    c = ladder.extend(n_hi - 26, k, free=True)
    denom = ladder.denoms[k] * math.factorial(k)
    return [
        Fraction(sum(partition_count(n - i) * c[i] for i in range(n - 25)), denom)
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
