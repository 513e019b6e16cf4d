"""Exact rational truncated power series and their certified float mirror.

Exact side: `RationalSeries` holds Fraction coefficients of q^0..q^N and all
arithmetic is exact (no rounding anywhere).  Float side: `BallSeries` is a
midpoint-radius enclosure used for large scans; it is a separate type and is
never substituted for the exact one implicitly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np


def divisor_sigma(n: int) -> int:
    """Sum of the divisors of n."""
    if n < 1:
        raise ValueError("n must be positive")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d
            q = n // d
            if q != d:
                total += q
        d += 1
    return total


def sigma_sieve(n_max: int) -> list[int]:
    """divisor_sigma(n) for all 1 <= n <= n_max, by sieving."""
    sig = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        for m in range(d, n_max + 1, d):
            sig[m] += d
    return sig


def sigma_minus1(n: int) -> Fraction:
    """sigma_{-1}(n) = sum of 1/d over the divisors d of n, equal to sigma(n)/n."""
    if n < 1:
        raise ValueError("n must be positive")
    return Fraction(divisor_sigma(n), n)


class RationalSeries:
    """A power series truncated at order N with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        if len(coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")
        self.coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, n: int) -> Fraction:
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if len(self.coeffs) > 6 else ""
        return f"RationalSeries([{head}{tail}], order={self.order})"

    def dump_lines(self) -> list[str]:
        """Dump format: one "n<TAB>p/q" line per coefficient, q omitted when 1."""
        return [f"{n}\t{c}" for n, c in enumerate(self.coeffs)]


def f_series(n_max: int) -> RationalSeries:
    """The divisor-sum series f(q) = sum_{n>=1} sigma_{-1}(n) q^n, truncated."""
    if n_max < 0:
        raise ValueError("truncation order must be non-negative")
    sig = sigma_sieve(n_max) if n_max >= 1 else [0]
    coeffs = [Fraction(0)] + [Fraction(sig[n], n) for n in range(1, n_max + 1)]
    return RationalSeries(coeffs)


def series_multiply(a: RationalSeries, b: RationalSeries) -> RationalSeries:
    """Cauchy product of two series truncated at the same order."""
    if a.order != b.order:
        raise ValueError(f"truncation orders differ: {a.order} != {b.order}")
    n_max = a.order
    ac, bc = a.coeffs, b.coeffs
    out = []
    for n in range(n_max + 1):
        out.append(sum(ac[i] * bc[n - i] for i in range(n + 1)))
    return RationalSeries(out)


def series_power(s: RationalSeries, k: int) -> RationalSeries:
    """s^k by k-1 successive multiplications; k = 0 gives the constant 1."""
    if k < 0:
        raise ValueError("k must be non-negative")
    n_max = s.order
    if k == 0:
        return RationalSeries([Fraction(1)] + [Fraction(0)] * n_max)
    acc = s
    for _ in range(k - 1):
        acc = series_multiply(acc, s)
    return acc


def partition_series(n_max: int) -> RationalSeries:
    """The partition generating function: coefficient of q^n is p(n)."""
    from .partitions import partition_count

    if n_max < 0:
        raise ValueError("truncation order must be non-negative")
    return RationalSeries([Fraction(partition_count(n)) for n in range(n_max + 1)])


def series_exp(s: RationalSeries) -> RationalSeries:
    """exp(s) for a series with zero constant term.

    Uses the recurrence n*e_n = sum_{j=1..n} j*s_j*e_{n-j}, which stays exact.
    """
    if s.coeffs[0] != 0:
        raise ValueError("series_exp requires a zero constant term")
    n_max = s.order
    weighted = [j * s.coeffs[j] for j in range(n_max + 1)]
    exp_coeffs = [Fraction(1)]
    for n in range(1, n_max + 1):
        acc = sum(weighted[j] * exp_coeffs[n - j] for j in range(1, n + 1))
        exp_coeffs.append(acc / n)
    return RationalSeries(exp_coeffs)


def _remark_series(n_max: int) -> RationalSeries:
    # z/(1-z) + z^2/(2(1-z^2)): coefficient is 1 for odd n>=1, 3/2 for even n>=2.
    coeffs = [Fraction(0)]
    for n in range(1, n_max + 1):
        coeffs.append(Fraction(1) if n % 2 == 1 else Fraction(3, 2))
    return RationalSeries(coeffs)


_SERIES_RULES: dict[str, Callable[[int], RationalSeries]] = {
    "sigma-minus-one": f_series,
    "remark-series": _remark_series,
}


def register_series_rule(name: str, builder: Callable[[int], RationalSeries]) -> None:
    """Add a named generating rule usable with custom_series."""
    _SERIES_RULES[name] = builder


def series_rule_names() -> list[str]:
    return sorted(_SERIES_RULES)


def custom_series(rule: str, n_max: int) -> RationalSeries:
    """Build a series from a registered generating rule."""
    try:
        builder = _SERIES_RULES[rule]
    except KeyError:
        known = ", ".join(series_rule_names())
        raise ValueError(f"unknown series rule {rule!r} (known: {known})") from None
    return builder(n_max)


# ---------------------------------------------------------------------------
# Certified scalar bounds (exact rational enclosures of transcendentals)
# ---------------------------------------------------------------------------

def pi2_over_6_bounds(bits: int = 128) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of pi^2/6 with width below 2^-bits.

    Sums the central-binomial series pi^2/6 = 3 * sum_{i>=1} 1/(i^2 C(2i,i)).
    Successive term ratios are at most 1/3 for i >= 1, so the tail after
    term M is below t_M / 2; the partial sum is a strict lower bound.
    """
    target = Fraction(1, 2 ** (bits + 2))
    total = Fraction(0)
    i = 1
    while True:
        term = Fraction(3, i * i * math.comb(2 * i, i))
        total += term
        if term < target:
            return total, total + term
        i += 1


# lower bound on ln 2 via 2*atanh(1/3); cached after first use.
_LN2_LOWER: Fraction | None = None


def _atanh_lower(y: Fraction, terms: int) -> Fraction:
    # Partial sum of atanh(y) = sum y^(2j+1)/(2j+1); all terms positive for y>0.
    acc = Fraction(0)
    power = y
    y2 = y * y
    for j in range(terms):
        acc += power / (2 * j + 1)
        power *= y2
    return acc


def ln_lower_bound(n: int, terms: int = 14) -> Fraction:
    """An exact rational lower bound on ln(n) for n >= 1.

    Reduces n to x = n / 2^e in [1, 2) and bounds ln(x) and ln(2) from below
    by truncated atanh series (argument at most 1/3, so a dozen terms give
    far more accuracy than the consumers here need).
    """
    global _LN2_LOWER
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return Fraction(0)
    if _LN2_LOWER is None:
        _LN2_LOWER = 2 * _atanh_lower(Fraction(1, 3), 24)
    e = n.bit_length() - 1
    x = Fraction(n, 2**e)  # in [1, 2)
    y = (x - 1) / (x + 1)  # in [0, 1/3)
    return 2 * _atanh_lower(y, terms) + e * _LN2_LOWER


# ---------------------------------------------------------------------------
# Floating mirror: midpoint-radius series with rigorous error tracking
# ---------------------------------------------------------------------------

def _ld_available() -> bool:
    """True when numpy's longdouble is genuinely wider than float64."""
    return np.finfo(np.longdouble).nmant > 52


# the normal float64 range, as exact rationals
_F64_TINY = Fraction(float(np.finfo(np.float64).tiny))
_F64_MAX = Fraction(float(np.finfo(np.float64).max))

# block length of _convolve_prefix; on a 2-vCPU x86 host the time of one
# convolution at orders 7000-8000 is flat from 128 to 1024 in both dtypes
_BLOCK = 512


def _convolve_prefix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The first n = len(a) coefficients of a*b, for b of the same length.

    Block a[s:s+B] is convolved only with b[:n-s], the part of b that reaches
    an index below n.  When `b is a`, each block is convolved with itself and,
    doubled, with the part of a after it, so a pair of indices in different
    blocks is formed once.  Either way every output is a float sum of the same
    products as in np.convolve(a, b)[:n], grouped differently; doubling is exact.
    """
    n = len(a)
    out = np.zeros(n, dtype=np.result_type(a, b))
    if b is a:
        for s in range(0, (n + 1) // 2, _BLOCK):  # a block at s >= n/2 reaches no index below n
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


class BallSeries:
    """Float enclosure of a series with non-negative coefficients.

    Coefficient n lies in [mid[n] - rad[n], mid[n] + rad[n]].  `unit` is the
    unit roundoff of the dtype (2^-53 for float64).  Multiplication keeps the
    enclosure rigorous: products of interval bounds are expanded through the
    convolution of absolute values, and a summation-error term gamma covers
    the floating-point accumulation regardless of numpy's summation order.
    """

    __slots__ = ("mid", "rad", "unit")

    def __init__(self, mid: np.ndarray, rad: np.ndarray, unit: float):
        self.mid = mid
        self.rad = rad
        self.unit = unit

    @property
    def order(self) -> int:
        return len(self.mid) - 1

    @property
    def precision_bits(self) -> int:
        return round(-math.log2(self.unit))

    @classmethod
    def from_fractions(cls, coeffs: Sequence[Fraction], dtype=np.float64) -> "BallSeries":
        unit = float(np.finfo(dtype).eps) / 2.0
        mid = np.zeros(len(coeffs), dtype=dtype)
        rad = np.zeros(len(coeffs), dtype=dtype)
        exact_limit = 1 << np.finfo(dtype).nmant
        scalar = np.dtype(dtype).type
        for n, c in enumerate(coeffs):
            if c < 0:
                raise ValueError("BallSeries requires non-negative coefficients")
            num, den = c.numerator, c.denominator
            if num < exact_limit and den < exact_limit:
                # both operands exact in the dtype: one correctly-rounded division
                mid[n] = scalar(num) / scalar(den)
                rad[n] = mid[n] * scalar(2 * unit)
            else:
                # route through float64: at most two roundings, which holds
                # only where float64 keeps full precision
                if c and not _F64_TINY <= c <= _F64_MAX:
                    digits = len(str(num)) - len(str(den))  # the power of ten, to within one
                    raise ValueError(
                        f"series coefficient {n} = about 10^{digits} is outside the "
                        "normal float64 range, so it cannot be enclosed"
                    )
                mid[n] = scalar(float(c))
                rad[n] = mid[n] * scalar(2.0 ** -50)
        return cls(mid, rad, unit)

    @classmethod
    def divisor_sum_series(cls, n_max: int, dtype=np.float64) -> "BallSeries":
        """Enclosure of f(q); sigma(n) and n are dtype-exact, so one rounding."""
        unit = float(np.finfo(dtype).eps) / 2.0
        scalar = np.dtype(dtype).type
        sig = np.zeros(n_max + 1, dtype=dtype)
        for d in range(1, n_max + 1):
            sig[d::d] += scalar(d)
        idx = np.arange(n_max + 1, dtype=dtype)
        idx[0] = 1.0
        mid = sig / idx
        mid[0] = 0.0
        rad = mid * scalar(2 * unit)
        return cls(mid, rad, unit)

    def _lead(self) -> int:
        """Index of the first coefficient whose enclosure is not exactly {0}."""
        nonzero = np.flatnonzero((self.mid != 0) | (self.rad != 0))
        return int(nonzero[0]) if len(nonzero) else len(self.mid)

    def multiply(self, other: "BallSeries") -> "BallSeries":
        """Enclosure of the product, computing only the kept coefficients.

        The radius is bounded through mid*mid, the two cross terms mid*rad and
        rad*mid, and rad*rad.  A square (`x.multiply(x)`) computes the equal
        cross terms once and doubles them, and forms each pair (i, j) of its
        mid*mid and rad*rad once (see `_convolve_prefix`).
        """
        if self.order != other.order:
            raise ValueError("truncation orders differ")
        if self.unit != other.unit:
            raise ValueError("mixed precisions")
        n = self.order + 1
        scalar = self.mid.dtype.type
        # gamma bounds the relative error of any float summation of <= 2n+16
        # rounded terms; doubled for headroom and to absorb the rounding of
        # the radius expression itself.  Blocking and exact doubling only
        # regroup the same rounded products, so gamma still covers them.
        lu = (2 * n + 16) * self.unit
        g = scalar(2.0 * lu / (1.0 - lu))
        # Underflow adds an absolute error of at most eta/2 per rounded
        # product (eta the smallest subnormal).  Each of the four sums
        # (mid*mid, two cross terms, rad*rad) has at most n products per
        # coefficient; a doubled product carries at most eta and stands for
        # two of them (at most ceil(n/2) per coefficient), so n*eta/2 per sum
        # holds.  Adding g*mid and the final scaling gives (2n+2)*eta.
        tiny = scalar(2 * n + 2) * np.finfo(self.mid.dtype).smallest_subnormal
        mid = _convolve_prefix(self.mid, other.mid)
        if other is self:
            cross = scalar(2.0) * _convolve_prefix(self.mid, self.rad)
        else:
            cross = _convolve_prefix(self.mid, other.rad) + _convolve_prefix(self.rad, other.mid)
        rad = (cross + _convolve_prefix(self.rad, other.rad) + g * mid + tiny) * (scalar(1.0) + 4 * g)
        # below the sum of the leading indices every product term is an exact 0
        rad[: self._lead() + other._lead()] = 0
        return BallSeries(mid, rad, self.unit)

    def power(self, k: int) -> "BallSeries":
        """Enclosure of self^k by binary powering: about log2(k) multiplies."""
        if k < 1:
            raise ValueError("k must be >= 1")
        acc = self
        for bit in bin(k)[3:]:
            acc = acc.multiply(acc)
            if bit == "1":
                acc = acc.multiply(self)
        return acc

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coefficient lower/upper bounds, outward-rounded."""
        scalar = self.mid.dtype.type
        out = scalar(2.0) ** -max(self.precision_bits - 3, 1)
        lo = np.maximum((self.mid - self.rad) * (scalar(1.0) - out), scalar(0.0))
        hi = (self.mid + self.rad) * (scalar(1.0) + out)
        return lo, hi
