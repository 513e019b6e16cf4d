"""Exact rational truncated power series and their certified float mirror.

Exact side: `RationalSeries` holds Fraction coefficients of q^0..q^N and all
arithmetic is exact (no rounding anywhere).  `_PowerRow`, the q d/dq ladder
of integer rows, row j over its own denominator D_j, is the one exact kernel
for powers of a rule: analysis, `darcais.a_cross_recursion` and `verify
--suite identities` read f^k from it; `series_power` is its Fraction
reference.  Float side: `BallSeries` is a midpoint-radius enclosure used for
large scans: float midpoints with one relative radius and one absolute
underflow term per series, so a product costs one convolution.  It is a
separate type and is never substituted for the exact one implicitly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import compress, repeat
from operator import add, lshift
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided


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
    """divisor_sigma(n) for all 1 <= n <= n_max, by sieving; entry 0 is 0.

    Step d adds d + q to m = d*q for every divisor pair d <= q, over the
    strided slice m = d*d, d*(d+1), ..., and takes d back off the square pair
    d*d: isqrt(n_max) numpy steps.  The entries come back as Python ints,
    since the exact callers multiply them into big integers.
    """
    if n_max < 0:
        raise ValueError("truncation order must be non-negative")
    sig = np.zeros(n_max + 1, np.int64)
    for d in range(1, math.isqrt(n_max) + 1):
        sig[d * d :: d] += np.arange(2 * d, n_max // d + d + 1, dtype=np.int64)
        sig[d * d] -= d
    return sig.tolist()


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
    sig = sigma_sieve(n_max)  # refuses a negative order
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
# the exact scans' power ladder of each rule, grown in order and power and never freed
_LADDERS: dict[str, _PowerRow] = {}


def register_series_rule(name: str, builder: Callable[[int], RationalSeries]) -> None:
    """Add or replace a named generating rule usable with custom_series; the built-ins are fixed."""
    if name in ("sigma-minus-one", "remark-series"):  # the sigma_{-1} fast paths key on the name
        raise ValueError(f"series rule {name!r} is built in and cannot be replaced")
    _SERIES_RULES[name] = builder
    _LADDERS.pop(name, None)  # its rows are powers of the rule it replaces


def series_rule_names() -> list[str]:
    return sorted(_SERIES_RULES)


def custom_series(rule: str, n_max: int) -> RationalSeries:
    """Build a series from a registered generating rule, refusing one of another order."""
    if n_max < 0:
        raise ValueError("truncation order must be non-negative")
    try:
        builder = _SERIES_RULES[rule]
    except KeyError:
        known = ", ".join(series_rule_names())
        raise ValueError(f"unknown series rule {rule!r} (known: {known})") from None
    built = builder(n_max)
    if built.order != n_max:
        raise ValueError(f"series rule {rule!r} built order {built.order} when asked for order {n_max}")
    return built


# ---------------------------------------------------------------------------
# Exact power rows, a q d/dq ladder extended in place
# ---------------------------------------------------------------------------

def _scaled_rule_base(rule: str, n_max: int) -> tuple[list[int], int, list[int]]:
    """A registered series as (numerators, denominator, reduced denominators d_m).

    f_m = a / b has d_m = b / gcd(a, b); the denominator is the lcm of the d_m
    and numerator m is f_m times it.  sigma_{-1} reads (a, b) = (sigma(m), m)
    off one sieve, with no Fraction; the other rules read their Fractions.
    """
    if rule == "sigma-minus-one":
        sig = sigma_sieve(n_max)  # refuses a negative order
        pairs = [(0, 1), *zip(sig[1:], range(1, n_max + 1))]
    else:
        pairs = [(c.numerator, c.denominator) for c in custom_series(rule, n_max).coeffs]
    dens = [b // math.gcd(a, b) for a, b in pairs]
    denom = math.lcm(*dens)
    return [a * denom // b for a, b in pairs], denom, dens


def _float_base(rule: str, order: int, dtype) -> BallSeries:
    """The enclosure of f that the float scans raise to the k-th power."""
    if rule == "sigma-minus-one":
        return BallSeries.divisor_sum_series(order, dtype)
    return BallSeries.from_fractions(custom_series(rule, order).coeffs, dtype)


# Every integer of magnitude up to 2^53 is a float64, so a dot product of
# integers is exact in any summation order while sum|terms| stays below it.
_EXACT_BITS = 53
# Weights longer than this cannot be cut into 16-bit pieces whose products
# with 16-bit limbs sum below 2^53: len(e) (2^16 - 1) 2^16 < 2^53.
_MAX_WEIGHTS = 2**21
# output entries per dgemm, at most: 64 beat 16 (numpy's fixed cost per call)
# on the exact scans k = 2..11; taller blocks, or blocks sized per call to a
# buffer budget, were no faster on k = 2..8 and grow the buffers with the row
_ROWS_PER_MATMUL = 64
# limb columns per dgemm: at least 16, and as many as keep the float64 slice
# of row j - 1 within 2^13 numbers, so a short row takes one dgemm per block
_MIN_LIMBS_PER_MATMUL, _SLICE_FLOATS = 16, 2**13


class _ExactToeplitz:
    """Integer products with the lower-triangular Toeplitz matrix of integer weights e.

    `rows(x, lo, start, stop)` yields sum_{m=lo..n-1} e[n - m] x[m] (x[m] = 0
    for m >= len(x)) for n = start..stop-1, exactly, from float64 matmuls
    (BLAS dgemm); e[0] is never read, and it needs lo < start, lo < len(x)
    and stop - lo <= len(e).  Each x[m] is cut into w-bit two's-complement
    limbs, all unsigned but the top one, so |limb| <= 2^w; then every partial
    sum of a limb column times the weights is an integer of magnitude at
    most sum|e| 2^w, exact in any summation order while that is below 2^53
    (error-free splitting, Ozaki, Ogita, Oishi and Rump, 2012).  w = 32 while
    sum|e| < 2^21 and 16 while sum|e| < 2^37; past that e itself is cut into
    signed 16-bit pieces, one block of matmul rows each, which needs
    len(e) <= 2^21.  Each n is rebuilt from its limb sums with int.from_bytes.

    A call takes its outputs _ROWS_PER_MATMUL at a time, or all in one block
    when it has fewer.  Beside the limb image of x[lo:stop-1], its work
    buffers are one block of the Toeplitz matrix (pieces x 64 x cols floats,
    cols <= stop - 1 - lo), one limb slab (cols x chunk floats, chunk >= 16),
    and the limb sums of one block with their int64 words (pieces x 64 x
    width each, width the limbs per entry): 2.6 MB for 4096 entries of 20 limbs.
    """

    def __init__(self, e: list[int]):
        e = [0, *e[1:]]  # e[0] multiplies no term; the zero keeps the diagonal out of every block
        if sum(map(abs, e)) < 2 ** (_EXACT_BITS - 16):
            self.shifts, pieces = [0], [e]
        else:
            if len(e) > _MAX_WEIGHTS:
                raise ValueError(f"{len(e)} weights are too many for exact float64 products")
            top = max(map(abs, e)).bit_length()
            self.shifts = list(range(0, top, 16))
            pieces = [[c >> s & 0xFFFF if c >= 0 else -(-c >> s & 0xFFFF) for c in e]
                      for s in self.shifts]
        self.w = 32 if max(sum(map(abs, p)) for p in pieces) < 2 ** (_EXACT_BITS - 32) else 16
        self.length = len(e)
        # hankel[t, i, c] = piece t of e[i + c - _ROWS_PER_MATMUL], 0 outside 0..len(e)-1:
        # every block of the Toeplitz matrix, its columns reversed, is a slice of it
        padded = np.zeros((len(pieces), _ROWS_PER_MATMUL + 2 * len(e)))
        padded[:, _ROWS_PER_MATMUL : _ROWS_PER_MATMUL + len(e)] = pieces
        step, shift = padded.strides
        self.hankel = as_strided(padded, (len(pieces), _ROWS_PER_MATMUL + len(e), len(e)),
                                 (step, shift, shift), writeable=False)

    def rows(self, x: list[int], lo: int, start: int, stop: int):
        if start >= stop:
            return
        if not (0 <= lo < min(start, len(x)) and stop - lo <= self.length):
            raise ValueError(f"rows({lo}, {start}, {stop}) is outside {len(x)} entries and {self.length} weights")
        end = min(stop - 1, len(x))  # the columns lo..end-1 that any n reads
        span = x[lo:end][::-1]  # image row t holds x[end - 1 - t]
        size = (max(map(abs, span)).bit_length() + 64) // 64 * 8  # bytes per entry, sign bit included
        pack = partial(int.to_bytes, length=size, byteorder="little", signed=True)
        image = bytearray(len(span) * size)
        for t in range(0, len(span), _ROWS_PER_MATMUL):  # a few at a time: no second copy of x
            image[t * size : (t + _ROWS_PER_MATMUL) * size] = b"".join(
                map(pack, span[t : t + _ROWS_PER_MATMUL]))
        w = self.w
        limbs = np.frombuffer(image, f"<u{w // 8}").reshape(len(span), -1)  # little-endian, as packed
        signed = limbs.view(f"<i{w // 8}")
        stored, height = len(x), len(span)
        del x, span  # a freeing ladder holds row j - 1 only here, and the image replaces it
        width = limbs.shape[1]
        chunk = min(width, max(_MIN_LIMBS_PER_MATMUL, _SLICE_FLOATS // height))
        phases = 64 // w  # limbs l = phases q + p: phase p's sums sit 64 bits apart, never overlapping
        # each limb sum is biased by 2^53 to be non-negative; bias takes that off again
        unit = int.from_bytes((1).to_bytes(w // 8, "little") * width, "little")
        bias = -sum(unit << _EXACT_BITS + s for s in self.shifts)
        pieces = len(self.shifts)
        tall = min(_ROWS_PER_MATMUL, stop - start)  # outputs per block; the buffers are sized to it
        toeplitz = np.empty(pieces * tall * height)
        sliced = np.empty((height, chunk))
        sums = np.empty((pieces * tall, width))
        words = np.empty((pieces * tall, phases, width // phases), "<i8")
        for n0 in range(start, stop, tall):
            b = min(tall, stop - n0)
            cols = min(n0 + b - 1, stored) - lo  # m = lo..lo+cols-1, the image's last cols rows
            # block[t b + r, c] = piece t of e[n0 + r - (lo + cols - 1 - c)]
            first = _ROWS_PER_MATMUL + n0 - lo - cols + 1
            block = toeplitz[: pieces * b * cols].reshape(pieces, b, cols)
            np.copyto(block, self.hankel[:, first : first + b, :cols])
            block = block.reshape(pieces * b, cols)
            for l0 in range(0, width, chunk):
                l1 = min(l0 + chunk, width)
                part = sliced[:cols, : l1 - l0]
                np.copyto(part, limbs[height - cols :, l0:l1])
                if l1 == width:  # the top limb carries the sign
                    np.copyto(part[:, -1], signed[height - cols :, -1])
                np.matmul(block, part, out=sums[: pieces * b, l0:l1])
            np.add(sums[: pieces * b].reshape(pieces * b, -1, phases).transpose(0, 2, 1),
                   2**_EXACT_BITS, out=words[: pieces * b], dtype=np.int64, casting="unsafe")
            data = words[: pieces * b].tobytes()
            # parts[(t b + r) phases + p] is phase p of piece t of entry n0 + r
            parts = [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]
            acc = [bias] * b
            for t, shift in enumerate(self.shifts):
                for p in range(phases):
                    k = t * b * phases + p
                    acc = list(map(add, acc, map(lshift, parts[k : k + b * phases : phases],
                                                 repeat(shift + w * p, b))))
            yield from acc


class _PowerRow:
    """The powers f^0..f^k of a registered rule f, row j as integers over its own D_j.

    rows[j][n] = [q^n] f^j D_j with D_j = denoms[j]; D_0 = 1 and D_1 = denom,
    the lcm of f's reduced denominators d_m up to the current order N, so
    base = rows[1].  D_j is the valuation bound of
    `_denominators`, far below denom^j: at N = 512, D_8 of sigma_{-1}
    has 1964 bits where denom^8 has 5942.  Applying q d/dq to f^j gives
    q (f^j)' = j f^(j-1) q f', that is n c_{n,j} = j sum_{i=1..n} i f_i
    c_{n-i,j-1}, the same step that yields the Heim-Neuhauser recurrence for
    Q_n (darcais' test oracle).  Scaled, with g = gcd_i(i base_i) and e_i = i base_i / g,
        rows[j][n] = j g D_j sum_{i=1..n} e_i rows[j-1][n-i] / (denom D_{j-1} n),
    rows[j][0] = f_0^j D_j, a division that is exact because the left side
    is an integer; a remainder raises ArithmeticError.  For sigma_{-1},
    i f_i = sigma(i), so g = denom, e_i = sigma(i) and the multiplier is
    j D_j / D_{j-1}, a small fraction: each step multiplies big entries by
    small integers, where J.C.P. Miller's power recurrence needs big-by-big
    products.  Row j is built from row j - 1, so the ladder keeps every row
    up to k.  The sums over i are the product of row j - 1 with the Toeplitz
    matrix of e, computed exactly on BLAS by `_ExactToeplitz`; powers and
    orders from 2^21 - 1 up are refused.

    A ladder starts at f (k = 1), and only `extend(order, power)` adds rows:
    it makes rows 0..power available to q^order and returns row `power`.  A
    power above k raises k in place, with D_j from the stored rule base,
    unless f^power is 0 to the order (power lead > order, lead the index of
    f's first nonzero coefficient): then no row is added and zeros are
    returned, so no stored row above f is 0 to its order.  A power below k
    extends rows 2..power only; the rows above keep a lower order.  A grown
    order moves every stored row j to its D_j at the new order, then only
    appends.  f^j is 0 below j lead: those zeros are appended, not computed,
    and row j reads row j - 1 only from (j - 1) lead.  The exact scans
    share such a ladder (`_shared_power`); a one-shot build that is never
    extended again passes `free=True`: row j - 1 is dropped once row j is
    complete (base stays), and a later `extend` raises ValueError.  Such a
    build reads only row `power`, and row j at n reads row j - 1 only up to
    n - s, where s >= 1 is the first i with e_i != 0 (s = 1 when every e_i
    is 0); so it stops row j at order - (power - j) s, and a high power
    built to a low order costs little.
    """

    def __init__(self, rule: str):
        self.k = 1
        self.rule = rule
        self.base: list[int] = []
        self.denom = 1
        self.dens: list[int] = []  # the reduced denominators d_m of f, kept for raising k
        self.denoms = [1, 1]
        self.rows: list[list[int] | None] = [[], []]
        self.freed = False

    def _denominators(self, denom: int, nums: list[int], dens: list[int]) -> list[int]:
        """D_0..D_k at order N for f = nums / denom, whose f_m has reduced denominator dens[m].

        c_{n,j} sums products f_{m_1} .. f_{m_j} with m_1 + .. + m_j = n <= N
        and every m_i >= lead, the index of f's first nonzero coefficient.  So
        D_j = prod_p p^e_p(j) clears it when e_p(j) bounds sum_i v_p(d_{m_i})
        over such j-tuples.  An index carries p^a only from w(a) = min{m :
        p^a | d_m} on, so a factor with a levels of p spends w(a) - lead or
        more of the budget B = N - j lead.  Taking levels cheapest first, each
        at its rise in the lower convex envelope of those costs, gives e_p(j)
        (exactly when the costs are convex, as w(a) = p^a is for sigma_{-1};
        an upper bound otherwise).  A larger N never lowers it, so D_j(N)
        divides D_j(N'); more factors can, since each spends lead, so
        D_j / D_{j-1} is a fraction in general.  The d_m above N are not
        factored: their primes keep their power in denom, charged at power j
        as in denom^j.  The ladder stores no row j with j lead > N, so every
        j <= k has a vertex of the envelope within its budget.
        """
        k, order = self.k, len(dens) - 1
        lead = next((m for m, c in enumerate(nums) if c), order + 1)
        big = math.lcm(*(d for d in dens if d > order))
        tail, rest, g = 1, denom, math.gcd(denom, big)
        while g > 1:  # tail starts as the part of denom on the primes of big
            tail *= g
            rest //= g
            g = math.gcd(rest, g)
        first = [order + 1] * (order + 1)  # first[v] = the least m with d_m = v
        for m in range(order, -1, -1):
            if dens[m] <= order:
                first[dens[m]] = m
        sieve = bytearray([0, 0]) + bytearray([1]) * (order - 1)
        for p in range(2, math.isqrt(order) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, order + 1, p)))
        primes = [p for p in compress(range(order + 1), sieve) if not rest % p]
        up, down = [1] * (k + 1), [1] * (k + 1)  # D_j / (D_{j-1} tail) = up[j] / down[j]
        for p in primes:
            w, q = [0], p
            m = min(first[p::p])  # w(a) is the least first[v] over the multiples v <= N of p^a
            while m <= order:
                w.append(m)
                q *= p
                m = min(first[q::q]) if q <= order else order + 1
            hull = [(0, 0)]  # the lower convex envelope of the points (a, w(a) - lead)
            for a in range(1, len(w)):
                y = w[a] - lead
                while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                         <= (hull[-1][1] - hull[-2][1]) * (a - hull[-2][0])):
                    hull.pop()
                hull.append((a, y))
            if hull[1][1] == 0:  # levels at index lead cost nothing: all j take them
                tail *= p ** hull[1][0]
                hull = [(a - hull[1][0], y) for a, y in hull[1:]]
            if len(hull) == 1:
                continue
            # C(j), the costed levels of j factors: with (a, y) the last vertex within the
            # budget, j (lead + y) <= N, it is j a plus what the next rise buys with the rest
            s, j, prev = len(hull) - 1, 1, 0
            while j <= k:
                while j * (hull[s][1] + lead) > order:
                    s -= 1
                a, y = hull[s]
                end = min(order // (y + lead), k) if y + lead else k  # the last j at this vertex
                if s == len(hull) - 1:  # every level fits: C(j) = j a
                    step = p**a
                    for i in range(max(j, 2), end + 1):
                        up[i] *= step
                    prev, j = end * a, end + 1
                    continue
                da, dy = hull[s + 1][0] - a, hull[s + 1][1] - y
                slope, start = a * dy - (lead + y) * da, order * da  # C(j) = (slope j + start) // dy
                while j <= end:
                    levels = (slope * j + start) // dy
                    if levels > prev and j > 1:
                        up[j] *= p ** (levels - prev)
                    elif levels < prev:
                        down[j] *= p ** (prev - levels)
                    prev = levels
                    if slope > 0:  # the next j where C(j) changes, or the next vertex
                        j = min(-(((levels + 1) * dy - start) // -slope), end + 1)
                    elif slope < 0:
                        j = min((start - levels * dy) // -slope + 1, end + 1)
                    else:
                        j = end + 1
        denoms = [1, denom]
        for j in range(2, k + 1):
            denoms.append(denoms[-1] * up[j] * tail // down[j])
        return denoms

    def extend(self, order: int, power: int, free: bool = False) -> list[int]:
        """Make rows[0..power][0..order] available; row `power`, or zeros if f^power is 0 to the order."""
        if order + 1 >= _MAX_WEIGHTS:
            raise ValueError(f"order {order} is above the exact power ladder's limit {_MAX_WEIGHTS - 2}")
        if power + 1 >= _MAX_WEIGHTS:
            raise ValueError(f"power {power} is above the exact power ladder's limit {_MAX_WEIGHTS - 2}")
        if self.freed:
            raise ValueError("this power row freed its ladder and cannot be extended")
        rows, k = self.rows, self.k
        if power <= k and order < len(rows[power]):
            return rows[power]
        old = len(self.base)
        grown = order >= old
        base, denom, dens = self.base, self.denom, self.dens
        if grown:
            base, denom, dens = _scaled_rule_base(self.rule, order)
            scale, rem = divmod(denom, self.denom)
            if rem or [c * scale for c in self.base] != base[:old]:
                raise ValueError(f"series rule {self.rule!r} changed its coefficients below q^{old}")
        lead = next((i for i, c in enumerate(base) if c), len(base))  # f^j = 0 below j lead
        zero = power > k and lead and power * lead > order  # f^power is 0 to the order: no row above f
        if zero:
            power = 1
        elif power > k:
            self.k = power
            rows += [[] for _ in range(power - k)]
        if grown or self.k > k:
            denoms = self._denominators(denom, base, dens)
            for j, row in enumerate(rows[2 : k + 1] if grown else [], 2):  # to the D_j of the new order
                r = math.gcd(denoms[j], self.denoms[j])
                up, down = denoms[j] // r, self.denoms[j] // r
                if down != 1:  # only when a d_m above the old order is now factored
                    row[:] = [_divide_exactly(c * up, down, j, n) for n, c in enumerate(row)]
                elif up != 1:
                    row[:] = [c * up for c in row]
            self.base, self.denom, self.dens, self.denoms = base, denom, dens, denoms
        base, denom, denoms = self.base, self.denom, self.denoms
        rows[0] += [int(n == 0) for n in range(len(rows[0]), order + 1)]
        rows[1] = base
        self.freed = free
        if zero:  # before the kernel: a refused raise builds nothing
            return [0] * (order + 1)
        weights = [i * c for i, c in enumerate(base[: order + 1])]
        g = math.gcd(*weights) or 1
        toeplitz = _ExactToeplitz([w // g for w in weights])
        s = next((i for i, w in enumerate(weights) if w), 1)  # e_i = 0 for i < s
        for j in range(2, power + 1):
            row = rows[j]
            if not row:  # f_0^j D_j = f_0^(j-1) D_(j-1) f_0 denom D_j / (denom D_(j-1))
                row.append(_divide_exactly(rows[j - 1][0] * base[0] * denoms[j], denom * denoms[j - 1], j, 0)
                           if base[0] else 0)
            top = order - (power - j) * s if free else order  # the band row `power` needs
            row += [0] * (min(j * lead, top + 1) - len(row))
            if len(row) <= top:  # the multiplier j g D_j / (denom D_(j-1)), reduced
                up, down = j * g * denoms[j], denom * denoms[j - 1]
                r = math.gcd(up, down)
                up, down = up // r, down // r
            sums = toeplitz.rows(rows[j - 1], (j - 1) * lead, len(row), top + 1)
            if free and j > 2:
                rows[j - 1] = None  # the kernel's limb image of row j - 1 replaces it
            for n, acc in enumerate(sums, len(row)):  # runs sums to its end, which frees its buffers
                c, rem = divmod(up * acc, down * n)
                if rem:
                    raise ArithmeticError(f"row {j} of the power ladder is not an integer at q^{n}")
                row.append(c)
        return rows[power]


def _divide_exactly(num: int, den: int, j: int, n: int) -> int:
    """num / den, which must be an integer: entry n of power row j."""
    c, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"row {j} of the power ladder is not an integer at q^{n}")
    return c


def _shared_power(rule: str, k: int, order: int) -> list[int]:
    """Row k of the rule's shared ladder, f^k D_k, to q^order or to the higher order it has.

    The exact scans read f^k here, so a scan of k reuses the rows f^2..f^(k-1)
    that earlier scans built; a raised power is built to the order of the
    rows below it, and a row that is 0 to the order is returned as zeros.  A
    ladder whose `extend` raises is dropped: a rescale stopped halfway
    leaves rows over two denominators.
    """
    ladder = _LADDERS.setdefault(rule, _PowerRow(rule))
    order = max(order, len(ladder.rows[min(k, ladder.k)]) - 1)
    if k <= ladder.k and order < len(ladder.rows[k]):
        return ladder.rows[k]
    try:
        return ladder.extend(order, k)
    except BaseException:
        del _LADDERS[rule]
        raise


def _shared_order(rule: str, k: int) -> int:
    """The order to which the rule's shared ladder holds row k; -1 when it holds no row k."""
    ladder = _LADDERS.get(rule)
    return len(ladder.rows[k]) - 1 if ladder is not None and k <= ladder.k else -1


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

    np.convolve correlates the longer operand with the shorter one through a
    reversed view, and its dot products ran about 15-20 % slower for some
    addresses of a (OpenBLAS), so the float scans' time moved with unrelated
    edits.  Each block product therefore first reverses the shorter operand
    into a buffer that starts on a 64-byte boundary, and hands np.convolve a
    reversed view of that: the same products in the same order.
    """
    n = len(a)
    out = np.zeros(n, dtype=np.result_type(a, b))
    spare = np.empty(_BLOCK + 64 // out.itemsize, out.dtype)
    rev = spare[-spare.ctypes.data % 64 // out.itemsize :][:_BLOCK]

    def convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if len(y) > len(x):
            x, y = y, x
        np.copyto(rev[: len(y)], y[::-1])
        return np.convolve(x, rev[len(y) - 1 :: -1])

    if b is a:
        for s in range(0, (n + 1) // 2, _BLOCK):  # a block at s >= n/2 reaches no index below n
            block = a[s : s + _BLOCK]
            diag = convolve(block, block)[: n - 2 * s]
            out[2 * s : 2 * s + len(diag)] += diag
            t = s + len(block)
            if t < n - s:
                out[s + t :] += 2 * convolve(block, a[t : n - s])[: n - s - t]
    else:
        for s in range(0, n, _BLOCK):
            out[s:] += convolve(a[s : s + _BLOCK], b[: n - s])[: n - s]
    return out


def _sum_terms(n: int) -> int:
    """The most rounded terms any output of `_convolve_prefix` adds up, plus 16.

    Each output takes one np.convolve dot of at most min(n, B) products from
    every block that reaches it, and at most 2 ceil(n/B) of these dots are
    added to it (a square's diagonal and off-diagonal blocks).  So every
    product passes through at most min(n, B) + 2 ceil(n/B) roundings, whatever
    order each dot sums in (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3-4).  The 16 is headroom: `BallSeries.multiply` adds
    nothing to the outputs it keeps and computes its radius exactly, so no
    elementwise rounding spends it, and keeping it keeps the radii of the
    earlier four-convolution kernel.  The count never exceeds that of one
    plain sum of 2n + 16 terms.
    """
    return min(min(n, _BLOCK) + 2 * -(-n // _BLOCK), 2 * n) + 16


def _exact(x) -> Fraction:
    """A finite float or numpy float scalar as an exact rational."""
    return Fraction(*x.as_integer_ratio())


def _round_up(x: Fraction | float, dtype):
    """A value of the dtype not below x >= 0; in the normal range within 2^-51 of x relatively.

    x is cut to 53 bits upward, so float64 holds it exactly and ldexp only
    scales; nextafter repairs a result that ldexp rounded in the subnormal
    range.  Past the range of the dtype, and for x = inf, it is inf.
    """
    scalar = np.dtype(dtype).type
    if x == 0 or x == math.inf:
        return scalar(x)
    e = x.numerator.bit_length() - x.denominator.bit_length() - 52
    m = math.ceil(x / Fraction(2) ** e)  # in [2^51, 2^53]
    with np.errstate(over="ignore"):
        v = np.ldexp(scalar(float(m)), e)
    while np.isfinite(v) and _exact(v) < x:
        v = np.nextafter(v, scalar(np.inf))
    return v


def _may_underflow(a: np.ndarray, b: np.ndarray) -> bool:
    """True when a product of two positive midpoints can round below the normal range.

    The smallest such product is that of the two smallest positive
    midpoints; a product below the least normal number rounds to at most
    it, so comparing the rounded product with twice that number misses none.
    """
    tiny = np.finfo(a.dtype).tiny
    a_min = np.min(a, initial=np.inf, where=a > 0)
    b_min = a_min if b is a else np.min(b, initial=np.inf, where=b > 0)
    return bool(a_min * b_min < 2 * tiny)


class BallSeries:
    """Float enclosure of a series with non-negative coefficients.

    Coefficient n is exactly 0 below `lead`; from `lead` on it lies within
    eps*mid[n] + tau of mid[n].  The relative radius `eps` and the absolute
    term `tau` (underflow, and what a product inherits from it) are one
    scalar each per series, exact or rounded upward, in the dtype of `mid`.
    `unit` is the unit roundoff of the dtype (2^-53 for float64).  `rad` and
    `bounds` build the per-coefficient radius from them.
    """

    __slots__ = ("mid", "eps", "tau", "lead", "unit")

    def __init__(self, mid: np.ndarray, eps, tau, lead: int, unit: float):
        self.mid = mid
        self.eps = eps
        self.tau = tau
        self.lead = lead
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
        exact_limit = 1 << np.finfo(dtype).nmant
        scalar = np.dtype(dtype).type
        eps = 2 * unit  # one correctly-rounded division is within u|c| <= 2u mid[n]
        for n, c in enumerate(coeffs):
            if c < 0:
                raise ValueError("BallSeries requires non-negative coefficients")
            num, den = c.numerator, c.denominator
            if num < exact_limit and den < exact_limit:
                # both operands exact in the dtype: one correctly-rounded division
                mid[n] = scalar(num) / scalar(den)
            else:
                # route through float64: at most two roundings, which holds
                # only where float64 keeps full precision
                if c and not _F64_TINY <= c <= _F64_MAX:
                    # the nearest power of ten; log10 of an int reads its bits, so a
                    # coefficient too long for str() still gets this message
                    digits = round(math.log10(num) - math.log10(den))
                    raise ValueError(
                        f"series coefficient {n} = about 10^{digits} is outside the "
                        "normal float64 range, so it cannot be enclosed"
                    )
                mid[n] = scalar(float(c))
                eps = 2.0**-50
        lead = next((n for n, c in enumerate(coeffs) if c), len(coeffs))
        return cls(mid, scalar(eps), scalar(0.0), lead, unit)

    @classmethod
    def divisor_sum_series(cls, n_max: int, dtype=np.float64) -> "BallSeries":
        """Enclosure of f(q); sigma(n) and n are dtype-exact, so one rounding."""
        unit = float(np.finfo(dtype).eps) / 2.0
        scalar = np.dtype(dtype).type
        sig = np.array(sigma_sieve(n_max), dtype)
        idx = np.arange(n_max + 1, dtype=dtype)
        idx[0] = 1.0
        mid = sig / idx
        mid[0] = 0.0
        return cls(mid, scalar(2 * unit), scalar(0.0), min(1, n_max + 1), unit)

    def multiply(self, other: "BallSeries") -> "BallSeries":
        """Enclosure of the product, computing only the kept coefficients.

        One convolution, mid*mid (see `_convolve_prefix`; a square forms each
        pair (i, j) once).  Let P[n] be the exact sum of the midpoint products
        and M[n] its float value: |M - P| <= g P + U, with g the summation
        error and U the underflow.  The balls add (eps_a + eps_b + eps_a eps_b) P
        and an absolute part T, the sum over the pairs of
        tau_b (1 + eps_a) mid_a[i] + tau_a (1 + eps_b) mid_b[j] + tau_a tau_b.
        Since P <= (M + U)/(1 - g), the product has
            eps = (eps_a + eps_b + eps_a eps_b + g) / (1 - g),
            tau = T + (1 + eps) U,
        computed exactly and rounded up.  An overflowed midpoint makes its
        radius, or tau when its sum is needed, infinite, so it decides nothing.
        """
        if self.order != other.order:
            raise ValueError("truncation orders differ")
        if self.unit != other.unit:
            raise ValueError("mixed precisions")
        n = self.order + 1
        dtype = self.mid.dtype
        mid = _convolve_prefix(self.mid, other.mid)
        # g bounds the relative error of a sum in which every product passes
        # through at most _sum_terms(n) roundings (one dot per block plus the
        # block additions of _convolve_prefix; doubling is exact), doubled
        # for headroom
        lu = _sum_terms(n) * Fraction(self.unit)
        g = 2 * lu / (1 - lu)
        ea, eb = _exact(self.eps), _exact(other.eps)
        eps = (ea + eb + ea * eb + g) / (1 - g)
        tau = self._inherited_tau(other)
        if _may_underflow(self.mid, other.mid):
            # a product rounded into the subnormal range is off by at most eta/2
            # (eta the smallest subnormal), and a doubled one stands for two;
            # U = n eta covers the at most n products of one coefficient
            tau += n * _exact(np.finfo(dtype).smallest_subnormal) * (1 + eps)
        lead = min(self.lead + other.lead, n)  # below it every product term is an exact 0
        return BallSeries(mid, _round_up(eps, dtype), _round_up(tau, dtype), lead, self.unit)

    def _inherited_tau(self, other: "BallSeries") -> Fraction | float:
        """T of `multiply`; inf when a tau or a midpoint sum it needs is not finite."""
        if not (np.isfinite(self.tau) and np.isfinite(other.tau)):
            return math.inf
        ta, tb = _exact(self.tau), _exact(other.tau)
        tau = len(self.mid) * ta * tb
        for t, e, mid in ((tb, self.eps, self.mid), (ta, other.eps, other.mid)):
            if t:
                # in any order, a float sum of m non-negative terms is at least
                # 1 - gamma_{m-1} >= 1 - 2mu times the exact sum
                total = mid.sum()
                if not np.isfinite(total):
                    return math.inf
                tau += t * (1 + _exact(e)) * _exact(total) / (1 - 2 * len(mid) * Fraction(self.unit))
        return tau

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

    @property
    def rad(self) -> np.ndarray:
        """Per-coefficient radii: eps*mid + tau rounded upward, 0 below `lead`.

        With t >= tau + eta rounded up, (eps*mid + t)*(1 + 4u) has three
        roundings; the relative ones are covered by the factor 1 + 4u, and the
        absolute eta/2 a subnormal product may lose by the eta in t.
        """
        dtype = self.mid.dtype
        scalar = dtype.type
        eta = _exact(np.finfo(dtype).smallest_subnormal)
        t = _round_up(_exact(self.tau) + eta, dtype) if np.isfinite(self.tau) else self.tau
        rad = (self.eps * self.mid + t) * (scalar(1.0) + scalar(4 * self.unit))
        rad[: self.lead] = 0
        return rad

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coefficient lower/upper bounds, outward-rounded."""
        scalar = self.mid.dtype.type
        rad = self.rad
        out = scalar(2.0) ** -max(self.precision_bits - 3, 1)
        lo = np.maximum((self.mid - rad) * (scalar(1.0) - out), scalar(0.0))
        hi = (self.mid + rad) * (scalar(1.0) + out)
        return lo, hi
