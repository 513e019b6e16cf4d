"""The polynomials Q_n(z) by four methods, three of them independent.

Q_n(z) = sum over partitions of n of prod_{cells} (1 + z/hook^2), and
sum_n Q_n(z) q^n = prod_{m>=1} (1 - q^m)^(-z-1) = P(q) exp(z f), with P the
partition series and f = sum_n sigma_{-1}(n) q^n.  The table A[n][k] also
comes from part-multiplicity binomials, from trivial-leg hooks (row i's are
1..lambda_i - lambda_{i+1}, the multiplicity roots 1..k_i of the conjugate: a
relabelling, term by term), or as the paper's column P f^k / k!, f^k read off
the exact power ladder and P divided out by Euler's pentagonal recurrence, for
n up to TABLE_LIMIT.  The enumeration methods have a configurable partition budget.

Every route runs in integers over known denominators (k! D_k for column k of
the table, n! for the trivial-leg hooks and the multiplicities, (n!)^2 for
the hooks) and makes Fractions only for the values it returns.  An
enumeration route writes each partition's term as
prod (z + r) / prod r over its roots r and sums the terms at z = 2^b
(Kronecker substitution), with slots of b = bitlen(p(n) D) + n + 1 bits for
its denominator D, which no coefficient can overflow.  It walks the
partitions depth first, one block of equal parts (or one row of the
diagram, for the hooks) per step, and carries the packed term of the roots
so far down the walk: one packed multiply per walk step.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, mul, sub

from .partitions import partition_count
from .series import RationalSeries, _PowerRow

DEFAULT_ENUM_LIMIT = 32
TABLE_LIMIT = 500  # the largest n of the Q table: about 180 MB peak RSS at the top, 45 MB of it the ladder
ENUM_LIMIT_ENV = "NEKRASOV_ENUM_LIMIT"


class EnumerationLimitError(ValueError):
    """A hook-enumeration method was asked to run above its partition budget."""

    def __init__(self, n: int, limit: int):
        self.n = n
        self.limit = limit
        super().__init__(
            f"n={n} exceeds the enumeration limit {limit} "
            f"(p({n}) partitions would be enumerated; raise the limit via the "
            f"{ENUM_LIMIT_ENV} environment variable or an explicit argument)"
        )


def enumeration_limit(limit: int | None = None) -> int:
    """Resolve the partition-enumeration budget: argument, env var, default."""
    if limit is not None:
        return limit
    env = os.environ.get(ENUM_LIMIT_ENV)
    if env is None:
        return DEFAULT_ENUM_LIMIT
    if not env.strip().isdecimal():
        raise ValueError(f"{ENUM_LIMIT_ENV} must be a non-negative integer, not {env!r}")
    return int(env)


@dataclass(frozen=True)
class QPolynomial:
    """Exact coefficients A_{n,0..n} of Q_n(z)."""

    n: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.n + 1:
            raise ValueError(f"Q_{self.n} needs exactly {self.n + 1} coefficients")

    def dump_lines(self) -> list[str]:
        """Dump format: one "n k p/q" line per coefficient."""
        return [f"{self.n} {k} {c}" for k, c in enumerate(self.coeffs)]


def _packed_sum(n: int, fact_power: int, limit: int | None, walk) -> QPolynomial:
    """Q_n from walk(n, D, z) = sum over the partitions of n of (D / prod r) prod (z + r).

    r runs over the partition's roots (squared hooks, trivial-leg hooks, or
    1..k_j for each part multiplicity k_j).  Every prod r divides
    D = (n!)^fact_power (the squared hooks multiply to (n!/f_lambda)^2, the
    trivial-leg hooks to factorials of row-length differences, and the 1..k_j
    to prod k_j! with sum k_j <= n), so the walk sums in integers at z = 2^b,
    read back as n + 1 slots of b bits.  Each term has non-negative
    coefficients summing to D prod (1 + 1/r) <= D 2^n (at most n roots
    r >= 1), so every coefficient of the sum is at most p(n) D 2^n < 2^(b-1)
    and no slot carries into the next.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    cap = enumeration_limit(limit)
    if n > cap:
        raise EnumerationLimitError(n, cap)
    denom = math.factorial(n) ** fact_power
    b = (partition_count(n) * denom).bit_length() + n + 1
    z = 1 << b
    total = walk(n, denom, z)
    return QPolynomial(n, tuple(Fraction(total >> (b * k) & (z - 1), denom) for k in range(n + 1)))


def _blocks(z: int, n: int, power: int) -> tuple[list[int], list[int]]:
    """([(z + 1^p)...(z + g^p) for g in 0..n], [(g!)^p for g in 0..n]), p = power."""
    roots = [r**power for r in range(1, n + 1)]
    return (list(accumulate(roots, lambda acc, r: acc * (z + r), initial=1)),
            list(accumulate(roots, mul, initial=1)))


def _block_walk(n: int, denom: int, z: int, by_gap: bool) -> int:
    """The packed sum over the partitions of n whose roots come in blocks 1..g.

    A depth-first walk adds one block of k equal parts j per step, the part
    sizes ascending, and carries (D / prod r) prod (z + r) over the roots so
    far as one integer: a step divides it by g! and multiplies it by
    (z + 1)...(z + g).  For the multiplicities g = k.  For the trivial-leg
    hooks g = j - i, with i the next smaller part size or 0: only the last row
    of the block has cells of leg 0 and their hooks are 1..j - i.  A step
    that leaves a remainder leaves more than j, so every branch ends in a
    partition (the remainder as one part).
    """
    blocks, facts = _blocks(z, n, 1)
    total = 0

    def step(rem: int, prev: int, carried: int) -> None:
        nonlocal total
        g = rem - prev if by_gap else min(rem, 1)  # the remainder as one part (none for n = 0)
        total += carried // facts[g] * blocks[g]
        for j in range(prev + 1, rem // 2 + 1):
            if by_gap:
                nxt = carried // facts[j - prev] * blocks[j - prev]
            for k in range(1, rem // j + 1):
                r = rem - j * k
                if 0 < r <= j:
                    continue
                if not by_gap:
                    nxt = carried // facts[k] * blocks[k]
                if r:
                    step(r, j, nxt)
                else:
                    total += nxt

    step(n, 0, denom)
    return total


def _hook_walk(n: int, denom: int, z: int) -> int:
    """The packed sum of (D / prod h^2) prod (z + h^2) over the hooks h of every partition of n.

    A depth-first walk builds lambda from the bottom row up.  Over rows whose
    top row has length t and whose columns have heights col, a new top row
    of length L >= t has the hooks L - j + col[j] for j < t, then L - t, ...,
    1, and leaves every hook below it unchanged: one step divides the carried
    integer by the row's squared hooks and multiplies it by their factors.
    lambda and its conjugate have the same hooks, so only the partitions with
    lambda_1 >= l(lambda) are walked, with weight 2 when lambda_1 > l(lambda).
    """
    blocks, facts = _blocks(z, n, 2)
    total = 0

    def place(carried: int, base: list[int], L: int) -> int:
        sq = [(L + c) ** 2 for c in base]
        g = L - len(base)
        return carried // (math.prod(sq) * facts[g]) * (blocks[g] * math.prod([z + w for w in sq]))

    def step(rem: int, depth: int, base: list[int], carried: int) -> None:
        # depth rows hold n - rem cells; base[j] = col[j] - j under their top row
        nonlocal total
        top = len(base)
        # a row below the last leaves at least its own length, and depth + 2 cells for
        # a last row no shorter than lambda is tall
        for L in range(max(top, 1), min(rem // 2, rem - depth - 2) + 1):
            above = [c + 1 for c in base] + list(range(1 - top, 1 - L, -1))
            step(rem - L, depth + 1, above, place(carried, base, L))
        total += place(carried, base, rem) << (rem > depth + 1)

    step(n, 0, [], denom)
    return total


def q_via_hooks(n: int, limit: int | None = None) -> QPolynomial:
    """Q_n from the full hook products prod (1 + z/h^2) over all partitions."""
    return _packed_sum(n, 2, limit, _hook_walk)


def q_via_trivial_hooks(n: int, limit: int | None = None) -> QPolynomial:
    """Q_n from products prod (1 + z/h) over the trivial-leg hooks only."""
    return _packed_sum(n, 1, limit, lambda n, denom, z: _block_walk(n, denom, z, by_gap=True))


def q_via_multiplicities(n: int, limit: int | None = None) -> QPolynomial:
    """Q_n from prod_j binom(k_j + z, k_j) = prod_j (z+1)...(z+k_j)/k_j! over all partitions."""
    return _packed_sum(n, 1, limit, lambda n, denom, z: _block_walk(n, denom, z, by_gap=False))


class _QTable:
    """Append-only integer table of b_n[k] = [q^n] P f^k D_k, grown to exactly the N asked for.

    prod (1 - q^m)^(-z-1) = P exp(z f), so column k is A[.][k] = P f^k / k!, the
    paper's A[n][k] = (1/k!) sum_i p(n-i) c[i][k], with c[i][k] D_k = rows[k][i]
    read off `powers`, the package's one exact ladder of f^k (series._PowerRow).
    Dividing by P is multiplying by Euler's prod (1 - q^m) = sum_j (-1)^j
    q^(j(3j-1)/2), so b_n = rows[.][n] + b_{n-1} + b_{n-2} - b_{n-5} - b_{n-7} + ...
    (one pass over all columns per pentagonal number) and A[n][k] = b_n[k] / (k! D_k).
    Growing to N' raises the ladder to power and order N' (rows f^0..f^N') and
    moves each stored column k to D_k(N') as its rows move.  Row n also stores
    its QPolynomial Q_n, the object warm reads return.  A growth that raises
    empties the table, so the next read rebuilds it.  The Heim-Neuhauser
    recurrence is the tests' oracle.  Unlocked: the package runs single-threaded.
    """

    def __init__(self):
        self.ints: list[list[int]] = []  # ints[n][k] = b_n[k], over denoms[k]
        self.denoms: list[int] = []  # the D_k of the stored columns
        self.rows: list[QPolynomial] = []  # rows[n].coeffs[k] = A[n][k]
        self.powers = _PowerRow("sigma-minus-one")  # never freed

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def ensure(self, n_max: int) -> None:
        """Raise the ladder to power and order n_max, move the columns to its D_k, append b_n and A[n][.]."""
        if n_max <= self.n_max:
            return
        if n_max > TABLE_LIMIT:
            raise ValueError(f"n={n_max} is above the Q table limit {TABLE_LIMIT}")
        try:
            powers, ints = self.powers, self.ints
            powers.extend(n_max, n_max)
            denoms = powers.denoms[: n_max + 1]  # at n_max = 0 the ladder still holds f
            for k, old in enumerate(self.denoms):  # column k moves to the new D_k
                if old != denoms[k]:
                    r = math.gcd(denoms[k], old)
                    for n, b in enumerate(ints[k:], k):
                        b[k], rem = divmod(b[k] * (denoms[k] // r), old // r)
                        if rem:
                            raise ArithmeticError(f"column {k} of the Q table is not an integer at q^{n}")
            self.denoms = denoms
            # (m, sign) for the generalized pentagonal numbers m = j(3j -+ 1)/2 <= n_max, ascending
            steps = [(m, add if j % 2 else sub) for j in range(1, math.isqrt(n_max) + 2)
                     for m in (j * (3 * j - 1) // 2, j * (3 * j + 1) // 2) if m <= n_max]
            scales = [math.factorial(k) * d for k, d in enumerate(denoms)]
            for n in range(self.n_max + 1, n_max + 1):
                b = [row[n] for row in powers.rows[: n + 1]]
                for m, sign in steps:
                    if m > n:
                        break
                    prev = ints[n - m]
                    b[: len(prev)] = map(sign, b, prev)
                ints.append(b)
                self.rows.append(QPolynomial(n, tuple(map(Fraction, b, scales))))
        except BaseException:  # a growth stopped part-way leaves misaligned or half-moved rows
            self.__init__()
            raise


_ladder = _QTable()


def q_via_recursion(n: int) -> QPolynomial:
    """Q_n from the cached table, whose column k is P f^k / k!: no partition is enumerated."""
    if n < 0:
        raise ValueError("n must be non-negative")
    _ladder.ensure(n)
    return _ladder.rows[n]


def q_table_via_recursion(n_max: int) -> list[QPolynomial]:
    """All of Q_0..Q_{n_max} from the cached table."""
    _ladder.ensure(n_max)
    return _ladder.rows[: max(n_max + 1, 0)]  # a fresh list; rows[:0] for a negative n_max


def coefficient_series(k: int, n_max: int) -> RationalSeries:
    """The series sum_n A_{n,k} q^n truncated at n_max."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _ladder.ensure(n_max)  # A_{m,k} = 0 for k > m: no row past n_max is read
    rows, zero = _ladder.rows, Fraction(0)
    return RationalSeries([rows[m].coeffs[k] if m >= k else zero for m in range(n_max + 1)])


def a_cross_recursion(a: int, b: int, n: int) -> Fraction:
    """A_{n,b} = (a!/b!) sum_i A_{n-i,a} c_{i,b-a}, with c_{i,j} = [q^i] f^j.

    Computed in integers from column a of the table, b_m[a] = a! D_a A_{m,a},
    and row j = b - a of its power ladder, rows[j][i] = c_{i,j} D_j:
    A_{n,b} = sum_i b_{n-i}[a] rows[j][i] / (b! D_a D_j).
    """
    if not (0 <= a < b <= n):
        raise ValueError("requires 0 <= a < b <= n")
    _ladder.ensure(n)
    col_a = [row[a] for row in reversed(_ladder.ints[a : n + 1])]  # b_m[a] for m = n down to a
    acc = sum(map(mul, col_a, _ladder.powers.rows[b - a]))
    return Fraction(acc, math.factorial(b) * _ladder.denoms[a] * _ladder.powers.denoms[b - a])


_METHODS = {
    "recursion": q_via_recursion,
    "hooks": q_via_hooks,
    "trivial-hooks": q_via_trivial_hooks,
    "multiplicities": q_via_multiplicities,
}


def method_names() -> list[str]:
    return list(_METHODS)


def q_polynomial(n: int, method: str = "recursion") -> QPolynomial:
    """Compute Q_n by the named method."""
    try:
        fn = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r} (known: {method_names()})") from None
    return fn(n)
