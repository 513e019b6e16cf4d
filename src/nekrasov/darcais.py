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
the table, top! for the trivial-leg hooks and the multiplicities of a range
of n up to top, (n!)^2 for the hooks) and makes Fractions only for the values
it returns.  An enumeration route sums each partition's prod (z + r) / prod r
at z = 2^b (_packed_rows) in a depth-first walk whose steps return their
subtree's packed sums, D entering at the leaves, divided exactly by the roots
each step adds.  q_polynomials computes a range of n at once: the two block
walks cache each step's sum, a function of (remainder, last part size)
alone, and share it across every parent and every n of the range; the hook
walk's steps never recur, so it walks each n on its own.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate
from operator import add, mul, sub
from typing import Sequence

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
        if limit < 0:
            raise ValueError(f"the enumeration limit must be a non-negative integer, not {limit!r}")
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


def _enumerable_top(ns: Sequence[int], limit: int | None) -> int:
    """The largest n of ns, once a negative n or an n above the enumeration budget is refused."""
    if min(ns) < 0:
        raise ValueError("n must be non-negative")
    cap = enumeration_limit(limit)
    top = max(ns)
    if top > cap:
        raise EnumerationLimitError(min(n for n in ns if n > cap), cap)
    return top


def _packed_rows(ns: Sequence[int], fact_power: int, limit: int | None, walk) -> list[QPolynomial]:
    """Q_n for each n in ns from walk(top, D, z), top = max(ns): a function of n <= top
    giving the sum over the partitions of n of (D / prod r) prod (z + r).

    r runs over the partition's roots (squared hooks, trivial-leg hooks, or
    1..k_j for each part multiplicity k_j).  Every prod r divides
    (n!)^fact_power, and so D = (top!)^fact_power (the squared hooks multiply
    to (n!/f_lambda)^2, the trivial-leg hooks to factorials of row-length
    differences, and the 1..k_j to prod k_j! with sum k_j <= n), so the walk
    sums in integers at z = 2^b, read back as n + 1 slots of b bits.  Each
    term has non-negative coefficients summing to D prod (1 + 1/r) <= D 2^n
    (at most n roots r >= 1), so every coefficient of row n is at most
    p(n) D 2^n <= p(top) D 2^top < 2^(b-1) and no slot carries into the next.
    """
    top = _enumerable_top(ns, limit)
    denom = math.factorial(top) ** fact_power
    b = (partition_count(top) * denom).bit_length() + top + 1
    z = 1 << b
    total = walk(top, denom, z)
    return [QPolynomial(n, tuple(Fraction(t >> (b * k) & (z - 1), denom) for k in range(n + 1)))
            for n, t in zip(ns, map(total, ns))]


def _blocks(z: int, n: int, power: int) -> tuple[list[int], list[int]]:
    """([(z + 1^p)...(z + g^p) for g in 0..n], [(g!)^p for g in 0..n]), p = power."""
    roots = [r**power for r in range(1, n + 1)]
    return (list(accumulate(roots, lambda acc, r: acc * (z + r), initial=1)),
            list(accumulate(roots, mul, initial=1)))


def _block_walk(top: int, denom: int, z: int, by_gap: bool):
    """n -> the packed sum over the partitions of n <= top whose roots come in blocks 1..g.

    step(rem, prev) is the packed sum over the partitions of rem into parts
    above prev.  It adds one block of k equal parts j > prev and takes each
    child's sum, over the rest, divided by g! (exactly: a partition's roots
    multiply to a divisor of D) and multiplied by (z + 1)...(z + g).  For the
    multiplicities g = k.  For the trivial-leg hooks g = j - prev: only the
    last row of the block has cells of leg 0 and their hooks are 1..j - prev.
    A step that leaves a remainder leaves more than j, so every branch ends in
    a partition (the remainder as one part).  D and z are fixed by top, so a
    step depends on (rem, prev) alone, and one cache of it serves every
    parent and every n <= top: row n reads step(n, 0), and each state is
    summed once per range.  A state's sum still holds one term per partition.
    """
    blocks, facts = _blocks(z, top, 1)
    leaves = [denom // f * b for f, b in zip(facts, blocks)]  # a last block of g roots

    @cache
    def step(rem: int, prev: int) -> int:
        acc = leaves[rem - prev if by_gap else min(rem, 1)]  # the remainder as one part (none for n = 0)
        for j in range(prev + 1, rem // 2 + 1):
            below = 0  # by gap, every block of parts j has the roots 1..j - prev
            for k in range(1, rem // j + 1):
                r = rem - j * k
                if 0 < r <= j:
                    continue
                if by_gap:
                    below += step(r, j) if r else denom
                else:
                    acc += step(r, j) // facts[k] * blocks[k] if r else leaves[k]
            if by_gap:
                acc += below // facts[j - prev] * blocks[j - prev]
        return acc

    return lambda n: step(n, 0)


def _hook_walk(n_max: int, denom: int, z: int):
    """n -> the packed sum of (D / prod h^2) prod (z + h^2) over the partitions of n <= n_max.

    A depth-first walk builds lambda from the bottom row up.  Over rows whose
    top row has length t and whose columns have heights col, a new top row
    of length L >= t has the hooks L - j + col[j] for j < t, then L - t, ...,
    1, and leaves every hook below it unchanged.  Each step returns the
    packed sum over its subtree, a child's divided by the row's squared hooks
    and multiplied by their z + h^2: exactly, as relative to the rows mu below
    a row a term of lambda is D / prod_{lambda/mu} h^2 = (f_lambda prod_mu h)^2.
    lambda and its conjugate have the same hooks, so only the partitions with
    lambda_1 >= l(lambda) are walked, with weight 2 when lambda_1 > l(lambda).
    A state (rem, base) fixes the rows below it, and so the partition and n:
    no state recurs, and q_via_hooks walks each n on its own.
    """
    blocks, facts = _blocks(z, n_max, 2)
    factors = [z + h * h for h in range(n_max + 1)]  # no hook exceeds n

    def place(packed: int, base: list[int], L: int) -> int:
        hooks = [L + c for c in base]
        g = L - len(base)
        den = math.prod(hooks) ** 2 * facts[g]
        return packed // den * (blocks[g] * math.prod(map(factors.__getitem__, hooks)))

    def step(rem: int, depth: int, base: list[int]) -> int:
        # depth rows hold n - rem cells; base[j] = col[j] - j under their top row
        top = len(base)
        acc = place(denom, base, rem) << (rem > depth + 1)
        # a row below the last leaves at least its own length, and depth + 2 cells for
        # a last row no shorter than lambda is tall
        for L in range(max(top, 1), min(rem // 2, rem - depth - 2) + 1):
            above = [c + 1 for c in base] + list(range(1 - top, 1 - L, -1))
            acc += place(step(rem - L, depth + 1, above), base, L)
        return acc

    return lambda n: step(n, 0, [])


def q_via_hooks(n: int, limit: int | None = None) -> QPolynomial:
    """Q_n from the full hook products prod (1 + z/h^2) over all partitions."""
    return _packed_rows((n,), 2, limit, _hook_walk)[0]


def _hook_rows(ns: Sequence[int], limit: int | None = None) -> list[QPolynomial]:
    """One hook walk per n of ns, once the whole range is checked."""
    _enumerable_top(ns, limit)
    return [q_via_hooks(n, limit) for n in ns]


def _block_rows(ns: Sequence[int], limit: int | None = None, *, by_gap: bool) -> list[QPolynomial]:
    """Q_n for each n of ns from one memoised block walk over the range."""
    return _packed_rows(ns, 1, limit, partial(_block_walk, by_gap=by_gap))


def q_via_trivial_hooks(n: int, limit: int | None = None) -> QPolynomial:
    """Q_n from products prod (1 + z/h) over the trivial-leg hooks only."""
    return _block_rows((n,), limit, by_gap=True)[0]


def q_via_multiplicities(n: int, limit: int | None = None) -> QPolynomial:
    """Q_n from prod_j binom(k_j + z, k_j) = prod_j (z+1)...(z+k_j)/k_j! over all partitions."""
    return _block_rows((n,), limit, by_gap=False)[0]


def check_table_limit(n: int, name: str = "n") -> None:
    """Refuse an n above TABLE_LIMIT, naming it as name in the message."""
    if n > TABLE_LIMIT:
        raise ValueError(f"{name}={n} is above the Q table limit {TABLE_LIMIT}")


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
        check_table_limit(n_max)
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


def _recursion_rows(ns: Sequence[int]) -> list[QPolynomial]:
    """Q_n for each n of ns, read off one table build to max(ns)."""
    table = q_table_via_recursion(max(ns))
    return [table[n] for n in ns]


_METHODS = {
    "recursion": _recursion_rows,
    "hooks": _hook_rows,
    "trivial-hooks": partial(_block_rows, by_gap=True),
    "multiplicities": partial(_block_rows, by_gap=False),
}


def method_names() -> list[str]:
    return list(_METHODS)


def q_polynomials(ns: Sequence[int], method: str = "recursion") -> list[QPolynomial]:
    """Q_n for every n of ns by the named method, in the order of ns.

    A negative n, or for an enumerating method an n above the budget, is
    refused before any row is built.  The recursion reads one table build to
    max(ns), the two block routes sum the whole range in one memoised walk,
    and the hooks walk each n on its own.
    """
    try:
        rows = _METHODS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r} (known: {method_names()})") from None
    if min(ns) < 0:
        raise ValueError("n must be non-negative")
    return rows(ns)


def q_polynomial(n: int, method: str = "recursion") -> QPolynomial:
    """Compute Q_n by the named method: the one-row case of q_polynomials."""
    return q_polynomials((n,), method)[0]
