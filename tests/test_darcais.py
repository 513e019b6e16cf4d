"""The four Q_n computation routes and the cross recursion."""

import functools
import math
import random
from fractions import Fraction
from itertools import accumulate
from operator import mul

import pytest

from nekrasov import darcais
from nekrasov.darcais import (
    DEFAULT_ENUM_LIMIT,
    TABLE_LIMIT,
    EnumerationLimitError,
    QPolynomial,
    _packed_rows,
    _QTable,
    a_cross_recursion,
    coefficient_series,
    enumeration_limit,
    q_polynomial,
    q_polynomials,
    q_table_via_recursion,
    q_via_hooks,
    q_via_multiplicities,
    q_via_recursion,
    q_via_trivial_hooks,
)
from nekrasov.partitions import (
    enumerate_partitions,
    hook_lengths,
    multiplicities,
    partition_count,
    trivial_leg_hooks,
)
from nekrasov.series import (
    RationalSeries,
    _PowerRow,
    f_series,
    partition_series,
    series_multiply,
    series_power,
    sigma_sieve,
)
from nekrasov.stirling import q_coeff_numerators, q_coeffs

# published values of Q_0..Q_3
KNOWN = {
    0: (Fraction(1),),
    1: (Fraction(1), Fraction(1)),
    2: (Fraction(2), Fraction(5, 2), Fraction(1, 2)),
    3: (Fraction(3), Fraction(29, 6), Fraction(2), Fraction(1, 6)),
}

METHODS = [q_via_recursion, q_via_hooks, q_via_trivial_hooks, q_via_multiplicities]


@pytest.mark.parametrize("method", METHODS)
def test_known_polynomials(method):
    for n, coeffs in KNOWN.items():
        assert method(n).coeffs == coeffs


def test_four_way_agreement_to_18():
    for n in range(19):
        ref = q_via_recursion(n).coeffs
        assert q_via_hooks(n).coeffs == ref
        assert q_via_trivial_hooks(n).coeffs == ref
        assert q_via_multiplicities(n).coeffs == ref


def test_edge_coefficients():
    table = q_table_via_recursion(60)
    for q in table:
        assert q.coeffs[0] == partition_count(q.n)
        assert q.coeffs[q.n] == Fraction(1, math.factorial(q.n))


def test_positivity_small():
    for q in q_table_via_recursion(120):
        assert all(c > 0 for c in q.coeffs)


def test_generating_identity():
    # sum_n A_{n,k} q^n == (1/k!) f^k * partition series, via series_power
    n_max = 40
    f = f_series(n_max)
    pseries = partition_series(n_max)
    for k in range(0, 4):
        lhs = coefficient_series(k, n_max)
        rhs = series_multiply(series_power(f, k), pseries)
        inv = Fraction(1, math.factorial(k))
        assert all(lhs[n] == rhs[n] * inv for n in range(n_max + 1))


def test_enumeration_limit_guard():
    with pytest.raises(EnumerationLimitError) as info:
        q_via_hooks(40)
    assert "32" in str(info.value)
    with pytest.raises(EnumerationLimitError):
        q_via_trivial_hooks(40)
    with pytest.raises(EnumerationLimitError):
        q_via_multiplicities(40)


def test_enumeration_limit_env(monkeypatch):
    monkeypatch.setenv("NEKRASOV_ENUM_LIMIT", "10")
    assert enumeration_limit() == 10
    with pytest.raises(EnumerationLimitError) as info:
        q_via_hooks(11)
    assert "10" in str(info.value)
    for bad in ("abc", "-1"):
        monkeypatch.setenv("NEKRASOV_ENUM_LIMIT", bad)
        with pytest.raises(ValueError, match="NEKRASOV_ENUM_LIMIT must be a non-negative integer"):
            enumeration_limit()
        with pytest.raises(ValueError, match="NEKRASOV_ENUM_LIMIT must be a non-negative integer"):
            q_via_hooks(0)
    monkeypatch.delenv("NEKRASOV_ENUM_LIMIT")
    assert enumeration_limit() == 32
    assert enumeration_limit(5) == 5


@pytest.mark.parametrize("route", [q_via_hooks, q_via_trivial_hooks, q_via_multiplicities])
def test_negative_explicit_enumeration_limit_refused(monkeypatch, route):
    # refused like a negative NEKRASOV_ENUM_LIMIT, before any walk, not as a budget n = 0 exceeds
    assert route(0, limit=0).coeffs == KNOWN[0]

    def ran(*args, **kwargs):
        raise AssertionError("a walk started before the refusal")

    monkeypatch.setattr(darcais, "_block_walk", ran)
    monkeypatch.setattr(darcais, "_hook_walk", ran)
    with pytest.raises(ValueError, match="the enumeration limit must be a non-negative integer, not -1") as info:
        route(0, limit=-1)
    assert not isinstance(info.value, EnumerationLimitError)
    with pytest.raises(ValueError, match="not -1"):
        enumeration_limit(-1)


def test_recursion_has_no_enumeration_limit():
    assert q_via_recursion(50).coeffs[0] == partition_count(50)


def test_cross_recursion_examples():
    assert a_cross_recursion(0, 1, 2) == Fraction(5, 2)
    assert a_cross_recursion(1, 2, 3) == 2
    for n in range(1, 11):
        assert a_cross_recursion(0, n, n) == Fraction(1, math.factorial(n))


def test_cross_recursion_matches_rows():
    for n in range(0, 41):
        ref = q_via_recursion(n).coeffs
        for a in range(n):
            for b in range(a + 1, n + 1):
                assert a_cross_recursion(a, b, n) == ref[b]


def test_cross_recursion_precondition():
    with pytest.raises(ValueError):
        a_cross_recursion(2, 2, 5)
    with pytest.raises(ValueError):
        a_cross_recursion(1, 3, 2)


def test_qpolynomial_type():
    with pytest.raises(ValueError):
        QPolynomial(2, (Fraction(1),))
    q = q_via_recursion(2)
    assert q.dump_lines() == ["2 0 2", "2 1 5/2", "2 2 1/2"]


def test_q_polynomial_dispatch():
    assert q_polynomial(2, "hooks").coeffs == KNOWN[2]
    with pytest.raises(ValueError):
        q_polynomial(2, "nope")


# ---------------------------------------------------------------------------
# Fraction references that the integer kernels replaced, kept as oracles
# ---------------------------------------------------------------------------

class FractionLadder:
    """Columns S_k with S_k[n] = A_{n,k}, built as S_k = S_{k-1} * f / k.

    S_0 is the partition series, so S_k = (1/k!) f^k * partition series.
    """

    def __init__(self, n_max: int):
        f = f_series(n_max)
        fc = f.coeffs
        rows = [partition_series(n_max).coeffs]
        for k in range(1, n_max + 1):
            prev = rows[-1]
            row = [Fraction(0)] * (n_max + 1)
            for n in range(k, n_max + 1):
                acc = sum(prev[i] * fc[n - i] for i in range(k - 1, n))
                row[n] = acc / k
            rows.append(tuple(row))
        self.rows = rows
        self.f = f
        self.f_powers = {1: f}

    def f_power(self, j: int) -> RationalSeries:
        if j not in self.f_powers:
            top = max(self.f_powers)
            acc = self.f_powers[top]
            for i in range(top + 1, j + 1):
                acc = series_multiply(acc, self.f)
                self.f_powers[i] = acc
        return self.f_powers[j]

    def a_cross(self, a: int, b: int, n: int) -> Fraction:
        row_a = self.rows[a]
        c = self.f_power(b - a).coeffs
        acc = sum(row_a[n - i] * c[i] for i in range(b - a, n - a + 1))
        return acc * Fraction(math.factorial(a), math.factorial(b))


def fraction_poly_sum(n: int, hooks_of, weight_of) -> tuple[Fraction, ...]:
    """Sum over the partitions of n of prod (1 + weight_of(h) z), in Fractions."""
    total = [Fraction(0)] * (n + 1)
    for part in enumerate_partitions(n):
        poly = [Fraction(1)]
        for h in hooks_of(part):
            w = weight_of(h)
            poly = [
                (poly[i] if i < len(poly) else Fraction(0))
                + (poly[i - 1] * w if i >= 1 else Fraction(0))
                for i in range(len(poly) + 1)
            ]
        for i, c in enumerate(poly):
            total[i] += c
    return tuple(total)


@pytest.fixture(scope="module")
def ladder_60():
    return FractionLadder(60)


def test_rows_match_fraction_ladder(ladder_60):
    for n in range(61):
        expected = tuple(ladder_60.rows[k][n] for k in range(n + 1))
        assert q_via_recursion(n).coeffs == expected


def test_columns_match_fraction_ladder(ladder_60):
    for k in range(11):
        assert coefficient_series(k, 40).coeffs == ladder_60.rows[k][:41]


def test_cross_recursion_matches_fraction_ladder(ladder_60):
    for n in range(26):
        for b in range(1, n + 1):
            for a in range(b):
                assert a_cross_recursion(a, b, n) == ladder_60.a_cross(a, b, n)


def test_hook_sums_match_fraction_sums():
    for n in range(17):
        assert q_via_hooks(n).coeffs == fraction_poly_sum(
            n, hook_lengths, lambda h: Fraction(1, h * h)
        )
        assert q_via_trivial_hooks(n).coeffs == fraction_poly_sum(
            n, trivial_leg_hooks, lambda h: Fraction(1, h)
        )


def fraction_multiplicity_sum(n: int) -> tuple[Fraction, ...]:
    """Sum over the partitions of n of prod_j binom(k_j + z, k_j), in Fractions."""
    total = [Fraction(0)] * (n + 1)
    for part in enumerate_partitions(n):
        for i, c in enumerate(q_coeffs(multiplicities(part).values())):
            total[i] += c
    return tuple(total)


def test_multiplicity_sums_match_fraction_sums():
    for n in range(17):
        assert q_via_multiplicities(n).coeffs == fraction_multiplicity_sum(n)


def test_columns_share_the_row_values():
    column = coefficient_series(3, 12)
    assert all(column[m] is q_via_recursion(m).coeffs[3] for m in range(3, 13))
    assert coefficient_series(5, 2).coeffs == (0, 0, 0)
    # warm reads return the stored rows, in a list of their own
    assert all(q_via_recursion(m) is q_via_recursion(m) for m in range(13))
    rows = q_table_via_recursion(12)
    stored = list(rows)
    assert [row.n for row in rows] == list(range(13))
    assert all(row is q_via_recursion(m) for m, row in enumerate(rows))
    rows[5] = rows.pop()
    fresh = q_table_via_recursion(12)
    assert len(fresh) == 13 and all(a is b for a, b in zip(fresh, stored))
    assert q_table_via_recursion(-1) == [] and q_table_via_recursion(-3) == []


def test_column_above_the_order_builds_no_row_past_it(monkeypatch):
    # A_{m,k} = 0 for k > m, so the table grows only to n_max, even for a k
    # above the table limit
    table = _QTable()
    monkeypatch.setattr(darcais, "_ladder", table)
    assert coefficient_series(200, 10).coeffs == (0,) * 11
    assert coefficient_series(TABLE_LIMIT + 1, 12).coeffs == (0,) * 13
    assert table.n_max == 12


def test_table_growth_order_does_not_matter(monkeypatch):
    grown = _QTable()
    for n in (30, 10, 90, 50):
        grown.ensure(n)
    built = _QTable()
    built.ensure(90)
    assert grown.n_max == built.n_max == 90
    assert grown.rows == built.rows
    assert (grown.ints, grown.denoms) == (built.ints, built.denoms)
    # the cross requests read the table's ladder in any order, as a fresh table does
    requests = [(0, 2, 12), (3, 7, 40), (1, 2, 25), (10, 11, 90), (0, 6, 60),
                (5, 9, 30), (2, 3, 90), (20, 21, 45), (0, 1, 1), (30, 34, 80)]
    random.Random(5).shuffle(requests)
    monkeypatch.setattr(darcais, "_ladder", grown)
    answers = [a_cross_recursion(a, b, n) for a, b, n in requests]
    assert grown.n_max == 90
    for (a, b, n), value in zip(requests, answers):
        monkeypatch.setattr(darcais, "_ladder", _QTable())
        assert a_cross_recursion(a, b, n) == value == q_via_recursion(n).coeffs[b]


def test_shared_rows_grow_with_the_table(monkeypatch):
    # the table's one ladder holds exactly the rows f^0..f^n_max, each to the
    # table's n_max, so cross requests up to it extend nothing
    table = _QTable()
    monkeypatch.setattr(darcais, "_ladder", table)
    q_table_via_recursion(22)
    assert [len(row) for row in table.powers.rows] == [23] * 23
    q_table_via_recursion(60)
    assert [len(row) for row in table.powers.rows] == [61] * 61
    ladder = [list(row) for row in table.powers.rows]
    for a, b, n in ((2, 3, 10), (0, 1, 60), (5, 8, 33), (0, 3, 3), (40, 41, 59)):
        assert a_cross_recursion(a, b, n) == q_via_recursion(n).coeffs[b]
    assert table.n_max == 60 and table.powers.rows == ladder
    q_table_via_recursion(90)
    assert [len(row) for row in table.powers.rows] == [91] * 91


def test_tall_request_leaves_the_shared_ladder_alone(monkeypatch):
    # every power up to the table's n_max is a row of its one ladder: a tall
    # request reads it, and neither builds a ladder of its own nor moves a row
    table = _QTable()
    monkeypatch.setattr(darcais, "_ladder", table)
    q_table_via_recursion(40)
    ladder, denoms = [list(row) for row in table.powers.rows], list(table.powers.denoms)
    built = []

    class Counting(_PowerRow):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(darcais, "_PowerRow", Counting)
    assert a_cross_recursion(0, 40, 40) == Fraction(1, math.factorial(40))
    assert a_cross_recursion(2, 30, 40) == q_via_recursion(40).coeffs[30]
    assert built == [] and table.n_max == 40
    assert table.powers.rows == ladder and table.powers.denoms == denoms
    assert not table.powers.freed


def test_table_limit_refused_before_allocating():
    table = _QTable()
    with pytest.raises(ValueError, match=f"n={TABLE_LIMIT + 1} is above the Q table limit {TABLE_LIMIT}"):
        table.ensure(TABLE_LIMIT + 1)
    assert table.n_max == -1 and table.ints == [] and table.powers.rows == [[], []]
    for call in (
        lambda: q_via_recursion(5000),
        lambda: q_table_via_recursion(TABLE_LIMIT + 1),
        lambda: coefficient_series(2, TABLE_LIMIT + 1),
        lambda: a_cross_recursion(0, 1, TABLE_LIMIT + 1),
    ):
        with pytest.raises(ValueError, match=f"Q table limit {TABLE_LIMIT}"):
            call()


def test_refusal_leaves_a_grown_table_alone():
    # the refusal comes before the ladder grows: neither a D_k nor a stored entry moves
    table = _QTable()
    table.ensure(40)
    denoms, ints = list(table.denoms), [list(b) for b in table.ints]
    ladder = [list(row) for row in table.powers.rows]
    with pytest.raises(ValueError, match=f"Q table limit {TABLE_LIMIT}"):
        table.ensure(TABLE_LIMIT + 1)
    assert table.n_max == 40 and table.denoms == denoms == table.powers.denoms
    assert table.ints == ints and table.powers.rows == ladder


@pytest.mark.parametrize("owner, name", [(darcais, "QPolynomial"), (_PowerRow, "_denominators")],
                         ids=["QPolynomial", "_denominators"])
def test_a_growth_that_raises_leaves_no_stale_row(monkeypatch, owner, name):
    # a table at 30 fails once on its way to 60: while row 31 is appended (after
    # b_31 is stored), or before the ladder's new D_k exist (after k is raised);
    # the next growth must read as a fresh table's
    real, calls = getattr(owner, name), []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 1:
            raise MemoryError
        return real(*args)

    table = _QTable()
    table.ensure(30)
    monkeypatch.setattr(owner, name, flaky)
    with pytest.raises(MemoryError):
        table.ensure(60)
    monkeypatch.undo()
    fresh = _QTable()
    fresh.ensure(60)
    table.ensure(60)
    assert (table.rows, table.ints, table.denoms) == (fresh.rows, fresh.ints, fresh.denoms)


def test_table_refuses_a_column_rescale_that_does_not_divide():
    # a stored D_3 with the prime 10007, which no D_3 holds, must be divided out of
    # column 3 on the way to n = 11, and b_3[3] = D_3 is no multiple of it
    table = _QTable()
    table.ensure(10)
    table.denoms[3] *= 10007
    with pytest.raises(ArithmeticError, match=r"column 3 of the Q table is not an integer at q\^3"):
        table.ensure(11)


# ---------------------------------------------------------------------------
# The falling-factorial table that the common-denominator table replaced,
# kept as the oracle
# ---------------------------------------------------------------------------

class FallingFactorialTable:
    """R_n = n! Q_n(z), each row over its own n!, from the recurrence
    R_n = (z+1) sum_j sigma(j) (n-1)!/(n-j)! R_{n-j} with big weights."""

    def __init__(self):
        self.cols: list[list[int]] = []  # cols[k][m - k] = R_m[k]

    def ensure(self, n_max: int) -> None:
        sigma = sigma_sieve(n_max)
        for n in range(len(self.cols), n_max + 1):
            if n == 0:
                ints = [1]
            else:
                # w[j-1] = sigma(j) (n-1)!/(n-j)!
                w = list(map(mul, sigma[1 : n + 1], accumulate(range(n - 1, 0, -1), mul, initial=1)))
                s = [sum(map(mul, w, reversed(col))) for col in self.cols]
                ints = [s[0]] + [s[k] + s[k - 1] for k in range(1, n)] + [s[n - 1]]
            for col, c in zip(self.cols, ints):
                col.append(c)
            self.cols.append([ints[n]])

    def a_cross(self, a: int, b: int, n: int) -> Fraction:
        """A_{n,b} = a! sum_i perm(n, i) R_{n-i}[a] c_{i,j} D_j / (b! n! D_j), j = b - a."""
        self.ensure(n)
        j = b - a
        powers = _PowerRow("sigma-minus-one")
        powers.extend(n - a, j, free=True)
        col_a, c = self.cols[a], powers.rows[j]
        acc = 0  # sum_{t >= i} perm(n, t) / perm(n, i) R_{n-t}[a] c[t], by Horner's rule
        for i in range(n - a, j - 1, -1):
            acc = acc * (n - i) + col_a[n - i - a] * c[i]
        num = math.factorial(a) * math.perm(n, j) * acc
        return Fraction(num, math.factorial(b) * math.factorial(n) * powers.denoms[j])


@pytest.fixture(scope="module")
def falling_120():
    oracle = FallingFactorialTable()
    oracle.ensure(120)
    return oracle


def assert_matches_falling(table: _QTable, oracle: FallingFactorialTable) -> None:
    """b_m[k] m! == R_m[k] k! D_k for every stored entry, over the ladder's D_k at n_max."""
    assert all(len(row) == table.n_max + 1 for row in table.powers.rows)
    assert table.denoms == table.powers.denoms
    assert len(table.ints) == table.n_max + 1
    for m, b in enumerate(table.ints):
        assert len(b) == m + 1
        for k, c in enumerate(b):
            assert c * math.factorial(m) == oracle.cols[k][m - k] * math.factorial(k) * table.denoms[k]


def test_table_matches_falling_factorial_oracle(monkeypatch, falling_120):
    grown = _QTable()
    for n in (30, 10, 90, 50):
        grown.ensure(n)
        assert_matches_falling(grown, falling_120)
    built = _QTable()
    built.ensure(120)
    assert_matches_falling(built, falling_120)
    rng = random.Random(16)
    requests = [(0, 1, 1), (0, 120, 120), (119, 120, 120), (0, 60, 120), (3, 6, 90)]
    for _ in range(40):
        n = rng.randint(1, 120)
        b = rng.randint(1, n)
        requests.append((rng.randrange(b), b, n))
    for table in (grown, built):  # the grown table moves on from 90 to 120 on the way
        monkeypatch.setattr(darcais, "_ladder", table)
        for a, b, n in requests:
            assert a_cross_recursion(a, b, n) == falling_120.a_cross(a, b, n)
    assert_matches_falling(grown, falling_120)
    assert grown.ints == built.ints


# ---------------------------------------------------------------------------
# The integer kernel that the packed products replaced, kept as the oracle
# ---------------------------------------------------------------------------

def integer_poly_sum(n: int, term, fact_power: int) -> tuple[Fraction, ...]:
    """Sum poly(z) / div over the partitions of n, (poly, div) = term(part), one
    coefficient at a time over D = (n!)^fact_power."""
    denom = math.factorial(n) ** fact_power
    total = [0] * (n + 1)
    for part in enumerate_partitions(n):
        poly, div = term(part)
        scale = denom // div
        for k, c in enumerate(poly):
            total[k] += c * scale
    return tuple(Fraction(c, denom) for c in total)


def hook_term(hooks: list[int], power: int) -> tuple[list[int], int]:
    """prod (1 + z/w) over w = h^power as (prod (w + z), prod w)."""
    weights = [h**power for h in hooks]
    poly = [1]  # poly[k] = [z^k] prod (w + z)
    for w in weights:
        poly = [w * poly[0]] + [w * poly[i] + poly[i - 1] for i in range(1, len(poly))] + [1]
    return poly, math.prod(weights)


def test_packed_routes_match_integer_kernel():
    for n in range(25):
        assert q_via_hooks(n).coeffs == integer_poly_sum(
            n, lambda p: hook_term(hook_lengths(p), 2), 2
        )
        assert q_via_trivial_hooks(n).coeffs == integer_poly_sum(
            n, lambda p: hook_term(trivial_leg_hooks(p), 1), 1
        )
        assert q_via_multiplicities(n).coeffs == integer_poly_sum(
            n, lambda p: q_coeff_numerators(multiplicities(p).values()), 1
        )


@pytest.mark.parametrize("n", range(28, DEFAULT_ENUM_LIMIT + 1))
def test_packed_routes_wide_slots(n):
    ref = q_via_recursion(n).coeffs
    for method in (q_via_hooks, q_via_trivial_hooks, q_via_multiplicities):
        assert method(n, limit=DEFAULT_ENUM_LIMIT).coeffs == ref


def test_hook_walk_divisions_are_exact():
    # _hook_walk divides a subtree's sum by the squared hooks of the rows above a
    # node, the rows of lambda over a bottom-rows prefix mu: their product must
    # divide D = (n!)^2 for every lambda, walked or not
    for n in range(13):
        square = math.factorial(n) ** 2
        for p in enumerate_partitions(n):
            hooks = hook_lengths(p)  # row by row, top row first
            for cut in accumulate(p.parts, initial=0):  # the top rows hold hooks[:cut]
                assert square % math.prod(hooks[:cut]) ** 2 == 0, (p, cut)


def test_block_walk_divisions_are_exact():
    # _block_walk adds blocks of equal parts in ascending size; the blocks above
    # a node are the largest ones, and their roots 1..g must divide D = top!, the
    # one denominator of a range whose largest n is top, for every n <= top
    for top in range(13):
        fact = math.factorial(top)
        for n in range(top + 1):
            for p in enumerate_partitions(n):
                sizes = sorted(multiplicities(p).items())
                by_count = [k for _, k in sizes]  # the multiplicity roots 1..k_j
                by_gap = [j - i for (i, _), (j, _) in zip([(0, 0)] + sizes, sizes)]  # trivial-leg roots 1..j - i
                assert sorted(r for g in by_gap for r in range(1, g + 1)) == sorted(trivial_leg_hooks(p))
                for gs in (by_count, by_gap):
                    for cut in range(len(gs) + 1):
                        assert fact % math.prod(map(math.factorial, gs[cut:])) == 0, (p, gs, cut, top)


def test_packed_slots_hold_the_extreme_term():
    # n roots equal to 1 reach the slot bound D prod (1 + 1/r) = D 2^n, so a walk
    # adding D (1 + z)^n per partition sums p(n) (1 + z)^n, whose largest
    # coefficient p(n) binom(n, n/2) D must come back from the real slot width;
    # over a range, the top sets D = top! and b for every smaller n as well
    def extreme_walk(top, denom, z):
        return lambda n: sum(denom * (z + 1) ** n for _ in enumerate_partitions(n))

    for ns in [*((n,) for n in range(25)), range(25), range(20, 25), (24, 0, 13)]:
        rows = _packed_rows(ns, 1, None, extreme_walk)
        assert [q.n for q in rows] == list(ns)
        for q in rows:
            assert q.coeffs == tuple(Fraction(partition_count(q.n) * math.comb(q.n, k)) for k in range(q.n + 1))


# ---------------------------------------------------------------------------
# Ranges of n: q_polynomials and the memoised block walks
# ---------------------------------------------------------------------------

BLOCK_ROUTES = {
    "trivial-hooks": lambda p: hook_term(trivial_leg_hooks(p), 1),
    "multiplicities": lambda p: q_coeff_numerators(multiplicities(p).values()),
}


@pytest.fixture(scope="module")
def block_oracle_rows():
    # the per-partition integer oracle, each n over its own n!, and the Fraction oracle
    rows = {m: [integer_poly_sum(n, term, 1) for n in range(25)] for m, term in BLOCK_ROUTES.items()}
    assert rows["multiplicities"][:17] == [fraction_multiplicity_sum(n) for n in range(17)]
    return rows


@pytest.mark.parametrize("method", list(BLOCK_ROUTES))
def test_block_ranges_match_the_per_partition_oracles(method, block_oracle_rows):
    # every range lo..hi with 0 <= lo <= hi <= 24, one memoised walk each
    oracle = block_oracle_rows[method]
    one_row = {n: q_polynomial(n, method).coeffs for n in range(25)}
    assert [one_row[n] for n in range(25)] == oracle
    for hi in range(25):
        for lo in range(hi + 1):
            rows = q_polynomials(range(lo, hi + 1), method)
            assert [q.n for q in rows] == list(range(lo, hi + 1))
            assert [q.coeffs for q in rows] == oracle[lo : hi + 1], (lo, hi)


@pytest.mark.parametrize("method", list(BLOCK_ROUTES))
def test_block_range_sums_each_state_once(monkeypatch, method):
    # step(rem, prev) is a function of its two arguments once D and b are fixed by
    # the top of the range: 0..22 has 133 states, each summed once by one walk,
    # where walks of each n apart would sum 3507 steps
    walks = []

    def counting_cache(fn):
        evaluated = []
        walks.append(evaluated)

        def body(*args):
            evaluated.append(args)
            return fn(*args)

        return functools.cache(body)

    monkeypatch.setattr(darcais, "cache", counting_cache)
    rows = q_polynomials(range(23), method)
    assert rows == q_table_via_recursion(22)
    assert len(walks) == 1
    assert len(walks[0]) == len(set(walks[0])) == 133


def test_q_polynomials_reads_every_route_in_order():
    ns = (7, 0, 3, 7)
    for method in darcais.method_names():
        rows = q_polynomials(ns, method)
        assert rows == [q_polynomial(n, method) for n in ns]
        assert rows == [q_via_recursion(n) for n in ns]
    with pytest.raises(ValueError, match="unknown method 'nope'"):
        q_polynomials(range(3), "nope")


@pytest.mark.parametrize("method", ["recursion", "hooks", "trivial-hooks", "multiplicities"])
def test_q_polynomials_refuses_a_negative_n_before_any_work(monkeypatch, method):
    def ran(*args, **kwargs):
        raise AssertionError("work started before the refusal")

    for name in ("_block_walk", "_hook_walk", "q_table_via_recursion", "enumeration_limit"):
        monkeypatch.setattr(darcais, name, ran)
    for ns in (range(-1, 4), (3, 2, -5)):
        with pytest.raises(ValueError, match="n must be non-negative"):
            q_polynomials(ns, method)


@pytest.mark.parametrize("method", ["hooks", "trivial-hooks", "multiplicities"])
def test_q_polynomials_refuses_a_range_past_the_limit_before_any_walk(monkeypatch, method):
    def ran(*args, **kwargs):
        raise AssertionError("a walk started before the refusal")

    monkeypatch.setattr(darcais, "_block_walk", ran)
    monkeypatch.setattr(darcais, "_hook_walk", ran)
    monkeypatch.delenv(darcais.ENUM_LIMIT_ENV, raising=False)
    with pytest.raises(EnumerationLimitError, match=f"n=33 exceeds the enumeration limit {DEFAULT_ENUM_LIMIT}"):
        q_polynomials(range(40), method)
