"""The benchmark's workloads: seeded inputs, the fixed job and its checks.

Each workload builds a list of operations from the seed before timing starts.
An operation is a thunk that looks its function up on the module at call
time (so the tracer's wrappers are seen) and a check that compares the
result with a value the benchmark derives on its own.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

from nekrasov import analysis, cli, darcais

# First log-concavity violations n0(k), from the package README's table.
N0 = {2: 6, 3: 21, 4: 39, 5: 73, 6: 135, 7: 251, 8: 475, 9: 917,
      10: 1801, 11: 3595, 12: 7259, 13: 14787}

# Q_0..Q_3 by hand from the hook products, e.g. Q_3 = 2(1+z/9)(1+z/4)(1+z) + (1+z/9)(1+z)^2.
KNOWN_Q = {
    0: [Fraction(1)],
    1: [Fraction(1), Fraction(1)],
    2: [Fraction(2), Fraction(5, 2), Fraction(1, 2)],
    3: [Fraction(3), Fraction(29, 6), Fraction(2), Fraction(1, 6)],
}

STIRLING_CHECKS = {
    "row-sums", "rising-factorial-expansion", "sibuya-inequality", "ratio-decay-bound",
    "constrained-sum-descent", "mode-below-threshold", "binomial-product-log-concave",
}

# qpoly-stream: stage caps are not powers of two, so the ladder's growth to
# max(n, 2 * n_max) overshoots the largest request (90 builds rows to 120).
STREAM_CAPS = (30, 50, 90)
STREAM_ROWS, STREAM_COLUMNS, STREAM_CROSS = 799, 100, 100  # per stage, after the table request
AGREEMENT_N = 22


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    n: int = 0  # largest n the request needs from the recursion route


@dataclass
class Workload:
    ops: list[Op]
    items: Callable[[list], int]
    counts: Callable[[list], dict]  # job-level counts for the traced run's metrics
    kernel: str  # the speed probe's kernel, a miniature of the hot loop; see probe.py


def partition_numbers(n_max: int) -> list[int]:
    """p(0..n_max) by the coin-change recurrence over part sizes."""
    p = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for m in range(part, n_max + 1):
            p[m] += p[m - part]
    return p


def two_coloured_partitions(p: list[int]) -> list[int]:
    """Number of 2-coloured partitions of n: the square of the partition series."""
    return [sum(p[i] * p[n - i] for i in range(n + 1)) for n in range(len(p))]


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def _scan_check(k: int, mode: str):
    def check(report) -> str | None:
        if not report.certified:
            return f"k={k}: scan row uncertified"
        if report.mode_of_certification != mode:
            return f"k={k}: certified by {report.mode_of_certification}, expected {mode}"
        if report.n0 != N0[k]:
            return f"k={k}: n0={report.n0}, expected {N0[k]}"
        return None
    return check


def _scan_workload(ks: range, mode: str, seed: int, kernel: str) -> Workload:
    order = list(ks)
    random.Random(seed).shuffle(order)
    ops = [
        Op("scan", lambda k=k: analysis.scan_conjecture(k, mode=mode), _scan_check(k, mode))
        for k in order
    ]
    return Workload(
        ops,
        items=lambda results: sum(r.violations_checked for r in results),
        counts=lambda results: {"n0_sum": sum(r.n0 for r in results)},
        kernel=kernel,
    )


def scan_exact(seed: int) -> Workload:
    return _scan_workload(range(2, 9), "exact", seed, "bigint")


def scan_float(seed: int) -> Workload:
    return _scan_workload(range(10, 13), "adaptive-float", seed, "longdouble")


# ---------------------------------------------------------------------------
# qpoly-stream
# ---------------------------------------------------------------------------

def _spread(i: int) -> float:
    """Fractional part of i times the golden ratio: evenly spread points in [0, 1)."""
    return (i * 0.6180339887498949) % 1.0


def qpoly_stream(seed: int) -> Workload:
    top = STREAM_CAPS[-1]
    p = partition_numbers(top)
    p2 = two_coloured_partitions(p)
    inv_fact = [Fraction(1, math.factorial(n)) for n in range(top + 1)]

    def check_row(q) -> str | None:
        n, c = q.n, q.coeffs
        if len(c) != n + 1:
            return f"Q_{n}: {len(c)} coefficients"
        if c[0] != p[n]:
            return f"Q_{n}: A[n][0]={c[0]}, expected p(n)={p[n]}"
        if c[n] != inv_fact[n]:
            return f"Q_{n}: A[n][n]={c[n]}, expected 1/n!"
        if sum(c) != p2[n]:
            return f"Q_{n}(1)={sum(c)}, expected {p2[n]} 2-coloured partitions"
        return None

    def check_table(cap):
        def check(table) -> str | None:
            if [q.n for q in table] != list(range(cap + 1)):
                return f"table to {cap} has rows {[q.n for q in table][:5]}..."
            return next((msg for msg in map(check_row, table) if msg), None)
        return check

    def check_column(k, n):
        def check(s) -> str | None:
            c = s.coeffs
            if len(c) != n + 1:
                return f"A[.][{k}] to {n}: {len(c)} terms"
            if any(c[m] != 0 for m in range(min(k, n + 1))):
                return f"A[m][{k}] nonzero for m < {k}"
            if k <= n and c[k] != inv_fact[k]:
                return f"A[{k}][{k}]={c[k]}, expected 1/{k}!"
            if k == 0 and list(c) != p[: n + 1]:
                return "A[.][0] differs from p(n)"
            return None
        return check

    def check_cross(a, b, n):
        def check(value) -> str | None:
            # after the stream the ladder covers n, so this reads cached rows
            expected = darcais.q_via_recursion(n).coeffs[b]
            if value != expected:
                return f"a_cross({a},{b},{n})={value}, expected A[{n}][{b}]={expected}"
            return None
        return check

    # Each stage is a fixed multiset of requests spread evenly over n <= cap
    # (golden-ratio steps pick k and a); the seed shuffles it.  So every seed
    # sends the same heavy requests and the tail percentiles compare like with like.
    rng = random.Random(seed)
    ops: list[Op] = []
    for cap in STREAM_CAPS:
        stage = []
        for i in range(STREAM_ROWS):
            n = i * (cap + 1) // STREAM_ROWS
            stage.append(Op("row", lambda n=n: darcais.q_via_recursion(n), check_row, n))
        for i in range(STREAM_COLUMNS):
            n = i * (cap + 1) // STREAM_COLUMNS
            k = int(_spread(i) * (n + 1))
            stage.append(Op("column", lambda k=k, n=n: darcais.coefficient_series(k, n),
                            check_column(k, n), n))
        for i in range(STREAM_CROSS):
            n = 1 + i * cap // STREAM_CROSS
            a = int(_spread(i) * n)
            b = a + 1 + i % min(3, n - a)
            stage.append(Op("cross", lambda a=a, b=b, n=n: darcais.a_cross_recursion(a, b, n),
                            check_cross(a, b, n), n))
        rng.shuffle(stage)
        ops.append(Op("table", lambda cap=cap: darcais.q_table_via_recursion(cap),
                      check_table(cap), cap))
        ops.extend(stage)

    max_n = max(op.n for op in ops)
    return Workload(ops, items=len, counts=lambda results: {"max_n": max_n}, kernel="fraction")


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _check_qpoly(result) -> str | None:
    rc, text = result
    if rc != 0:
        return f"qpoly exited {rc}"
    payload = json.loads(text)
    if payload["agree"] is not True:
        return "qpoly verdict is not agree"
    methods = payload["methods"]
    if sorted(methods) != sorted(darcais.method_names()):
        return f"qpoly methods {sorted(methods)}"
    for method, polys in methods.items():
        if [p["n"] for p in polys] != list(range(AGREEMENT_N + 1)):
            return f"{method}: rows {[p['n'] for p in polys][:5]}..."
        for n, known in KNOWN_Q.items():
            got = [Fraction(c) for c in polys[n]["coeffs"]]
            if got != known:
                return f"{method}: Q_{n}={got}, expected {known}"
    return None


def _check_verify(result) -> str | None:
    rc, text = result
    if rc != 0:
        return f"verify exited {rc}"
    rows = json.loads(text)
    if {r["check"] for r in rows} != STIRLING_CHECKS:
        return f"verify ran {sorted(r['check'] for r in rows)}"
    failed = [r["check"] for r in rows if r["status"] != "pass"]
    return f"verify failed {failed}" if failed else None


def agreement(seed: int) -> Workload:
    # The inputs are fixed; the seed has nothing to vary here.
    qpoly = ["qpoly", "--n", f"0..{AGREEMENT_N}", "--method", "all", "--format", "json"]
    verify = ["verify", "--suite", "stirling", "--format", "json"]
    ops = [
        Op("qpoly", lambda: _cli(qpoly), _check_qpoly),
        Op("verify", lambda: _cli(verify), _check_verify),
    ]

    def polys(results) -> int:
        rc, text = results[0]
        return sum(len(v) for v in json.loads(text)["methods"].values())

    def counts(results) -> dict:
        return {"output_bytes": sum(len(text.encode()) for _, text in results)}

    return Workload(ops, items=polys, counts=counts, kernel="fraction")


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    "scan-exact": scan_exact,
    "scan-float": scan_float,
    "qpoly-stream": qpoly_stream,
    "agreement": agreement,
}
