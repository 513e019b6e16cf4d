"""Batch command-line front end.

Commands: qpoly, scan, verify, series-dump, stirling-dump.  Data goes to
stdout (or --out); progress and diagnostics go to stderr.  Exit status:
0 = all certified and passing, 1 = a verified violation of an asserted
property, 2 = uncertified or aborted computation.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import errno
import functools
import json
import math
import os
import sys
from bisect import insort
from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul
from typing import Callable, Iterable, Sequence

from . import analysis, darcais, series, stirling
from .partitions import partition_count

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_ABORTED = 2

FORMATS = ("csv", "json", "tsv")
METHOD_CHOICES = darcais.method_names() + ["all"]
SUITES = ("identities", "logconcave", "stirling", "all")
SCAN_COLUMNS = ("k", "n0", "mode", "elapsed_ms", "n_max")  # the to_dict() keys of a scan row


def parse_range(text: str) -> range:
    """Parse "7" or "2..5" (inclusive) into a range, built lazily."""
    lo_s, sep, hi_s = text.partition("..")
    lo = int(lo_s)
    hi = int(hi_s) if sep else lo
    if hi < lo:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _write(args: argparse.Namespace, payload: Callable[[], object], header: Sequence[str],
           rows: Iterable[Sequence], dump: Callable[[], Iterable[str]] | None = None) -> None:
    """Print a result to stdout or --out in --format, building only what that format prints.

    json dumps payload(); csv prints the header and the rows, fields joined by
    commas and None as an empty field; tsv prints the lines of dump() for a
    command that has a dump format, and otherwise the csv lines joined by tabs.
    """
    if args.format == "json":
        lines = [json.dumps(payload(), separators=(",", ":"))]
    elif args.format == "tsv" and dump is not None:
        lines = dump()
    else:
        sep = "," if args.format == "csv" else "\t"
        lines = (sep.join("" if v is None else str(v) for v in row) for row in chain([header], rows))
    text = "\n".join(lines)
    if args.out is None:
        print(text)
    else:
        with open(args.out, "w") as fh:
            print(text, file=fh)


# ---------------------------------------------------------------------------
# qpoly
# ---------------------------------------------------------------------------

def cmd_qpoly(args: argparse.Namespace) -> int:
    ns = parse_range(args.n)
    methods = darcais.method_names() if args.method == "all" else [args.method]
    if "recursion" in methods:  # one table build, refused above its limit before any row
        darcais.q_table_via_recursion(ns[-1])
    blocks = {m: [darcais.q_polynomial(n, m) for n in ns] for m in methods}
    agree = all(
        blocks[m][i].coeffs == blocks[methods[0]][i].coeffs
        for m in methods
        for i in range(len(ns))
    )
    labelled = args.method == "all"

    def payload():
        rows = {
            m: [{"n": p.n, "coeffs": [str(c) for c in p.coeffs]} for p in polys]
            for m, polys in blocks.items()
        }
        return {"methods": rows, "agree": agree} if labelled else rows[args.method]

    def dump():
        for m in methods:
            if labelled:
                yield f"# method={m}"
            for p in blocks[m]:
                yield from p.dump_lines()
        if labelled:
            yield f"# verdict {'agree' if agree else 'disagree'}"

    rows = ((m, p.n, k, c) for m in methods for p in blocks[m] for k, c in enumerate(p.coeffs))
    _write(args, payload, ("method", "n", "k", "coeff"), rows, dump)
    if not agree:
        print("qpoly: methods disagree", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    ks = parse_range(args.k)
    scan = functools.partial(analysis.scan_conjecture, n_max=args.n_max, mode=args.mode,
                             rule=args.rule, exact_fallback=args.exact_fallback)
    reports = []
    if args.jobs > 1 and len(ks) > 1:
        # at most `jobs` scans in flight: a refused k ends a long range after `jobs` submissions
        pending = collections.deque()
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            for k in ks:
                pending.append(pool.submit(scan, k))
                if len(pending) == args.jobs:
                    reports.append(pending.popleft().result())
            reports.extend(f.result() for f in pending)
    else:
        for k in ks:
            reports.append(scan(k))
            print(f"scan: k={k} done in {int(reports[-1].elapsed * 1000)} ms", file=sys.stderr)
    for r in reports:
        if r.certified and r.n0 is None:
            print(f"scan: k={r.k} has no violation below n_max={r.n_max}", file=sys.stderr)

    row = itemgetter(*SCAN_COLUMNS)
    _write(args, lambda: [r.to_dict() for r in reports], SCAN_COLUMNS,
           (row(r.to_dict()) for r in reports))
    if any(not r.certified for r in reports):
        print("scan: uncertified results present", file=sys.stderr)
        return EXIT_ABORTED
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _checks_identities(n_max: int) -> list[tuple[str, bool]]:
    pseries = series.partition_series(n_max)
    checks = [("exp-of-f-equals-partition-series",
               series.series_exp(series.f_series(n_max)) == pseries)]
    ladder = series._PowerRow("sigma-minus-one")  # rows[k][n] = [q^n] f^k D_k, D_k = denoms[k]
    ladder.extend(max(n_max, 6), 6)  # f^6 is 0 below q^6: built there, the rows are read only to q^n_max
    rows, p = ladder.rows, [int(c) for c in pseries]

    def cauchy(x: list[int], y: list[int], n: int) -> int:
        return sum(map(mul, x[: n + 1], reversed(y[: n + 1])))

    ok = True
    for k in range(0, min(5, n_max) + 1):
        lhs = darcais.coefficient_series(k, n_max)
        scale = ladder.denoms[k] * math.factorial(k)
        ok = ok and all(lhs[n] == Fraction(cauchy(rows[k], p, n), scale) for n in range(n_max + 1))
    checks.append(("generating-identity-per-k", ok))
    enum_cap = min(n_max, darcais.enumeration_limit())
    ok = True
    for n in range(enum_cap + 1):
        ref = darcais.q_via_recursion(n).coeffs
        ok = ok and all(
            darcais.q_polynomial(n, m).coeffs == ref for m in darcais.method_names()[1:]
        )
    checks.append(("four-way-agreement", ok))
    table = darcais.q_table_via_recursion(n_max)
    checks.append((
        "edge-coefficients",
        all(
            q.coeffs[0] == partition_count(q.n) and q.coeffs[q.n] == Fraction(1, math.factorial(q.n))
            for q in table
        ),
    ))
    # the integer product of rows a and b is row a + b over D_a D_b
    d = ladder.denoms
    checks.append(("power-consistency", all(
        cauchy(rows[a], rows[b], n) * d[a + b] == rows[a + b][n] * d[a] * d[b]
        for a in range(1, 6) for b in range(1, 7 - a) for n in range(min(n_max, 100) + 1)
    )))
    return checks


def _checks_logconcave(n_max: int) -> list[tuple[str, bool]]:
    checks = []
    table = darcais.q_table_via_recursion(n_max)
    checks.append((
        "qpoly-rows-log-concave",
        all(analysis.is_log_concave(q.coeffs) is None for q in table[1:]),
    ))
    checks.append((
        "qpoly-rows-unimodal",
        all(analysis.is_unimodal(q.coeffs)[0] for q in table[1:]),
    ))
    checks.append((
        "qpoly-coefficients-positive",
        all(c > 0 for q in table for c in q.coeffs),
    ))
    pn = [partition_count(n) for n in range(25, 1001)]
    checks.append(("partition-count-tail-log-concave", analysis.is_log_concave(pn) is None))
    hi = max(60, min(n_max, 300))
    ok = True
    for k in (2, 3):
        seq = analysis.surrogate_binomial_sequence(k, 27, hi)
        ok = ok and analysis.is_log_concave(seq) is None
    checks.append(("binomial-surrogate-log-concave", ok))
    seq = analysis.surrogate_truncated_sequence(5, 27, 32)
    checks.append(("truncated-surrogate-log-concave", analysis.is_log_concave(seq) is None))
    return checks


def _multiplicity_multisets(n_max: int) -> list[set[tuple[int, ...]]]:
    """For m = 0..n_max, the sorted tuples of part multiplicities over the partitions of m.

    A partition of m takes each part size p some k >= 0 times with sum p k = m;
    adding the sizes one at a time, m from the top down, takes each p once.
    """
    sets = [{()}] + [set() for _ in range(n_max)]
    for p in range(1, n_max + 1):
        for m in range(n_max, p - 1, -1):
            for k in range(1, m // p + 1):
                for key in sets[m - p * k]:
                    grown = list(key)
                    insort(grown, k)
                    sets[m].add(tuple(grown))
    return sets


def _checks_stirling(n_max: int) -> list[tuple[str, bool]]:
    checks = []
    top = max(n_max, 10)
    checks.append((
        "row-sums",
        all(
            sum(stirling.stirling_unsigned(n, m) for m in range(n + 1)) == math.factorial(n)
            for n in range(top + 1)
        ),
    ))
    ok = True
    for n in range(min(top, 25) + 1):
        poly = [1]
        for i in range(n):
            poly = [0] + poly
            prev = poly[:]
            for j in range(len(poly) - 1):
                poly[j] += i * prev[j + 1]
        ok = ok and all(
            stirling.stirling_unsigned(n, m) == poly[m] for m in range(n + 1)
        )
    checks.append(("rising-factorial-expansion", ok))
    checks.append((
        "sibuya-inequality",
        all(
            stirling.sibuya_holds(n, m)
            for n in range(2, top + 1)
            for m in range(2, n + 1)
        ),
    ))
    ok = True
    for n in range(2, min(top, 60) + 1):
        for m in range(stirling.ratio_decay_start(n), n + 1):
            for t in range(0, n - m + 1):
                ok = ok and stirling.stirling_ratio_decay_check(n, m, t)
    checks.append(("ratio-decay-bound", ok))
    part_cap = min(max(n_max, 2), 18)
    descent_ok = True
    mode_ok = True
    logconcave_ok = True
    multisets = _multiplicity_multisets(part_cap)
    for n in range(2, part_cap + 1):
        # All three checks are symmetric in the multiplicities, so each
        # multiset of them is checked once per n.
        for k_vec in sorted(multisets[n]):
            descent_ok = descent_ok and stirling.descent_check(k_vec, n).holds
            mode_ok = mode_ok and stirling.mode_bound_check(k_vec, n).holds
            numerators, _ = stirling.q_coeff_numerators(k_vec)
            logconcave_ok = logconcave_ok and analysis.is_log_concave(numerators) is None
    checks.append(("constrained-sum-descent", descent_ok))
    checks.append(("mode-below-threshold", mode_ok))
    checks.append(("binomial-product-log-concave", logconcave_ok))
    return checks


_SUITE_BUILDERS: dict[str, tuple[Callable[[int], list[tuple[str, bool]]], int]] = {
    "identities": (_checks_identities, 20),
    "logconcave": (_checks_logconcave, 60),
    "stirling": (_checks_stirling, 40),
}


def cmd_verify(args: argparse.Namespace) -> int:
    n_max = args.n_max or 0
    if n_max < 0:
        raise ValueError(f"n_max={n_max} is negative")
    if args.suite in ("stirling", "all") and n_max > stirling.TABLE_LIMIT:
        raise ValueError(f"n_max={n_max} is above the Stirling limit {stirling.TABLE_LIMIT}")
    if args.suite != "stirling" and n_max > darcais.TABLE_LIMIT:
        raise ValueError(f"n_max={n_max} is above the Q table limit {darcais.TABLE_LIMIT}")
    suites = list(_SUITE_BUILDERS) if args.suite == "all" else [args.suite]
    results: list[tuple[str, str, bool]] = []
    for name in suites:
        builder, default_knob = _SUITE_BUILDERS[name]
        knob = args.n_max if args.n_max is not None else default_knob
        for check, ok in builder(knob):
            results.append((name, check, ok))
            print(f"verify: {name}/{check}: {'pass' if ok else 'FAIL'}", file=sys.stderr)

    header = ("suite", "check", "status")
    rows = ((s, c, "pass" if ok else "fail") for s, c, ok in results)
    _write(args, lambda: [dict(zip(header, row)) for row in rows], header, rows)
    return EXIT_OK if all(ok for _, _, ok in results) else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# dumps
# ---------------------------------------------------------------------------

def cmd_series_dump(args: argparse.Namespace) -> int:
    if args.order > analysis.SCAN_LIMIT:  # no command builds a series further
        raise ValueError(f"order {args.order} is above the scan limit {analysis.SCAN_LIMIT}")
    s = series.custom_series(args.rule, args.order)
    _write(args, lambda: {"rule": args.rule, "order": s.order, "coeffs": [str(c) for c in s.coeffs]},
           ("n", "coeff"), enumerate(s.coeffs), s.dump_lines)
    return EXIT_OK


def cmd_stirling_dump(args: argparse.Namespace) -> int:
    n_max = args.n_max
    table = stirling.stirling_rows(n_max)
    rows = ((n, m, v) for n, row in enumerate(table) for m, v in enumerate(row))
    _write(args, lambda: {"n_max": n_max, "rows": table},
           ("n", "m", "value"), rows, lambda: (f"{n} {m} {v}" for n, m, v in rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_shared(parser: argparse.ArgumentParser, default_fmt: str) -> None:
    parser.add_argument("--format", choices=FORMATS, default=default_fmt)
    parser.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nekrasov",
        description="Exact Nekrasov-Okounkov / D'Arcais polynomial computations "
                    "and log-concavity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    qp = sub.add_parser("qpoly", help="compute Q_n coefficient tables")
    qp.add_argument("--n", required=True, help="single n or inclusive range lo..hi")
    qp.add_argument("--method", choices=METHOD_CHOICES, default="recursion")
    _add_shared(qp, "tsv")

    sc = sub.add_parser("scan", help="first log-concavity violation of c_{.,k}")
    sc.add_argument("--k", required=True, help="single k or inclusive range lo..hi")
    sc.add_argument("--n-max", type=int, default=None,
                    help="scan bound (default: max(2*2^k, 256); at most 2^18)")
    sc.add_argument("--rule", default="sigma-minus-one",
                    choices=series.series_rule_names())
    _add_shared(sc, "csv")
    sc.add_argument("--mode", choices=("exact", "adaptive-float"), default="exact")
    sc.add_argument("--exact-fallback", type=int, default=analysis.DEFAULT_EXACT_FALLBACK,
                    help="largest n recomputed exactly when enclosures overlap")
    sc.add_argument("--jobs", type=int, default=1)

    vf = sub.add_parser("verify", help="run named invariant suites")
    vf.add_argument("--suite", choices=SUITES, default="all")
    vf.add_argument("--n-max", type=int, default=None, help="suite size knob")
    _add_shared(vf, "csv")

    sd = sub.add_parser("series-dump", help="dump a generating rule's coefficients")
    sd.add_argument("--rule", default="sigma-minus-one",
                    choices=series.series_rule_names())
    sd.add_argument("--order", type=int, default=10)
    _add_shared(sd, "tsv")

    st = sub.add_parser("stirling-dump", help="dump the unsigned Stirling triangle")
    st.add_argument("--n-max", type=int, default=10)
    _add_shared(st, "tsv")

    return parser


_DISPATCH: dict[str, Callable[[argparse.Namespace], int]] = {
    "qpoly": cmd_qpoly,
    "scan": cmd_scan,
    "verify": cmd_verify,
    "series-dump": cmd_series_dump,
    "stirling-dump": cmd_stirling_dump,
}


def _check_out(path: str) -> None:
    """Refuse an --out that open() would refuse, before any work and without creating it.

    Raises what open() raises when the path is a directory or its parent
    directory does not exist.
    """
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_out(args.out)
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:  # a refused input, or an --out that cannot be written
        print(f"nekrasov: {exc}", file=sys.stderr)
        return EXIT_ABORTED


if __name__ == "__main__":
    sys.exit(main())
