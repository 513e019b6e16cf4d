"""Span tracer that times the nekrasov layers from outside the package.

`install` wraps the public functions of the six package modules and rebinds
every reference a package module holds to them: module globals (names pulled
in with `from .x import y`) and the values of module-level dicts such as
`darcais._METHODS`.  Each call records a span (id, parent id, name, start,
end, attribute); spans stay in memory and are written out by `write_spans`
after the run.  Span times are raw time.monotonic() readings until the child
converts them to reference seconds.  `layer_metrics` derives calls, inclusive
busy time and self time (busy time minus the time covered by child spans)
from them.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import itertools
import json
import time

MODULES = ("partitions", "series", "stirling", "darcais", "analysis", "cli")

# Left unwrapped because they are called over ten thousand times per run from
# inner loops, where a wrapper would cost more than the call itself.
# Their time is self time of the caller.
UNWRAPPED = {
    "stirling.stirling_unsigned": "per coefficient inside q_coeffs and the verify loops",
    "stirling.harmonic": "per (n, m) pair inside the ratio-decay and descent checks",
    "cli.*": "every cli function but main; their time is cli.main self time",
}

BALL_METHODS = ("multiply", "power", "bounds")
BALL_CLASSMETHODS = ("from_fractions", "divisor_sum_series")


def _dtype_name(args, kwargs):
    dtype = args[2] if len(args) > 2 else kwargs.get("dtype")
    return getattr(dtype, "__name__", "float64")


def _scan_mode(args, kwargs):
    return kwargs.get("mode", args[2] if len(args) > 2 else "exact")


# Span attributes recorded for the functions whose arguments the metrics need.
ATTRS = {
    "series.sigma_sieve": lambda args, kwargs: args[0],
    "series.series_multiply": lambda args, kwargs: args[0].order,
    "series.BallSeries.multiply": lambda args, kwargs: [args[0].mid.itemsize, len(args[0].mid)],
    "series.BallSeries.divisor_sum_series": _dtype_name,
    "analysis.scan_conjecture": _scan_mode,
}


class Tracer:
    """In-memory span store with a stack of open spans for parent links."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.monotonic
        attr = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, attr(args, kwargs) if attr else None))

        return traced

    def _wrap_generator(self, name, fn):
        # One span per resumption, so the consumer's self time excludes the
        # generator's work; calls and yields are counted separately.
        spans, stack, ids, clock, counts = (
            self.spans, self._stack, self._ids, time.monotonic, self.counts
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            it = fn(*args, **kwargs)
            while True:
                sid = next(ids)
                parent = stack[-1]
                stack.append(sid)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    stack.pop()
                    spans.append((sid, parent, name, t0, t1, None))
                counts[name + ".yielded"] += 1
                yield item

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap the layers' public functions; return the wrapped names."""
    mods = [importlib.import_module("nekrasov." + m) for m in MODULES]
    wrapped: dict = {}
    names = []
    for short, mod in zip(MODULES, mods):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            full = f"{short}.{attr}"
            if full in UNWRAPPED or (short == "cli" and attr != "main"):
                continue
            wrapped[obj] = tracer.wrap(full, obj)
            names.append(full)

    ball = mods[MODULES.index("series")].BallSeries
    for attr in BALL_METHODS:
        full = f"series.BallSeries.{attr}"
        setattr(ball, attr, tracer.wrap(full, ball.__dict__[attr]))
        names.append(full)
    for attr in BALL_CLASSMETHODS:
        full = f"series.BallSeries.{attr}"
        setattr(ball, attr, classmethod(tracer.wrap(full, ball.__dict__[attr].__func__)))
        names.append(full)

    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]
    return names


def ball_multiply_work(itemsize: int, n: int) -> tuple[int, int]:
    """(flops, bytes) of one BallSeries.multiply on length-n arrays.

    Computed from array sizes: four full convolutions of two length-n arrays
    (n^2 multiplies and (n-1)^2 adds each) plus five elementwise passes over
    n items; each convolution reads 2n items and writes 2n-1, each
    elementwise pass reads two operands and writes one.
    """
    flops = 4 * (2 * n * n - 2 * n + 1) + 5 * n
    items = 4 * (2 * n + 2 * n - 1) + 5 * 3 * n
    return flops, items * itemsize


def layer_metrics(
    spans: list[tuple], counts: collections.Counter, wrapped: list[str]
) -> dict[str, float]:
    """Per-function, per-module and work-count metrics derived from spans.

    Every wrapped function gets calls, busy_s and self_s, zero when unused.
    """
    by_id = {s[0]: s for s in spans}
    covered = collections.defaultdict(float)
    for sid, parent, name, t0, t1, attr in spans:
        covered[parent] += t1 - t0

    def module(name):
        return name.split(".", 1)[0]

    def ancestors(span):
        parent = by_id.get(span[1])
        while parent is not None:
            yield parent
            parent = by_id.get(parent[1])

    out: dict[str, float] = collections.defaultdict(int)
    for name in wrapped:
        for key in ("calls", "busy_s", "self_s"):
            out[f"{name}.{key}"] = 0
    out["partitions.enumerate_partitions.yielded"] = 0
    for mod in MODULES:
        out[f"{mod}.busy_s"] = 0
        out[f"{mod}.self_s"] = 0
    for tag in ("f64", "ld"):
        for key in ("calls", "busy_s", "flops_computed", "bytes_computed"):
            out[f"series.BallSeries.multiply.{tag}.{key}"] = 0
    for key in ("analysis.exact.orders_tried", "analysis.exact.order_sum",
                "analysis.escalations", "analysis.exact_fallbacks",
                "series.series_multiply.coeff_madds"):
        out[key] = 0

    for span in spans:
        sid, parent, name, t0, t1, attr = span
        dur = t1 - t0
        self_time = dur - covered[sid]
        out[f"{name}.calls"] += 1
        out[f"{name}.busy_s"] += dur
        out[f"{name}.self_s"] += self_time
        mod = module(name)
        out[f"{mod}.self_s"] += self_time
        if not any(module(p[2]) == mod for p in ancestors(span)):
            out[f"{mod}.busy_s"] += dur
        if name == "series.sigma_sieve":
            scan = next((p for p in ancestors(span) if p[2] == "analysis.scan_conjecture"), None)
            if scan is not None and scan[5] == "exact":
                out["analysis.exact.orders_tried"] += 1
                out["analysis.exact.order_sum"] += attr
            elif scan is not None:
                out["analysis.exact_fallbacks"] += 1
        elif name == "series.series_multiply":
            out["series.series_multiply.coeff_madds"] += (attr + 1) * (attr + 2) // 2
        elif name == "series.BallSeries.multiply":
            itemsize, n = attr
            prefix = "series.BallSeries.multiply." + ("f64" if itemsize == 8 else "ld")
            flops, nbytes = ball_multiply_work(itemsize, n)
            out[prefix + ".calls"] += 1
            out[prefix + ".busy_s"] += dur
            out[prefix + ".flops_computed"] += flops
            out[prefix + ".bytes_computed"] += nbytes
        elif name == "series.BallSeries.divisor_sum_series" and attr == "longdouble":
            out["analysis.escalations"] += 1
    # generator calls and yields come from counters, not from resumption spans
    for key, value in counts.items():
        out[key] = value
    return dict(out)


def write_spans(path, spans: list[tuple], wrapped: list[str]) -> None:
    """Write the spans as JSON lines after a header naming the traced functions.

    Each line is [id, parent, request, name, start, end, attribute]; request is
    the id of the outermost span, shared by every span of one operation.
    """
    parent_of = {s[0]: s[1] for s in spans}

    def request(sid):
        while parent_of.get(sid, 0):
            sid = parent_of[sid]
        return sid

    with open(path, "w") as fh:
        fh.write(json.dumps({"wrapped": wrapped, "unwrapped": UNWRAPPED}) + "\n")
        for sid, parent, name, t0, t1, attr in spans:
            fh.write(json.dumps([sid, parent, request(sid), name, t0, t1, attr]) + "\n")
