"""One measured repetition of a workload, in a fresh interpreter.

Started by run.py as
    python3 bench/child.py WORKLOAD SEED SPAWN_NS TRACE SPAN_PATH
where SPAWN_NS is run.py's time.monotonic_ns() just before the spawn, so
setup_s covers interpreter start and the package imports.  The package's
process-global caches start empty, as they do for a command-line user.
Every time is read from time.monotonic() and reported in reference seconds
(see probe.py); raw_wall_s is the job's plain elapsed time.
Prints one JSON object with the repetition's measurements.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import probe as probing

MODULES = ("partitions", "series", "stirling", "darcais", "analysis", "cli")
RECURSION_KINDS = {"table", "row", "column", "cross"}


def main(argv: list[str]) -> int:
    workload_name, seed, spawn_ns, trace, span_path = argv
    clock = time.monotonic
    probe = probing.Probe()
    probe.start()
    imports = {}
    for name in ("",) + MODULES:
        t0 = clock()
        importlib.import_module("nekrasov" + ("." + name if name else ""))
        imports[name or "nekrasov"] = (t0, clock())
    ready = clock()

    import json
    import resource

    import nekrasov
    import tracer as tracing
    from workloads import WORKLOADS

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(nekrasov.__file__).startswith(src + os.sep):
        print(f"nekrasov imported from {nekrasov.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[workload_name](int(seed))
    make_kernel, ref_s = probing.KERNELS[workload.kernel]
    probe.use(make_kernel(), ref_s)
    tracer = None
    wrapped: list[str] = []
    if trace == "1":
        tracer = tracing.Tracer()
        wrapped = tracing.install(tracer)

    results, op_times = [], []
    start = clock()
    for op in workload.ops:
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # an exception is a counted failure, not a crash
            result = exc
        op_times.append((t0, clock()))
        results.append(result)
    end = clock()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref = probe.reference
    latencies_s = [probe.span(t0, t1) for t0, t1 in op_times]
    spans = [(sid, parent, name, ref(t0), ref(t1), attr)
             for sid, parent, name, t0, t1, attr in tracer.spans] if tracer else []
    counters = tracer.counts.copy() if tracer else None

    failures = []
    for i, (op, result) in enumerate(zip(workload.ops, results)):
        if isinstance(result, Exception):
            msg = f"{type(result).__name__}: {result}"
        else:
            try:
                msg = op.check(result)
            except Exception as exc:  # a malformed result fails its check
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            failures.append(f"op {i} ({op.kind}): {msg}")

    ok = not failures
    out = {
        "setup_s": probe.span(int(spawn_ns) / 1e9, ready),
        "wall_s": probe.span(start, end),
        "raw_wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "latencies_ms": [s * 1e3 for s in latencies_s],
        "attempted": len(workload.ops),
        "failed": len(failures),
        "failures": failures[:10],
        "items": workload.items(results) if ok else 0,
    }
    if tracer:
        counts = workload.counts(results) if ok else {}
        layers = tracing.layer_metrics(spans, counters, wrapped)
        for name in MODULES:
            layers[f"{name}.import_s"] = probe.span(*imports[name])
        layers.update(_recursion_metrics(workload.ops, latencies_s))
        layers.update(_job_metrics(workload_name, counts, layers))
        out["layers"] = layers
        out["wrapped"] = len(wrapped)
        out["spans"] = len(spans)
        tracing.write_spans(span_path, spans, wrapped)
    print(json.dumps(out))
    return 0


def _recursion_metrics(ops, latencies_s) -> dict:
    """Cold and warm time of the recursion-route requests of qpoly-stream.

    A request is cold when its n is larger than every n requested before it
    in the run, a property of the input alone.
    """
    out = {"darcais.recursion.cold_calls": 0, "darcais.recursion.cold_busy_s": 0.0,
           "darcais.recursion.warm_calls": 0, "darcais.recursion.warm_busy_s": 0.0}
    highest = -1
    for op, seconds in zip(ops, latencies_s):
        if op.kind not in RECURSION_KINDS:
            continue
        state = "cold" if op.n > highest else "warm"
        highest = max(highest, op.n)
        out[f"darcais.recursion.{state}_calls"] += 1
        out[f"darcais.recursion.{state}_busy_s"] += seconds
    requests = out["darcais.recursion.cold_calls"] + out["darcais.recursion.warm_calls"]
    out["darcais.recursion.cold_share"] = (
        out["darcais.recursion.cold_calls"] / requests if requests else 0.0
    )
    return out


def _job_metrics(workload_name, counts, layers) -> dict:
    from nekrasov import darcais

    ladder_rows = darcais._ladder.n_max + 1
    order_sum = layers["analysis.exact.order_sum"]
    n0_sum = counts.get("n0_sum", 0) if workload_name == "scan-exact" else 0
    return {
        "analysis.exact.useful_ratio": n0_sum / order_sum if order_sum else 0.0,
        "cli.output_bytes": counts.get("output_bytes", 0),
        "darcais.ladder.rows": ladder_rows,
        "darcais.ladder.overshoot": ladder_rows - 1 - counts["max_n"] if "max_n" in counts else 0,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
