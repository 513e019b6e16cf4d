"""Benchmark runner for the nekrasov package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every repetition of the workload's
fixed job runs in a fresh interpreter (bench/child.py) with the checkout's
src/ on the path, so the package's caches start cold.  Repetitions continue
while the next one, at the mean repetition time so far, would end within S
seconds.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json: medians over
the repetitions, latency percentiles included.  --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics (medians over the
traced ones) and the tracing overhead, the difference of the two median wall
times.  Times are in reference seconds: the child samples the CPU's speed
while it runs (bench/probe.py).  The last line of stdout is one JSON object;
the exit status is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPAN_DIR = BENCH / "out"
TIME_LIMIT_S = 170.0  # the whole run, child processes included


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def run_child(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("NEKRASOV_ENUM_LIMIT", None)
    env["PYTHONHASHSEED"] = "0"  # same string hashes, so the same dict layouts, in every child
    span_path = SPAN_DIR / f"{workload}.spans.jsonl"  # the last traced repetition
    argv = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
            str(time.monotonic_ns()), "1" if trace else "0", str(span_path)]
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_reps(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Repetitions until the next is expected to overrun; traced runs alternate untraced and traced."""
    start = time.monotonic()
    reps: list[dict] = []
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = run_child(workload, seed, traced,
                        timeout=TIME_LIMIT_S - (time.monotonic() - start))
        rep["traced"] = traced
        reps.append(rep)
        elapsed = time.monotonic() - start
        mean = elapsed / len(reps)
        enough = len(reps) >= (2 if trace else 1)
        if enough and (elapsed + mean > seconds or elapsed + 3 * mean > TIME_LIMIT_S):
            return reps


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """Medians over the repetitions; latency percentiles are taken per repetition first."""
    def median(key):
        return statistics.median(key(r) for r in reps)

    return {
        "setup_s": median(lambda r: r["setup_s"]),
        "wall_s": median(lambda r: r["wall_s"]),
        "items_per_s": median(lambda r: r["items"] / r["wall_s"]),
        "latency_p50_ms": median(lambda r: percentile(r["latencies_ms"], 0.50)),
        "latency_p99_ms": median(lambda r: percentile(r["latencies_ms"], 0.99)),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    names = traced[0]["layers"].keys()
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(r["wall_s"] for r in untraced)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    out["trace.spans"] = statistics.median(r["spans"] for r in traced)
    out["trace.wrapped_functions"] = traced[0]["wrapped"]
    return out


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nekrasov" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'nekrasov'}", file=sys.stderr)
        return 2
    SPAN_DIR.mkdir(exist_ok=True)

    try:
        reps = run_reps(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        values, wanted = per_layer(reps), spec["per_layer"]
    else:
        values, wanted = end_to_end(reps), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    samples = sum(len(r["latencies_ms"]) for r in reps)
    print(f"# {args.workload} seed={args.seed} reps={len(reps)} latency_samples={samples}"
          f" fail_ratio={failed / attempted:.6g} ({failed}/{attempted})")
    print("# rep wall_s (reference s): " + " ".join(
        f"{r['wall_s']:.3f}{'t' if r['traced'] else ''}" for r in reps))
    print("# rep wall (raw s): " + " ".join(f"{r['raw_wall_s']:.3f}" for r in reps))
    print("# rep speed (reference s per raw s): " + " ".join(
        f"{r['wall_s'] / r['raw_wall_s']:.3f}" for r in reps))
    for rep in reps:
        for failure in rep["failures"]:
            print(f"# FAIL {failure}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
