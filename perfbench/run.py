"""Benchmark of the z2z4cyclic package, driven through its CLI entry point.

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 34 --trace 0

One process, one caller, no threads: a closed loop over the workload's
fixed items, each one ``cli.run(Command(..., output_format="json"))``.
The seed sets the item order and the seed of the ``verify`` checks.

--trace 0 runs whole passes over the items until the next pass would
end after --seconds (at least two passes) and reports the end-to-end
metrics: the median pass time, the median and tail item latency, peak
resident memory, and set-up time (a fresh interpreter importing the
package and building the inputs, timed several times).

Times are scaled to a reference machine speed.  A shared cloud host runs
the same code up to 1.5 times slower while other tenants are busy, for
minutes at a time.  So a fixed probe (an interpreter loop and a small
numpy sort, independent of the package) runs between items every
PROBE_EVERY_S, and each pass's times are multiplied by REF_PROBE_S over
the pass's mean probe time.  The mean, not the median: a pass that is
slow for 60% of its length takes the mean slowdown, not the full one.  The raw times are recorded beside them.

--trace 1 runs the tracer self-test, one untraced pass and one traced
pass, asserts that both passes give the same outputs, and reports the
per-layer metrics of the traced pass plus its overhead.

Every output is checked against expected/<workload>.json outside the
timed region.  Each run writes a record to results/; a traced run also
saves its spans there.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

from selftest import run_selftest
from tracer import Tracer, layer_metrics
from workloads import BENCH_DIR, ROOT, WORKLOADS, MissingPackage, build_items, check, load_package

RESULTS_DIR = BENCH_DIR / "results"
SETUP_PROBES = 7
MIN_PASSES = 2  # so that oracle_family (about 20 s a pass) always gets a median of two
TAIL_BEYOND = 10  # samples the tail latency must leave above it
PERCENTILES = (90.0, 95.0, 99.0, 99.9, 99.99)
PROBE_EVERY_S = 0.2
REF_PROBE_S = 0.002  # the probe's time at the reference speed

_PROBE_DATA = (np.arange(1 << 14, dtype=np.int64) * 40503) % 65521


def speed_probe() -> float:
    """Seconds for a fixed interpreter loop plus a cache-sized numpy sort."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    np.sort(_PROBE_DATA)
    return time.perf_counter() - t0


def run_pass(cli, items, order):
    """Run every item once in `order`, with speed probes between items.

    One probe is due every PROBE_EVERY_S; after a long item the due ones
    run together, so the probes weigh each stretch of the pass by its length.
    Returns (seconds in items, seconds per item, result per item, mean probe seconds).
    """
    run = cli.run
    clock = time.perf_counter
    latencies = [0.0] * len(items)
    results = [None] * len(items)
    probes = [speed_probe()]
    due = clock() + PROBE_EVERY_S
    for i in order:
        while clock() >= due:
            probes.append(speed_probe())
            due += PROBE_EVERY_S
        t = clock()
        try:
            results[i] = run(items[i].command)
        except Exception as e:  # an item that raises is a failed item, not a failed run
            results[i] = e
        latencies[i] = clock() - t
    probes.append(speed_probe())
    return math.fsum(latencies), latencies, results, statistics.fmean(probes)


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) at the highest of PERCENTILES with TAIL_BEYOND samples beyond it.

    Nearest-rank percentile; with too few samples for any, the maximum (p100).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in reversed(PERCENTILES):
        if n * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return ordered[math.ceil(pct / 100.0 * n) - 1], pct
    return ordered[-1], 100.0


def failures(items, results) -> list[tuple[int, str]]:
    out = []
    for i, (item, result) in enumerate(zip(items, results)):
        reason = check(item, result)
        if reason is not None:
            out.append((i, reason))
    return out


def setup_seconds(workload: str) -> tuple[float, float]:
    """(scaled, raw) median wall time of a fresh interpreter importing the package and building the inputs."""
    cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "--probe", workload]
    times, probes = [], []
    for _ in range(SETUP_PROBES):
        probes.append(speed_probe())
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    probes.append(speed_probe())
    raw = statistics.median(times)
    return raw * REF_PROBE_S / statistics.fmean(probes), raw


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(cli, items, order, seconds: float):
    """End-to-end metrics from whole passes over the items.

    Passes continue while the next one should end within `seconds`, and
    there are at least MIN_PASSES.  Each pass's time, median and tail item latency
    are scaled by the pass's probe; the metrics are their medians.
    """
    raw, scaled, probes, failed, pct = [], [], [], 0, 100.0
    begin = time.perf_counter()
    while True:
        gc.collect()
        wall, lat, results, probe = run_pass(cli, items, order)
        bad = failures(items, results)
        for i, reason in bad[:5]:
            print(f"FAIL {items[i].label}: {reason}", file=sys.stderr)
        failed += len(bad)
        tail_s, pct = tail(lat)
        raw.append((wall, statistics.median(lat), tail_s))
        scaled.append(tuple(v * REF_PROBE_S / probe for v in raw[-1]))
        probes.append(probe)
        elapsed = time.perf_counter() - begin
        if len(raw) >= MIN_PASSES and elapsed + statistics.median(r[0] for r in raw) > seconds:
            break

    def med(rows, k):
        return statistics.median(r[k] for r in rows)

    metrics = {
        "wall_s": (med(scaled, 0), "s"),
        "item_p50_ms": (1000.0 * med(scaled, 1), "ms"),
        "item_tail_ms": (1000.0 * med(scaled, 2), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "passes": len(raw),
        "item_tail_percentile": pct,
        "pass_probe_s": probes,
        "pass_wall_raw_s": [r[0] for r in raw],
        "raw": {"wall_s": med(raw, 0), "item_p50_ms": 1000.0 * med(raw, 1),
                "item_tail_ms": 1000.0 * med(raw, 2)},
    }
    return metrics, len(raw) * len(items), failed, extra


def measure_traced(pkg, cli, items, order, spans_path):
    """Per-layer metrics from one traced pass, checked against one untraced pass."""
    errors = run_selftest(pkg, cli)
    for line in errors:
        print(f"SELFTEST {line}", file=sys.stderr)
    gc.collect()
    wall_plain, _, plain, probe_plain = run_pass(cli, items, order)
    gc.collect()
    with Tracer(pkg) as tr:
        wall_traced, _, traced, probe_traced = run_pass(cli, items, order)
    differ = [i for i, (a, b) in enumerate(zip(plain, traced)) if repr(a) != repr(b)]
    for i in differ[:5]:
        print(f"TRACE CHANGED OUTPUT {items[i].label}", file=sys.stderr)
    bad = failures(items, plain) + failures(items, traced)
    for i, reason in bad[:5]:
        print(f"FAIL {items[i].label}: {reason}", file=sys.stderr)
    metrics = layer_metrics(tr, len(items), wall_traced)
    out_bytes = sum(len(r[1].encode()) for r in traced if isinstance(r, tuple))
    metrics["cli.output_bytes"] = (out_bytes, "bytes")
    # Both passes scaled by their own probe, like the end-to-end times.
    overhead = (wall_traced / probe_traced) / (wall_plain / probe_plain)
    metrics["trace.overhead"] = (overhead, "ratio")
    tr.write_spans(spans_path)
    extra = {
        "wall_untraced_raw_s": wall_plain,
        "wall_traced_raw_s": wall_traced,
        "probe_untraced_s": probe_plain,
        "probe_traced_s": probe_traced,
        "spans": len(tr.name),
        "selftest_errors": errors,
        "outputs_changed_by_tracing": len(differ),
    }
    return metrics, 2 * len(items), len(bad) + len(differ), not errors, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg, cli = load_package()
    except MissingPackage as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    items = build_items(cli, args.workload, args.seed)
    order = list(range(len(items)))
    random.Random(args.seed).shuffle(order)
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        metrics, attempted, failed, selftest_ok, extra = measure_traced(
            pkg, cli, items, order, RESULTS_DIR / f"{stem}-spans.npz"
        )
    else:
        setup, setup_raw = setup_seconds(args.workload)
        metrics, attempted, failed, extra = measure(cli, items, order, args.seconds)
        metrics["setup_s"] = (setup, "s")
        extra["raw"]["setup_s"] = setup_raw
        selftest_ok = True

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} items)")
    if not args.trace:
        print(
            f"item_tail_ms is p{extra['item_tail_percentile']:.4g} of n={len(items)} items per pass,"
            f" median over {extra['passes']} passes"
        )
        print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in extra["raw"].items()))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "items": len(items),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        **extra,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    result = {
        "correct": failed == 0 and selftest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
