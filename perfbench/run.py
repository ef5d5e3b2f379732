"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload compile-zoo --seed 1 --seconds 30 --trace 0

Workloads: ``compile-zoo``, ``fleet-replay``, ``service-storm`` (see
``workloads.py`` for what each runs and why).  A run pays the workload's
setup, then repeats identical cold rounds: ``--seconds`` over the
workload's nominal round length, at least one.  The round count is fixed by
the arguments, never by how fast a round ran, so two commits do the same
work.  It prints a metadata line (``perfbench-meta {...}``:
workload, seed and why, rounds, git SHA, Python/numpy versions, cores),
then as its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names, units and directions come from
``BENCHMARK.json`` at the checkout root.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
an untraced warm-up setup + round, a traced one (spans around each layer's
public entry points, see ``tracing.py``) and an untraced one, and reports
the per-layer metrics of the traced one plus ``trace.slowdown``, its wall
time over the untraced one's.

Scratch files (service stores) live in a temporary directory inside the
checkout, removed on exit.  Exit status is 0 only when a result was
printed; it is 2 when the checkout holds no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def geomean(samples) -> float:
    """Weighted geometric mean of (value, weight) pairs."""
    total = sum(w for _, w in samples)
    return math.exp(sum(w * math.log(v) for v, w in samples) / total)


def machine() -> Dict[str, object]:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def end_to_end(import_s: float, setup, rounds) -> Dict[str, float]:
    sim = next(p.sim for p in (setup, *rounds) if p.sim)
    return {
        "setup_s": import_s + setup.setup_s + statistics.median(r.setup_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": sum(r.ops for r in rounds) / sum(r.timed_s for r in rounds),
        "plan.latency_ms_geomean": geomean([(lat, w) for lat, _, w in sim]),
        "plan.avg_memory_mb_geomean": geomean([(mem, w) for _, mem, w in sim]),
    }


def per_layer(workload, tracing) -> tuple:
    """An untraced warm-up setup + round, a traced one, an untraced one; the
    per-layer metrics of the traced one and its wall time over the last."""
    warmup = [workload.setup(None), workload.round(None)]
    tracer = tracing.Tracer()
    traced = [workload.setup(tracer), workload.round(tracer)]
    untraced = [workload.setup(None), workload.round(None)]

    def wall(parts):
        return sum(p.setup_s + p.timed_s for p in parts)

    metrics = tracing.layer_metrics(tracer)
    metrics.update(traced[1].layer)
    metrics["trace.slowdown"] = wall(traced) / wall(untraced)
    return metrics, warmup + traced + untraced, [warmup[1], traced[1], untraced[1]]


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    os.environ["TMPDIR"] = tempfile.tempdir = scratch
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    try:
        import_start = time.perf_counter()
        import tracing
        import workloads

        import_s = time.perf_counter() - import_start
        if args.workload not in workloads.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; "
                  f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)

        if args.trace:
            values, parts, rounds = per_layer(workload, tracing)
            wanted = spec["per_layer"]
            # A layer this workload never calls reads 0.
            values = {m["name"]: 0.0 for m in wanted} | values
        else:
            setup = workload.setup(None)
            count = max(1, round(args.seconds / workload.ROUND_S))
            rounds = [workload.round(None) for _ in range(count)]
            parts = [setup, *rounds]
            values = end_to_end(import_s, setup, rounds)
            wanted = spec["end_to_end"]
        names = {m["name"] for m in wanted}
        if set(values) != names:
            raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ names)}")

        errors = [e for p in parts for e in p.errors]
        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        for error in errors:
            print(f"perfbench: check failed: {error}", file=sys.stderr)
        meta = {
            "workload": workload.name,
            "seed": args.seed,
            "seed_use": workload.seed_use,
            "why": workload.why,
            "seconds": args.seconds,
            "trace": args.trace,
            "rounds": len(rounds),
            "import_s": import_s,
            **machine(),
        }
        print("perfbench-meta " + json.dumps(meta, sort_keys=True))
        for m in wanted:
            print(f"  {m['name']:<32} {values[m['name']]:>16.6g} {m['unit']}")
        print(json.dumps({
            "correct": not errors and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted
            },
        }))
        return 0
    except Exception:  # noqa: BLE001 — report and exit without a result line
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
