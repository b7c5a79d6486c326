"""airylink benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload height_sweep --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. With --trace 0 it prints the end-to-end metrics (set-up time,
throughput, point latency, peak memory) and failed_frac; with --trace 1 the
per-layer metrics of a separate traced run. The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

    python3 bench/run.py --write-benchmark-json

rewrites BENCHMARK.json at the root from the definitions below. README.md
next to this file explains the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

RUN_SECONDS = 25
# Set-up is timed in this many fresh interpreters; the median is reported.
SETUP_SAMPLES = 3
# Every run of a workload must end within this many seconds.
DEADLINE_S = 170.0
# BLAS/OpenMP threads, fixed for every run and recorded with the result.
THREADS = "1"
BACKEND_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOADS = [
    {"name": "height_sweep",
     "why": "paper headline SE-vs-height sweep at 256 Tx; wave-model channel "
            "cascade is ~90% of a point, so kernel and channel-reuse changes show here"},
    {"name": "training_overhead",
     "why": "SE-vs-training-budget sweep at 128 Tx; codebook builds, per-slot "
            "measurement and SE evaluation dominate, channel only runs in set-up"},
    {"name": "fieldmap_render",
     "why": "200x200 field maps of curved beams at 128 Tx: same RS kernel on "
            "non-commensurate column hops, plus gridio CSV/binary writes"},
]

# Bounds are at least three times the quartile spread over ten seeds where
# the 0.25 ceiling allows; README.md gives the measured spreads.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "points_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "point_p50_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]

PER_LAYER = [
    ("channel.busy_s", "s", "lower"),
    ("channel.calls", "count", "lower"),
    ("channel.kernel_entries", "count", "lower"),
    ("channel.kernel_bytes", "B_computed", "lower"),
    ("channel.distinct_ratio", "ratio", "higher"),
    ("codebook.busy_s", "s", "lower"),
    ("codebook.words", "count", "lower"),
    ("codebook.distinct_ratio", "ratio", "higher"),
    ("codebook.plan_s", "s", "lower"),
    ("cli.config_s", "s", "lower"),
    ("search.busy_s", "s", "lower"),
    ("search.slots", "count", "lower"),
    ("search.us_per_slot", "us", "lower"),
    ("evaluation.busy_s", "s", "lower"),
    ("evaluation.se_evals", "count", "lower"),
    ("beam.render_s", "s", "lower"),
    ("beam.columns", "count", "lower"),
    ("gridio.busy_s", "s", "lower"),
    ("gridio.bytes", "B_computed", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def commit() -> str:
    """HEAD of the checkout, or 'unknown' outside a git work tree."""
    try:
        res = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = res.stdout.split()
    if res.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


class WorkerFailed(Exception):
    pass


def worker(args: list, deadline: float) -> dict:
    """Run bench/worker.py to completion and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k not in BACKEND_VARS}
    env["AIRYLINK_THREADS"] = THREADS
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{' '.join(args)}: timed out") from None
    lines = res.stdout.strip().splitlines()
    if res.returncode or not lines:
        raise WorkerFailed(f"{' '.join(args)}: exit code {res.returncode}")
    return json.loads(lines[-1])


def end_to_end(common: list, deadline: float) -> tuple:
    """Times scaled to reference seconds by each process's probe (probe.py)."""
    runs = [worker(common + ["--setup-only"], deadline)
            for _ in range(SETUP_SAMPLES - 1)]
    res = worker(common, deadline)
    runs.append(res)
    walls = [w * k for w, k in zip(res["point_s"], res["point_scale"])]
    metrics = {
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in runs),
        "points_per_s": len(walls) / sum(walls),
        "point_p50_s": statistics.median(walls),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    res["unscaled"] = {
        "setup_s": [r["setup_s"] for r in runs],
        "setup_scale": [r["setup_scale"] for r in runs],
        "points_per_s": len(walls) / sum(res["point_s"]),
        "point_p50_s": statistics.median(res["point_s"]),
        "point_scale": statistics.median(res["point_scale"]),
    }
    units = {m["name"]: m["unit"] for m in END_TO_END}
    return res, {k: (v, units[k]) for k, v in metrics.items()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args()

    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (ROOT / "src" / "airylink" / "__init__.py").is_file():
        print(f"error: no airylink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        if args.trace:
            res = worker(common + ["--trace"], deadline)
            metrics = {k: tuple(v) for k, v in res["layers"].items()}
            if set(metrics) != {n for n, _, _ in PER_LAYER}:
                raise WorkerFailed("per-layer metrics do not match PER_LAYER")
        else:
            res, metrics = end_to_end(common, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = res["attempted"], res["failed"]
    record = {"commit": commit(), "nproc": os.cpu_count(), **res["record"]}
    if not args.trace:
        record["unscaled"] = res["unscaled"]
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print(f"record: {json.dumps(record)}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value!r} {unit}")
    print(f"failed_frac: {failed / attempted!r} ({failed} of {attempted} points)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
