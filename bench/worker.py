"""Run one workload in one process and print a JSON result as the last line.

run.py starts this script. Run it by hand only with --write-reference, to
regenerate the committed default-seed reference (see README.md):

    AIRYLINK_THREADS=1 python3 bench/worker.py --workload height_sweep --seed 0 \
        --write-reference 8

Modes:
  --setup-only   time set-up in this fresh interpreter, probe, and stop.
  (default)      set up, then run points until --seconds have passed,
                 probing the machine's speed before each point.
  --trace        set up traced, then run `trace_points` points twice each,
                 once traced and once not, alternating which goes first.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
DEFAULT_SEED = 0
# Probing right after set-up lasts a tenth of the set-up, and at least 0.2 s.
SETUP_PROBE_SHARE, SETUP_PROBE_MIN_S = 0.1, 0.2


class Runner:
    """Runs and checks the points of one workload."""

    def __init__(self, wl, modules, spans, out: Path, reference: dict):
        self.wl, self.modules, self.spans = wl, modules, spans
        self.out = out
        self.reference = reference.get(wl.name, []) if wl.seed == DEFAULT_SEED else []
        self.problems: list = []

    def point(self, i: int, tracer=None):
        """(wall seconds, output, captured searches, ok) of point i."""
        tag = "plain" if tracer is None else "traced"
        wall, output, captured, problems = self._run(i, tracer, self.out / tag)
        if output is not None and i < len(self.reference):
            # Round-trip through JSON so tuples and lists compare alike.
            entry = json.loads(json.dumps(self.wl.reference_entry(output, captured)))
            problems += self.wl.compare(entry, self.reference[i])
        self.problems += [f"point {i} ({tag}): {msg}" for msg in problems]
        return wall, output, captured, not problems

    def _run(self, i, tracer, out):
        captured = []
        with self.spans.Instruments(self.modules, tracer, captured):
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = self.wl.point(i, out)
                else:
                    tracer.point = i
                    with tracer.span("bench.point"):
                        output = self.wl.point(i, out)
            except Exception:
                traceback.print_exc()
                return time.perf_counter() - start, None, captured, ["raised"]
            wall = time.perf_counter() - start
        return wall, output, captured, self.wl.check(i, output, captured, out)

    def files(self, tag: str) -> dict:
        return {f.name: f.read_bytes() for f in sorted((self.out / tag).iterdir())}


def timed_points(runner: Runner, seconds: float, probe) -> dict:
    """Closed loop: start a new point while less than `seconds` have passed.

    The machine's speed is probed before the first point and after every
    point. A point's scale is the reference probe time over the mean of the
    probes on either side of it.
    """
    walls, scales, failed = [], [], 0
    before = probe.sample(0.0)
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, _, _, ok = runner.point(len(walls))
        after = probe.sample(probe.SHARE * wall)
        walls.append(wall)
        scales.append(probe.REFERENCE_S / statistics.mean(before + after))
        before = after
        failed += not ok
    return {"point_s": walls, "point_scale": scales,
            "attempted": len(walls), "failed": failed}


def traced_points(runner: Runner, tracer, spans) -> dict:
    """Each point traced and untraced; their output files must be identical."""
    wl = runner.wl
    wall = {"plain": 0.0, "traced": 0.0}
    failed = 0
    for i in range(wl.trace_points):
        files, ok = {}, True
        for tag in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            seconds, _, _, point_ok = runner.point(i, tracer if tag == "traced" else None)
            wall[tag] += seconds
            files[tag] = runner.files(tag)
            ok &= point_ok
        if files["plain"] != files["traced"]:
            runner.problems.append(f"point {i}: traced output files differ")
            ok = False
        failed += not ok
    layers = spans.layer_metrics(tracer)
    layers["trace.overhead_s"] = (wall["traced"] - wall["plain"], "s")
    return {"layers": layers, "attempted": wl.trace_points, "failed": failed}


def record(wl) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "airylink_threads": os.environ.get("AIRYLINK_THREADS", ""),
        "seed": wl.seed,
        "size": wl.size(),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--write-reference", type=int, default=0, metavar="POINTS")
    args = p.parse_args()

    src = ROOT / "src"
    if not (src / "airylink" / "__init__.py").is_file():
        print(f"no airylink sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans
    import workloads
    from airylink import beam, cli, codebook, evaluation, gridio, search

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"airylink imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    modules = {"beam": beam, "cli": cli, "codebook": codebook,
               "evaluation": evaluation, "gridio": gridio, "search": search}

    wl = workloads.WORKLOADS[args.workload](args.seed, modules)
    out = ROOT / ".bench_out" / wl.name
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / f"config-seed{args.seed}.yaml"
    config_path.write_text(wl.config_text())

    tracer = spans.Tracer() if args.trace else None
    with spans.Instruments(modules, tracer, []):
        wl.setup(config_path)
    result = {"setup_s": time.perf_counter() - T0}

    import probe  # after airylink, so that AIRYLINK_THREADS applies

    probe_s = max(SETUP_PROBE_MIN_S, SETUP_PROBE_SHARE * result["setup_s"])
    result["setup_scale"] = probe.REFERENCE_S / statistics.mean(probe.sample(probe_s))
    if args.setup_only:
        print(json.dumps(result))
        return 0

    wl.prepare_checks()
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if args.write_reference:
        runner = Runner(wl, modules, spans, out, {})
        entries = []
        for i in range(args.write_reference):
            _, output, captured, ok = runner.point(i)
            if not ok:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            entries.append(wl.reference_entry(output, captured))
        reference[wl.name] = entries
        REFERENCE.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
        return 0

    runner = Runner(wl, modules, spans, out, reference)
    if tracer is None:
        result.update(timed_points(runner, args.seconds, probe))
    else:
        result.update(traced_points(runner, tracer, spans))
        tracer.write(out / f"spans-seed{args.seed}.json")
    for msg in runner.problems[:20]:
        print(msg, file=sys.stderr)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["record"] = record(wl)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
