"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 wsnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off.  ``--trace 1`` spends half the time untraced and half with
the layer wrappers of :mod:`tracer` installed, prints the per-layer
table, and reports the per-layer metrics.  Every output is checked
against a reference digest (:mod:`check`); the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is
non-zero on any mismatch.  ``NOTES.md`` explains the workloads and how
to read the table.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
SRC_DIR = ROOT_DIR / "src"

#: Fresh interpreters that repeat the set-up, besides this process.
SETUP_PROBES = 2
#: Traced and untraced iterations of a ``--trace 1`` run, at least.
TRACE_MIN_ITERATIONS = 2


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, run, seconds: float, min_iterations: int, tracer=None
            ) -> Tuple[List[float], List[float]]:
    """Iterate until ``seconds`` of timed path and ``min_iterations``."""
    walls: List[float] = []
    cpus: List[float] = []
    while len(walls) < min_iterations or sum(walls) < seconds:
        gc.collect()
        wall, cpu = workload.iterate(run, tracer)
        walls.append(wall)
        cpus.append(cpu)
    return walls, cpus


def probe_setup(name: str, seed: int, workdir: Path) -> float:
    """Launch-to-ready seconds of one fresh interpreter."""
    workdir.mkdir()
    launch = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed),
         repr(launch), str(workdir)],
        cwd=str(ROOT_DIR), capture_output=True, text=True, timeout=120,
    )
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(name, run, tracer, traced_walls, untraced_walls, import_s,
                  kernel_wall) -> Tuple[dict, List[str], List[str]]:
    """Per-layer metrics, the printed tables and any consistency failures."""
    from tracer import LAYER_METRICS, ROOT, format_table, layer_summary, merge_summaries

    n = len(traced_walls)
    main = layer_summary(tracer)
    serve = merge_summaries(run.serve_summaries)
    both = merge_summaries([main, serve])
    values = {
        metric: both[kind].get(source, 0.0) / n
        for metric, (kind, source) in LAYER_METRICS.items()
    }
    lanes = both["counts"].get("system.vectorized.lanes", 0.0)
    values["sim.trace.samples_per_scenario"] = (
        both["counts"].get("sim.trace.samples", 0.0) / lanes if lanes else 0.0
    )
    values["setup.import_s"] = import_s
    for part in ("scenario.expand_s", "service.serve_start_s", "store.fill_s"):
        values[part] = median_or_zero(run.setup_parts.get(part, []))
    untraced = statistics.median(untraced_walls)
    values["campaign_over_kernel"] = untraced / kernel_wall
    values["unattributed_s"] = main["self"].get(ROOT, 0.0) / n
    values["tracing.overhead_s"] = statistics.median(traced_walls) - untraced

    tables = [format_table("benchmark process", main["self"], main["counts"],
                           main["root_wall"], n)]
    if run.serve_summaries:
        tables.append(format_table(
            "serve processes (concurrent with coord.wait; not part of the sum)",
            serve["self"], serve["counts"], main["root_wall"], n))

    failures = []
    stray = tracer.stray_spans()
    if stray:
        failures.append(
            f"{len(stray)} span(s) recorded outside the root span on the main "
            f"thread: {', '.join(sorted(set(stray)))}"
        )
    layered = sum(main["self"].values())
    if abs(layered - main["root_wall"]) > 1e-6 * main["root_wall"]:
        failures.append(
            f"layer self times sum to {layered:.6f} s, traced wall is "
            f"{main['root_wall']:.6f} s"
        )
    kernel_share = values["system.vectorized.run_batch_s"] / statistics.median(traced_walls)
    if name == "campaign-warm" and kernel_share > 0.01:
        failures.append(
            f"campaign-warm spends {kernel_share:.1%} of its wall in "
            f"system.vectorized.run_batch (expected ~0)"
        )
    return values, tables, failures


def execute(args: argparse.Namespace, corrupt: bool = False):
    """Run one benchmark invocation; return (exit code, result, its Run)."""
    import_start = time.perf_counter()
    import workloads
    from tracer import Tracer, install_layers

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(sorted(workloads.WORKLOADS))
        raise SystemExit(f"unknown workload {args.workload!r} (known: {known})")
    workload = workloads.WORKLOADS[args.workload]()
    for module in workload.imports:
        importlib.import_module(module)
    import_s = time.perf_counter() - import_start
    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())

    workdir = ROOT_DIR / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = workloads.Run(args.seed, workdir, corrupt=corrupt)
        workload.setup_base(run)
        base_setups = [workloads.process_age_s()]
        if hasattr(workload, "fill"):
            workload.fill(run)

        min_iterations = workload.min_iterations
        seconds = args.seconds
        if args.trace:
            seconds /= 2
            min_iterations = TRACE_MIN_ITERATIONS
        walls, cpus = measure(workload, run, seconds, min_iterations)
        print(f"{args.workload}: untraced walls {[round(w, 3) for w in walls]}, "
              f"cpu {[round(c, 3) for c in cpus]}", file=sys.stderr)
        serve_starts = list(run.setup_parts.get("service.serve_start_s", []))
        if args.trace:
            tracer = Tracer()
            install_layers(tracer)
            try:
                traced_walls, _ = measure(workload, run, seconds, min_iterations, tracer)
            finally:
                tracer.unwrap_all()

        base_setups += [
            probe_setup(args.workload, args.seed, workdir / f"probe{i}")
            for i in range(SETUP_PROBES)
        ]
        expected, kernel_wall = workload.reference(run, computed=bool(args.trace))
        failed = [label for label, digest in run.observed
                  if expected.get(label) != digest]
        attempted = len(run.observed)
        passed_fraction = (attempted - len(failed)) / attempted

        if args.trace:
            values, tables, failures = layer_metrics(
                args.workload, run, tracer, traced_walls, walls, import_s, kernel_wall)
            print("\n\n".join(tables))
            for failure in failures:
                print(f"layer-table check failed: {failure}", file=sys.stderr)
            declared = spec["per_layer"]
        else:
            failures = []
            values = {
                "setup_s": statistics.median(base_setups)
                + sum(run.setup_parts.get("store.fill_s", []))
                + median_or_zero(serve_starts),
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "store_bytes_per_scenario": run.store_bytes_per_row(),
                "peak_rss_mb": run.peak_rss_kb / 1024.0,
                "unsaved_max": run.unsaved_max(),
                "passed_fraction": passed_fraction,
            }
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label in failed[:5]:
        print(f"output check failed: {args.workload} seed {args.seed} "
              f"item {label}", file=sys.stderr)
    correct = not failed and not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    return (0 if correct else 1), result, run


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC_DIR}; run the benchmark from "
              f"a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    # A SIGTERM unwinds like an error, so the serves stop and the
    # scratch stores are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    code, result, _ = execute(args)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
