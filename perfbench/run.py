"""Benchmark entry point: one workload, one seed, one timed (or traced) run.

    python3 perfbench/run.py --workload match-decide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs from a source checkout (``src/kfrechet``), with no install. Prints a
human-readable report and, as the last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` times
the untraced closed loop and reports the end-to-end metrics; ``--trace 1``
wraps every layer's public functions, reports per-layer metrics and
writes the spans to ``.perfbench/trace-<workload>-<seed>.json``. Exits 1
when any answer fails its check, 2 when the checkout has no
``src/kfrechet``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import tracing
from workloads import ROOT, SRC, WORKLOADS

OUT = ROOT / ".perfbench"
IMPORTTIME_REPEATS = 3

PER_LAYER_UNITS = {
    "freespace.build_calls": "count", "freespace.build_s": "s", "freespace.cells": "count",
    "freespace.us_per_cell": "us", "freespace.components": "count", "freespace.share": "ratio",
    "optimize.probes_per_query": "count", "optimize.minimize_epsilon_self_s": "s",
    "optimize.minimize_k_self_s": "s",
    "decide.fpt_s": "s", "decide.classic_s": "s", "decide.calls": "count",
    "decide.fpt_positive_ratio": "ratio", "decide.fpt_paths": "count", "decide.share": "ratio",
    "approx.calls": "count", "approx.s": "s", "approx.size_over_kmin": "ratio",
    "curves.parse_calls": "count", "curves.parse_s": "s",
    "boxes.normalize_s": "s", "boxes.build_s": "s", "boxes.solve_s": "s",
    "boxes.rows_mean": "count", "boxes.unsat_ratio": "ratio", "boxes.share": "ratio",
    "cli.import_s": "s", "cli.process_s": "s", "cli.import_share": "ratio",
    "trace.overhead_ratio": "ratio", "trace.accounted_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help='"all" runs every workload, each in its own process')
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def traced_run(wl, kf, items, seconds: float, seed: int):
    """Per-layer metrics from a traced run; returns (all results, metrics, self s per layer)."""
    tracer = tracing.Tracer()
    wl.tracer = tracer
    traced, untraced = harness.traced_loop(wl, kf, items, seconds, tracer, tracing.Patch(tracer))
    tracer.dump(OUT / f"trace-{wl.name}-{seed}.json")
    traced_s = sum(r.latency for r in traced)
    untraced_s = sum(r.latency for r in untraced)
    metrics, layer_self = harness.per_layer(tracer.spans, len(traced),
                                            wl.extras(kf, traced))
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    import_s = statistics.median(harness.importtime_s() for _ in range(IMPORTTIME_REPEATS))
    process_s = untraced_s / len(untraced) if wl.name == "cli-cold" else 0.0
    metrics["cli.import_s"] = import_s
    metrics["cli.process_s"] = process_s
    metrics["cli.import_share"] = import_s / process_s if process_s else 0.0
    layer_self["(traced wall)"] = traced_s
    return traced + untraced, metrics, layer_self


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kfrechet" / "__init__.py").is_file():
        print(f"error: no kfrechet sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        statuses = [subprocess.run([sys.executable, __file__, "--workload", name,
                                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)]).returncode
                    for name in WORKLOADS]
        return max(statuses)
    os.environ.pop("KFRECHET_TOL", None)
    sys.path.insert(0, str(SRC))
    import kfrechet as kf

    wl = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    try:
        setup_s, items, same_inputs = harness.setup(wl, kf, args.seed, workdir)
        if args.trace:
            results, metrics, layer_self = traced_run(wl, kf, items, args.seconds, args.seed)
            report = {name: (metrics[name], unit) for name, unit in PER_LAYER_UNITS.items()}
            extra = {f"self_s[{k}]": round(v, 4) for k, v in sorted(layer_self.items())}
        else:
            results, refs = harness.run_loop(wl, kf, items, args.seconds)
            report, extra = harness.end_to_end(
                results, refs, min(wl.pool, harness.WINDOW), setup_s,
                harness.peak_rss_mb(children=wl.name == "cli-cold"))
        failures = harness.check_pass(wl, kf, items, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not same_inputs:
        failures.append((-1, "the same seed generated different inputs"))
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(results)} queries, tolerance {kf.default_tol()} (KFRECHET_TOL unset)")
    for name, (value, unit) in report.items():
        print(f"  {name:34s} {value:14.6f} {unit}")
    print(f"  {'error_rate':34s} {len(failures) / len(results):14.6f} ratio")
    for key, value in extra.items():
        print(f"  {key:34s} {value}")
    for q, message in failures[:10]:
        print(f"  FAILED query {q}: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
