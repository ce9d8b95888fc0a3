"""Timing loop, set-up measurement, statistics and the check pass.

All load comes from one closed-loop client: the next query starts when
the previous one has returned.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import tracing
from tracing import END, NAME, PARENT, SPAN_INFO, START
from workloads import child_env

MIN_QUERIES = 11  # the tail percentile needs ten samples beyond it
WINDOW = 1024  # largest window for throughput and tail; divides every workload's pool
SETUP_REPEATS = 3
REF_S = 1e-3  # reported timings read as on a machine where reference() takes this long
REF_EVERY = 0.02  # seconds of query time between two reference() samples


@dataclass(slots=True)
class Result:
    index: int  # position of the item in the generated inputs
    latency: float  # seconds
    answer: object
    error: str | None = None


def tail(latencies) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). The value is the
    eleventh-largest sample; the percentile is the share of samples at or
    below it.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < MIN_QUERIES:
        raise ValueError(f"need at least {MIN_QUERIES} samples, got {n}")
    i = n - MIN_QUERIES
    return xs[i], 100.0 * (i + 1) / n, n - 1 - i


def cold_import_s(module: str) -> float:
    """Time to import ``module`` in a fresh interpreter, measured inside it."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def importtime_s(module: str = "kfrechet.cli") -> float:
    """Cumulative import time of ``module`` reported by ``python -X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                         env=child_env(), capture_output=True, text=True, timeout=120, check=True)
    for line in out.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == module:
            return int(fields[1]) / 1e6
    raise RuntimeError(f"-X importtime printed no line for {module}")


def reference() -> float:
    """Seconds taken by a fixed block of pure-Python arithmetic.

    A shared virtual machine can change speed by tens of percent within
    minutes. The reference block shares no code with the program, so the
    median of its samples taken between queries measures the machine
    alone, and timings scaled by ``REF_S / median`` compare across runs.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        x = (i * 7 % 13) + 0.5
        acc += x * x / (x + 1.0)
    return time.perf_counter() - t0


def digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()


def setup(wl, kf, seed: int, workdir) -> tuple[float, list, bool]:
    """Set up ``SETUP_REPEATS`` times; returns (median seconds, inputs, inputs identical).

    One set-up is a cold import of the workload's module in a child
    process, input generation, writing input files and a few warm-up
    queries whose answers are discarded.
    """
    times = []
    digests = set()
    items: list = []
    for _ in range(SETUP_REPEATS):
        import_s = cold_import_s(wl.import_target)
        t0 = time.perf_counter()
        items = wl.generate(seed)
        wl.prepare(kf, items, workdir)
        for item in items[:wl.warm_queries]:
            wl.query(kf, item)
        times.append(import_s + time.perf_counter() - t0)
        digests.add(digest(items))
    return statistics.median(times), items, len(digests) == 1


def timed_query(wl, kf, items, idx: int, seen: dict, tracer=None) -> Result:
    """One query on ``items[idx]``; under a root ``query`` span when ``tracer`` is given.

    ``seen`` maps an input to its first answer. A repeated input must give
    an equal answer, and only the first is kept, so the memory the harness
    holds is bounded by the number of inputs, not by the query rate.
    """
    if tracer is not None:
        sid = tracer.open("query")
    t0 = time.perf_counter()
    try:
        answer, error = wl.query(kf, items[idx]), None
    except Exception as exc:  # a failed query is counted, the loop goes on
        answer, error = None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(sid)
    if error is None:
        answer = wl.slim(answer)
        first = seen.setdefault(idx, answer)
        if first is not answer and first != answer:
            answer, error = None, "answer differs from an earlier run of the same input"
        else:
            answer = first
    return Result(idx, latency, answer, error)


def run_loop(wl, kf, items, seconds: float, order=None) -> tuple[list, list]:
    """Closed loop over ``items`` for ``seconds`` (or exactly the indices in ``order``).

    Returns the results and the :func:`reference` samples taken every
    ``REF_EVERY`` seconds of query time, outside the queries.
    """
    gc.collect()
    gc.freeze()
    results: list = []
    refs = [reference()]
    seen: dict = {}
    since_ref = 0.0
    start = time.perf_counter()

    def more() -> bool:
        if order is not None:
            return len(results) < len(order)
        return len(results) < MIN_QUERIES or time.perf_counter() - start < seconds

    while more():
        idx = order[len(results)] if order is not None else len(results) % len(items)
        results.append(timed_query(wl, kf, items, idx, seen))
        since_ref += results[-1].latency
        if since_ref >= REF_EVERY:
            refs.append(reference())
            since_ref = 0.0
    gc.unfreeze()
    return results, refs


def traced_loop(wl, kf, items, seconds: float, tracer, patch) -> tuple[list, list]:
    """Each query twice in a row: traced (wrappers bound, tracer on), then untraced.

    Pairing the two runs of a query keeps drift in the machine's speed out
    of the overhead estimate. Returns (traced results, untraced results).
    """
    gc.collect()
    gc.freeze()
    traced, untraced = [], []
    seen: dict = {}
    start = time.perf_counter()
    while len(traced) < MIN_QUERIES or time.perf_counter() - start < seconds:
        idx = len(traced) % len(items)
        tracer.query = len(traced)
        patch.apply()
        tracer.on = True
        try:
            traced.append(timed_query(wl, kf, items, idx, seen, tracer))
        finally:
            tracer.on = False
            patch.undo()
        untraced.append(timed_query(wl, kf, items, idx, seen))
    gc.unfreeze()
    return traced, untraced


def check_pass(wl, kf, items, results) -> list[tuple[int, str]]:
    """Untimed correctness checks; returns (query number, message) per failed query.

    Each input is checked once: :func:`timed_query` already turned any
    repeat whose answer differs from the first into an error.
    """
    failures = []
    verdicts: dict = {}
    for q, r in enumerate(results):
        if r.error is not None:
            failures.append((q, r.error))
            continue
        if r.index not in verdicts:
            verdicts[r.index] = wl.check(kf, items[r.index], r.answer)
        if verdicts[r.index]:
            failures.append((q, "; ".join(verdicts[r.index])))
    return failures


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def windows(results, size: int) -> list:
    """Complete windows of ``size`` consecutive results, or the whole run when none is.

    The loop walks the inputs in order and ``size`` divides their number,
    so every complete window holds the same inputs whatever the query
    rate, and a faster program is measured on the same work, not on more
    of it.
    """
    full = len(results) // size
    if full == 0:
        return [results]
    return [results[i * size:(i + 1) * size] for i in range(full)]


def end_to_end(results, refs, window: int, setup_s: float,
               rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics plus the raw figures, the tail's percentile and sample counts.

    Timings are scaled to the reference speed (see :func:`reference`).
    Throughput and tail are medians over :func:`windows`, the median
    latency is over all their samples; queries after the last complete
    window are left out of the figures (not out of the checks).
    """
    ref = statistics.median(refs)
    scale = REF_S / ref
    parts = windows(results, window)
    rates = [sum(1 for r in part if r.error is None) / sum(r.latency for r in part)
             for part in parts]
    tails = [tail([r.latency for r in part]) for part in parts]
    _, pct, beyond = tails[0]
    raw = {
        "throughput_qps": statistics.median(rates),
        "latency_p50_ms": statistics.median(r.latency for part in parts for r in part) * 1e3,
        "latency_tail_ms": statistics.median(t[0] for t in tails) * 1e3,
        "setup_s": setup_s,
    }
    metrics = {
        "throughput_qps": (raw["throughput_qps"] / scale, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * scale, "ms"),
        "latency_tail_ms": (raw["latency_tail_ms"] * scale, "ms"),
        "setup_s": (setup_s * scale, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {f"raw {name}": round(value, 6) for name, value in raw.items()}
    info.update({"reference_ms": round(ref * 1e3, 4), "reference_samples": len(refs),
                 "tail_percentile": round(pct, 3), "tail_beyond": beyond,
                 "windows": len(parts), "samples_per_window": len(parts[0]),
                 "samples": len(results)})
    return metrics, info


def per_layer(spans: list, queries: int, extras: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced loop, per query where a rate.

    Returns (metrics, self seconds per layer).
    """
    selfs = tracing.self_times(spans)
    layer_self: dict = defaultdict(float)
    name_self: dict = defaultdict(float)
    name_calls: dict = defaultdict(int)
    for span, st in zip(spans, selfs):
        layer_self[tracing.layer_of(span[NAME])] += st
        name_self[span[NAME]] += st
        name_calls[span[NAME]] += 1
    traced = sum(s[END] - s[START] for s in spans if s[PARENT] is None)

    def per_q(x):
        return x / queries

    def ratio(a, b):
        return a / b if b else 0.0

    def layer_calls(layer):
        return sum(c for name, c in name_calls.items() if name.startswith(layer + "."))

    builds = [s[SPAN_INFO] for s in spans if s[NAME] == "freespace.build_diagram"]
    cells = sum(b[0] for b in builds)
    probes = [s[SPAN_INFO] for s in spans if s[NAME] == "decide.decide_fpt"
              and s[PARENT] is not None and spans[s[PARENT]][NAME].startswith("optimize.")]
    rows = [s[SPAN_INFO] for s in spans if s[NAME] == "boxes.build_box_instance"]
    unsat = [s[SPAN_INFO] for s in spans if s[NAME] == "boxes.solve_box_bruteforce"]
    parse = ("curves.parse_curve", "curves.parse_curve_json")
    classic = ("decide.decide_hausdorff", "decide.decide_weak_frechet",
               "decide.decide_strong_frechet")
    m = {
        "freespace.build_calls": per_q(len(builds)),
        "freespace.build_s": per_q(layer_self["freespace"]),
        "freespace.cells": per_q(cells),
        "freespace.us_per_cell": ratio(layer_self["freespace"], cells) * 1e6,
        "freespace.components": ratio(sum(b[1] for b in builds), len(builds)),
        "freespace.share": ratio(layer_self["freespace"], traced),
        "optimize.probes_per_query": per_q(len(probes)),
        "optimize.minimize_epsilon_self_s": per_q(name_self["optimize.minimize_epsilon"]),
        "optimize.minimize_k_self_s": per_q(name_self["optimize.minimize_k"]),
        "decide.fpt_s": per_q(name_self["decide.decide_fpt"]
                              + name_self["decide.fpt_feasible_selections"]),
        "decide.classic_s": per_q(sum(name_self[n] for n in classic)),
        "decide.calls": per_q(layer_calls("decide")),
        "decide.fpt_positive_ratio": ratio(sum(probes), len(probes)),
        "decide.fpt_paths": extras.get("decide.fpt_paths", 0.0),
        "decide.share": ratio(layer_self["decide"], traced),
        "approx.calls": per_q(layer_calls("approx")),
        "approx.s": per_q(layer_self["approx"]),
        "approx.size_over_kmin": extras.get("approx.size_over_kmin", 0.0),
        "curves.parse_calls": per_q(sum(name_calls[n] for n in parse)),
        "curves.parse_s": per_q(sum(name_self[n] for n in parse)),
        "boxes.normalize_s": per_q(name_self["boxes.normalize_formula"]),
        "boxes.build_s": per_q(name_self["boxes.build_box_instance"]),
        "boxes.solve_s": per_q(name_self["boxes.solve_box_bruteforce"]),
        "boxes.rows_mean": ratio(sum(rows), len(rows)),
        "boxes.unsat_ratio": ratio(sum(unsat), len(unsat)),
        "boxes.share": ratio(layer_self["boxes"], traced),
        "trace.accounted_ratio": ratio(traced - layer_self[tracing.ROOT_LAYER], traced),
    }
    return m, dict(layer_self)
