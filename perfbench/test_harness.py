"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench/test_harness.py
"""

import json
import random
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import kfrechet as kf  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("n", [11, 12, 20, 99, 100, 101, 1000, 4321])
def test_tail_has_ten_samples_beyond_it(n):
    rng = random.Random(n)
    xs = [rng.expovariate(1.0) for _ in range(n)]
    value, pct, beyond = harness.tail(xs)
    assert beyond == 10
    assert sum(x > value for x in xs) == 10
    # it is the highest such percentile: the next sample up has only nine beyond it
    assert sum(x > min(x for x in xs if x > value) for x in xs) == 9
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_windowed_tail_keeps_ten_samples_beyond_it_per_window():
    rng = random.Random(5)
    results = [harness.Result(0, rng.expovariate(1.0), None) for _ in range(4321)]
    metrics, info = harness.end_to_end(results, [harness.REF_S], 1000, 1.0, 1.0)
    assert info["windows"] == 4 and info["tail_beyond"] == 10
    assert info["samples_per_window"] == 1000
    tails = [harness.tail([r.latency for r in part])[0] for part in harness.windows(results, 1000)]
    assert metrics["latency_tail_ms"][0] == pytest.approx(1e3 * statistics.median(tails))
    # the 321 queries after the last complete window do not count
    assert metrics["latency_p50_ms"][0] == pytest.approx(
        1e3 * statistics.median(r.latency for r in results[:4000]))


def test_window_sizes_divide_every_pool():
    for wl in WORKLOADS.values():
        assert wl.pool % min(wl.pool, harness.WINDOW) == 0


def test_timings_are_scaled_to_the_reference_speed():
    results = [harness.Result(0, 0.001 * (i + 1), None) for i in range(21)]
    at_ref, _ = harness.end_to_end(results, [harness.REF_S] * 3, 1000, 4.0, 50.0)
    slow, info = harness.end_to_end(results, [2 * harness.REF_S] * 3, 1000, 4.0, 50.0)
    assert at_ref["latency_p50_ms"][0] == pytest.approx(11.0)
    assert slow["latency_p50_ms"][0] == pytest.approx(5.5)
    assert slow["latency_tail_ms"][0] == pytest.approx(at_ref["latency_tail_ms"][0] / 2)
    assert slow["throughput_qps"][0] == pytest.approx(2 * at_ref["throughput_qps"][0])
    assert slow["setup_s"][0] == pytest.approx(2.0)
    assert slow["peak_rss_mb"][0] == 50.0
    assert info["raw latency_p50_ms"] == pytest.approx(11.0)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        harness.tail([1.0] * 10)


def test_self_time_on_hand_built_span_tree():
    #  query [0, 10]
    #    a   [1, 4]    a1 [2, 3] inside it
    #    b   [5, 6]
    #    c   [8, 12]   runs past its parent: only [8, 10] counts against it
    spans = [
        ["query", 0.0, 10.0, None, 0, None],
        ["decide.a", 1.0, 4.0, 0, 0, None],
        ["curves.a1", 2.0, 3.0, 1, 0, None],
        ["freespace.b", 5.0, 6.0, 0, 0, None],
        ["boxes.c", 8.0, 12.0, 0, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 1.0, 4.0])
    # overlapping children are covered once
    overlap = [["query", 0.0, 10.0, None, 0, None],
               ["decide.a", 1.0, 5.0, 0, 0, None],
               ["decide.b", 3.0, 7.0, 0, 0, None]]
    assert tracing.self_times(overlap)[0] == pytest.approx(4.0)


def test_patch_wraps_module_aliases_and_undo_restores():
    original = kf.optimize.build_diagram
    tracer = tracing.Tracer()
    patch = tracing.Patch(tracer)
    patch.apply()
    try:
        assert kf.optimize.build_diagram is not original
        tracer.on = True
        P = kf.PolyCurve([(0, 0), (1, 0), (2, 0)])
        Q = kf.PolyCurve([(0, 0.1), (2, 0.1)])
        kf.minimize_epsilon(P, Q, 1, tol=0.05)
    finally:
        tracer.on = False
        patch.undo()
    assert kf.optimize.build_diagram is original
    names = [s[tracing.NAME] for s in tracer.spans]
    builds = [s for s in tracer.spans if s[tracing.NAME] == "freespace.build_diagram"]
    assert names[0] == "optimize.minimize_epsilon"
    assert builds and all(s[tracing.PARENT] == 0 for s in builds)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    wl = WORKLOADS[name]()
    first, again, other = wl.generate(7), wl.generate(7), wl.generate(8)
    assert repr(first).encode() == repr(again).encode()
    assert harness.digest(first) != harness.digest(other)


def _stub(**overrides):
    """The kfrechet API with some functions replaced; src/ stays untouched."""
    api = {name: getattr(kf, name) for name in kf.__all__}
    api.update(overrides)
    return types.SimpleNamespace(**api)


def test_check_pass_flags_a_wrong_match_answer():
    wl = WORKLOADS["match-decide"]()
    items = wl.generate(3)
    good, _ = harness.run_loop(wl, kf, items, 0, order=list(range(12)))
    assert harness.check_pass(wl, kf, items, good) == []
    covered = sum(r.answer.kmin is not None for r in good)
    assert covered > 0
    liar = _stub(decide_fpt=lambda diagram, k, tol=None: None)
    bad, _ = harness.run_loop(wl, liar, items, 0, order=list(range(12)))
    failures = harness.check_pass(wl, kf, items, bad)
    assert len(failures) == covered
    assert all("does not cover" in message for _, message in failures)


def test_check_pass_flags_a_wrong_box_answer():
    wl = WORKLOADS["sat-boxes"]()
    items = wl.generate(3)[:32]
    liar = _stub(solve_box_bruteforce=lambda instance, tol=None: None)
    bad, _ = harness.run_loop(wl, liar, items, 0, order=list(range(32)))
    failures = harness.check_pass(wl, kf, items, bad)
    assert len(failures) == 30  # every satisfiable formula: 15 of each block of 16
    assert all("disagrees with brute-force SAT" in message for _, message in failures)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results = [harness.Result(0, 0.001 * (i + 1), None) for i in range(20)]
    metrics, _ = harness.end_to_end(results, [harness.REF_S], 1000, 1.0, 1.0)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "sat-boxes",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
