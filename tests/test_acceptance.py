"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The random corpora
are seeded, so every run checks the same instances.
"""

import itertools
import time

import numpy as np
import pytest

import kfrechet as kf
from conftest import (Z2_PAIR, axis_cover, clause_size_counts, exhaustive_min_selection_size,
                      random_curve, raster_stable)
import oracles

SEED = 987654321
TOL = kf.DEFAULT_TOL


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def _probes(rng, P, Q, count):
    """Eps values nudged off every pairwise-distance candidate by > 10*tol."""
    hi = kf.pairwise_vertex_max(P, Q)
    cands = kf.distance_candidates(P, Q)
    out = []
    for frac in rng.uniform(0.05, 1.0, size=count):
        eps = float(frac * hi)
        while any(abs(eps - c) <= 10 * TOL for c in cands):
            eps += 5e-7
        out.append(eps)
    return out


@pytest.fixture(scope="module")
def corpus():
    """500 random curve pairs (2..6 segments) x 5 eps probes, diagrams built."""
    rng = np.random.default_rng(SEED)
    t0 = time.time()
    entries = []
    for _ in range(500):
        P = random_curve(rng, int(rng.integers(2, 7)))
        Q = random_curve(rng, int(rng.integers(2, 7)))
        for eps in _probes(rng, P, Q, 5):
            entries.append((P, Q, eps, kf.build_diagram(P, Q, eps)))
    print(f"\n[corpus: {len(entries)} diagrams built in {time.time() - t0:.1f}s]")
    return entries


def test_criterion_1_sandwich(corpus):
    t0 = time.time()
    checked = 0
    for P, Q, eps, d in corpus:
        strong = kf.decide_strong_frechet(d)
        weak = kf.decide_weak_frechet(d)
        fpt1 = kf.decide_fpt(d, 1) is not None
        fpt2 = kf.decide_fpt(d, 2) is not None
        haus = kf.decide_hausdorff(d)
        if strong:
            assert weak, (P.vertices, Q.vertices, eps)
        if weak:
            assert fpt1 and fpt2, (P.vertices, Q.vertices, eps)
        if fpt1:
            assert fpt2, (P.vertices, Q.vertices, eps)
        if fpt1 or fpt2:
            assert haus, (P.vertices, Q.vertices, eps)
        checked += 1
    assert checked == 2500
    _report(1, f"sandwich chain holds on {checked} probes, 0 violations "
               f"({time.time() - t0:.1f}s)")


def test_criterion_2_endpoint_equivalences(corpus):
    t0 = time.time()
    for P, Q, eps, d in corpus:
        weak = kf.decide_weak_frechet(d)
        assert (kf.decide_fpt(d, 1) is not None) == weak, (P.vertices, Q.vertices, eps)
        k_all = len(d.components)
        haus = kf.decide_hausdorff(d)
        assert (kf.decide_fpt(d, k_all) is not None) == haus, (P.vertices, Q.vertices, eps)
    _report(2, f"fpt(1)<->weak and fpt(#components)<->hausdorff on {len(corpus)} probes "
               f"({time.time() - t0:.1f}s)")


@pytest.fixture(scope="module")
def small_instances(corpus):
    """Corpus entries with at most 10 components (criterion 3 scope)."""
    picked = [(P, Q, eps, d) for P, Q, eps, d in corpus if len(d.components) <= 10]
    return picked


def test_criterion_3_exact_agreement(small_instances):
    t0 = time.time()
    assert len(small_instances) >= 1000
    for P, Q, eps, d in small_instances:
        for k in (0, 1, 2, 3):
            brute = oracles.decide_bruteforce(d, k)
            fpt = kf.decide_fpt(d, k)
            assert (brute is None) == (fpt is None), (P.vertices, Q.vertices, eps, k)
            if brute is not None:
                assert kf.covers_both(d, brute)
                assert kf.covers_both(d, fpt)
    _report(3, f"brute == fpt existence for k<=3 on {len(small_instances)} instances "
               f"(<=10 components), selections verified ({time.time() - t0:.1f}s)")


def test_criterion_4_greedy_optimality():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 4)
    for trial in range(1000):
        count = int(rng.integers(1, 13))
        los = rng.uniform(-0.1, 1.0, size=count)
        widths = rng.uniform(0.0, 0.7, size=count)
        intervals = [(i, float(lo), float(lo + w)) for i, (lo, w) in enumerate(zip(los, widths))]
        greedy = axis_cover(intervals, (0.0, 1.0))
        opt = oracles.exhaustive_min_cover([(lo, hi) for _, lo, hi in intervals],
                                           (0.0, 1.0), gap_tol=TOL)
        if opt is None:
            assert greedy is None, trial
        else:
            assert greedy is not None and len(greedy) == opt, trial
    _report(4, f"per-axis cover size == exhaustive minimum on 1000 interval sets "
               f"({time.time() - t0:.1f}s)")


def test_criterion_5_approximation_bound(small_instances):
    t0 = time.time()
    checked = 0
    for P, Q, eps, d in small_instances:
        sel = kf.approximate_k(d)
        opt = exhaustive_min_selection_size(d)
        if opt is None:
            assert sel is None
            continue
        assert sel is not None
        assert kf.covers_both(d, sel)
        assert len(sel) <= 2 * opt, (P.vertices, Q.vertices, eps)
        checked += 1
    _report(5, f"|approximate_k| <= 2*OPT on {checked} instances with OPT "
               f"({time.time() - t0:.1f}s)")


def test_criterion_6_preprocessing_soundness(small_instances):
    t0 = time.time()
    necessary_checks = 0
    for P, Q, eps, d in small_instances:
        pre = oracles.preprocess(d)
        assert not set(pre.necessary) & set(pre.dropped)
        for k in (1, 2, 3):
            with_pre = oracles.decide_bruteforce(d, k, use_preprocess=True)
            without = oracles.decide_bruteforce(d, k, use_preprocess=False)
            assert (with_pre is None) == (without is None), (P.vertices, Q.vertices, eps, k)
            for sel in (with_pre, without):
                if sel is not None:
                    assert set(pre.necessary) <= set(sel)
                    necessary_checks += 1
    _report(6, f"decisions identical with/without preprocessing; necessary set "
               f"contained in {necessary_checks} found selections ({time.time() - t0:.1f}s)")


def _all_formulas(max_vars=3, max_clauses=4):
    for n in range(1, max_vars + 1):
        lits = [l for v in range(1, n + 1) for l in (v, -v)]
        clauses = []
        for size in (1, 2, 3):
            clauses.extend(itertools.combinations(lits, size))
        for count in range(1, max_clauses + 1):
            for combo in itertools.combinations(clauses, count):
                used = {abs(l) for c in combo for l in c}
                if used != set(range(1, n + 1)):
                    continue  # smaller-n representative exists
                yield kf.CnfFormula(n, combo)


def test_criterion_7_box_reduction():
    t0 = time.time()
    total = 0
    for f in _all_formulas():
        norm = kf.normalize_formula(f)
        inst = kf.build_box_instance(norm)
        m1, m2, m3 = clause_size_counts(norm)
        occ = m1 + 2 * m2 + 3 * m3
        assert len(inst.boxes) == 4 * norm.num_vars + 2 * occ
        assert inst.k == 2 * norm.num_vars + occ
        sat = kf.sat_bruteforce(norm) is not None
        box = kf.solve_box_bruteforce(inst) is not None
        assert sat == box, norm
        total += 1
    rng = np.random.default_rng(SEED + 7)
    randoms = 0
    while randoms < 100:
        n_clauses = int(rng.integers(3, 7))
        clauses = []
        for _ in range(n_clauses):
            size = int(rng.integers(1, 4))
            vs = rng.choice(np.arange(1, 5), size=size, replace=False)
            signs = rng.choice([-1, 1], size=size)
            clauses.append(tuple(int(v * s) for v, s in zip(vs, signs)))
        f = kf.normalize_formula(kf.CnfFormula(4, tuple(clauses)))
        inst = kf.build_box_instance(f)
        m1, m2, m3 = clause_size_counts(f)
        occ = m1 + 2 * m2 + 3 * m3
        assert len(inst.boxes) == 4 * 4 + 2 * occ
        assert inst.k == 2 * 4 + occ
        assert (kf.sat_bruteforce(f) is not None) == \
               (kf.solve_box_bruteforce(inst) is not None), f
        randoms += 1
    _report(7, f"SAT <-> box-coverable on {total} enumerated formulas (<=3 vars, "
               f"<=4 clauses) + {randoms} random 4-var formulas; closed forms exact "
               f"({time.time() - t0:.1f}s)")


def test_criterion_8_epsilon_optimization():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 8)
    tol = 1e-4
    for _ in range(50):
        P = random_curve(rng, int(rng.integers(2, 5)))
        Q = random_curve(rng, int(rng.integers(2, 5)))
        result = kf.minimize_epsilon(P, Q, 1, tol=tol)
        hi = kf.pairwise_vertex_max(P, Q)
        coarse = np.linspace(0.0, hi, 257)
        weak_at = lambda e: kf.decide_weak_frechet(kf.build_diagram(P, Q, float(e)))
        idx = next(i for i, e in enumerate(coarse) if weak_at(e))
        lo_b = coarse[idx - 1] if idx else 0.0
        fine = np.linspace(lo_b, coarse[idx], 257)
        grid_first = next(float(e) for e in fine if weak_at(e))
        fine_step = fine[1] - fine[0]
        assert abs(result - grid_first) <= tol + fine_step, (P.vertices, Q.vertices)
        values = [result] + [kf.minimize_epsilon(P, Q, k, tol=tol) for k in (2, 3)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 2 * tol
    _report(8, f"minimize_epsilon(k=1) matches weak-decision grid scan within "
               f"{tol} on 50 pairs; non-increasing in k ({time.time() - t0:.1f}s)")


def test_criterion_9_pixel_freespace_agreement():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 9)
    agreed = 0
    attempts = 0
    while agreed < 200 and attempts < 2000:
        attempts += 1
        P = random_curve(rng, int(rng.integers(2, 6)))
        Q = random_curve(rng, int(rng.integers(2, 6)))
        eps = float(rng.uniform(0.15, 1.0))
        if not raster_stable(P, Q, eps, 512):
            continue  # a critical value sits inside the raster band
        d = kf.build_diagram(P, Q, eps)
        pix = oracles.pixel_freespace(P, Q, eps, res=512)
        assert pix.component_count == len(d.components), (P.vertices, Q.vertices, eps)
        assert pix.weak_ok() == kf.decide_weak_frechet(d), (P.vertices, Q.vertices, eps)
        assert pix.covers_both() == kf.decide_hausdorff(d), (P.vertices, Q.vertices, eps)
        agreed += 1
    assert agreed == 200, f"only {agreed} stable instances in {attempts} attempts"
    _report(9, f"diagram and 512px raster agree on components/decisions for "
               f"{agreed} instances ({time.time() - t0:.1f}s)")


def test_criterion_10_fpt_runtime_shape():
    t0 = time.time()
    pv, qv, eps = Z2_PAIR
    d = kf.build_diagram(kf.PolyCurve(pv), kf.PolyCurve(qv), eps)
    assert d.z == 2
    counts = {}
    for k in (1, 2, 3, 4, 6, 8):
        _, cp = kf.fpt_feasible_selections(d, "p", k)
        _, cq = kf.fpt_feasible_selections(d, "q", k)
        counts[k] = (cp, cq)
        assert cp <= d.z ** k and cq <= d.z ** k  # the z^k tree bound
    lines = ", ".join(f"k={k}: P={c[0]} Q={c[1]}" for k, c in counts.items())
    for k in (1, 2, 3, 4):
        cp2, cq2 = counts.get(2 * k, (0, 0))
        cp1, cq1 = counts[k]
        note = "<=" if (cp2 <= max(cp1, 1) ** 2 and cq2 <= max(cq1, 1) ** 2) else ">"
        print(f"  [doubling k={k}->{2 * k}: paths ({cp1},{cq1}) -> ({cp2},{cq2}) {note} square]")
    _report(10, f"path counts within z^k bound on z=2 fixture ({lines}); "
                f"doubling behaviour logged, not gated ({time.time() - t0:.1f}s)")
