"""Shared fixtures: random curve generators, scalar segment distances, stub
diagrams, subset oracles."""

from __future__ import annotations

import functools
import importlib.util
import itertools
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

import kfrechet as kf
from kfrechet.intervals import _axis_cover
import oracles


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


@pytest.fixture
def kfrechet_tol(monkeypatch):
    """Set the one comparison tolerance, ``KFRECHET_TOL``, for this test: a
    float, or any string the variable may hold."""
    return lambda tol: monkeypatch.setenv("KFRECHET_TOL", tol if isinstance(tol, str)
                                          else repr(float(tol)))


def random_curve(rng, nseg: int, scale: float = 1.0) -> kf.PolyCurve:
    while True:
        verts = rng.uniform(0.0, scale, size=(nseg + 1, 2))
        try:
            return kf.PolyCurve(verts)
        except kf.CurveError:
            continue


def reference_parse_curve(text: str) -> kf.PolyCurve:
    """``kf.parse_curve`` as one loop over the lines, each stripped, tested,
    split and converted on its own: the reference of the flat parse."""
    vertices = []
    underscores = "_" in text  # float() reads "1_0" as 10
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise kf.CurveError(f"line {lineno}: expected two numbers, got {stripped!r}")
        if underscores and "_" in stripped:
            raise kf.CurveError(f"line {lineno}: malformed number in {stripped!r}")
        try:
            vertices.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise kf.CurveError(f"line {lineno}: malformed number in {stripped!r}") from exc
    return kf.PolyCurve(vertices)


def random_pair(rng, max_seg: int = 6):
    P = random_curve(rng, int(rng.integers(2, max_seg + 1)))
    Q = random_curve(rng, int(rng.integers(2, max_seg + 1)))
    return P, Q


@functools.cache
def _bench_gen():
    """``perfbench/gen.py``, the benchmark's seeded input generator."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def piece_pair(seed: int):
    """The seeded pair ``gen.piece_pair`` of the benchmark's generator draws
    from ``gen.rng_for(seed, 0)``: P of 6-12 segments and Q made of its
    pieces, at most three, jittered."""
    gen = _bench_gen()
    rng = gen.rng_for(seed, 0)
    P, Q = gen.piece_pair(rng, int(rng.integers(6, 13)), 3)
    return kf.PolyCurve(P), kf.PolyCurve(Q)


def epsilon_probes(rng, P, Q, count: int = 3, avoid_critical: float = 1e-8):
    """Eps values spread over the interesting range, nudged off the
    pairwise-distance candidates so decisions are numerically stable."""
    lo = 0.0
    hi = kf.pairwise_vertex_max(P, Q)
    cands = kf.distance_candidates(P, Q)
    probes = []
    for frac in rng.uniform(0.05, 1.0, size=count):
        eps = lo + frac * (hi - lo)
        while any(abs(eps - c) <= avoid_critical for c in cands):
            eps += 3e-7
        probes.append(eps)
    return probes


def _components_bijective(small, big) -> bool:
    """One-to-one containment map from small-eps onto big-eps components."""
    owner = {}
    for comp in big.components:
        for cell in comp.cells:
            owner[cell] = comp.id
    images = []
    for comp in small.components:
        targets = {owner[cell] for cell in comp.cells}
        if len(targets) != 1:
            return False
        images.append(targets.pop())
    return len(set(images)) == len(images) == len(big.components)


def raster_stable(P, Q, eps: float, res: int) -> bool:
    """Whether no relevant critical value can hide from a res-raster.

    Components must map one-to-one across both half-bands around eps
    (a merge breaks injectivity, a birth breaks surjectivity; checking
    the halves separately also catches a birth-then-merge entirely
    inside the band). The coverage decisions must agree at the band
    ends too, since they flip at seam events that are not topology
    changes. With the margin tied to the distance-field Lipschitz
    bound this certifies every free region and every blocked gap is
    raster-visible.
    """
    margin = oracles.pixel_margin(P, Q, res)
    if eps - margin <= 0:
        return False
    lo = kf.build_diagram(P, Q, eps - margin)
    hi = kf.build_diagram(P, Q, eps + margin)
    if kf.decide_weak_frechet(lo) != kf.decide_weak_frechet(hi):
        return False
    if kf.decide_hausdorff(lo) != kf.decide_hausdorff(hi):
        return False
    mid = kf.build_diagram(P, Q, eps)
    return _components_bijective(lo, mid) and _components_bijective(mid, hi)


# The scalar reference of ``optimize.distance_candidates`` and
# ``freespace._PairGeometry.vertex_segment_distances``: one segment pair per call.
def segment_distance(a0: Sequence[float], a1: Sequence[float],
                     b0: Sequence[float], b1: Sequence[float]) -> float:
    """Minimum distance between two closed segments."""
    a0 = np.asarray(a0, dtype=float)
    a1 = np.asarray(a1, dtype=float)
    b0 = np.asarray(b0, dtype=float)
    b1 = np.asarray(b1, dtype=float)
    if _segments_intersect(a0, a1, b0, b1):
        return 0.0
    return min(
        point_segment_distance(a0, b0, b1),
        point_segment_distance(a1, b0, b1),
        point_segment_distance(b0, a0, a1),
        point_segment_distance(b1, a0, a1),
    )


def point_segment_distance(p, a, b) -> float:
    """Distance from point ``p`` to the closed segment ``a``-``b``."""
    p = np.asarray(p, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d = b - a
    den = float(d @ d)
    if den == 0.0:
        return float(np.linalg.norm(p - a))
    u = float((p - a) @ d) / den
    u = min(1.0, max(0.0, u))
    return float(np.linalg.norm(a + u * d - p))


def _segments_intersect(a0, a1, b0, b1) -> bool:
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    d1 = orient(b0, b1, a0)
    d2 = orient(b0, b1, a1)
    d3 = orient(a0, a1, b0)
    d4 = orient(a0, a1, b1)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True

    def on_segment(p, q, r):
        return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))

    if d1 == 0 and on_segment(b0, b1, a0):
        return True
    if d2 == 0 and on_segment(b0, b1, a1):
        return True
    if d3 == 0 and on_segment(a0, a1, b0):
        return True
    if d4 == 0 and on_segment(a0, a1, b1):
        return True
    return False


def touched_sides(comp, n: int, m: int, tol: float = 1e-9) -> str:
    """The diagram boundaries a component's projections reach, as letters of "LRBT"."""
    (p_lo, p_hi), (q_lo, q_hi) = comp.proj_p, comp.proj_q
    flags = (p_lo <= tol, p_hi >= n - tol, q_lo <= tol, q_hi >= m - tol)
    return "".join(side for side, on in zip("LRBT", flags) if on)


def sweep_z(components, n: int, m: int, tol: float | None = None) -> int:
    """The stabbing number ``z`` of component projections, by a sorted sweep
    over every projection end, each also shifted by -tol and +tol, that lies
    on the axis: the reference for the start-only count of ``build_diagram``."""
    tol = kf.default_tol() if tol is None else tol
    ends = np.array([(*c.proj_p, *c.proj_q) for c in components],
                    dtype=float).reshape(-1, 4).T
    best = 0
    for lo, hi, length in ((ends[0], ends[1], n), (ends[2], ends[3], m)):
        lo, hi = np.sort(lo[lo <= hi]), np.sort(hi[lo <= hi])
        pos = np.concatenate([e + shift for e in (lo, hi) for shift in (-tol, 0.0, tol)])
        pos = pos[(pos >= 0.0) & (pos <= length)]
        if pos.size:
            count = np.searchsorted(lo, pos, "right") - np.searchsorted(hi, pos, "left")
            best = max(best, int(count.max()))
    return best


def axis_intervals(diagram) -> tuple[list, list]:
    """The (id, lo, hi) projections of every component onto the p and onto
    the q axis, by id, built from the components alone."""
    return ([(c.id, *c.proj_p) for c in diagram.components],
            [(c.id, *c.proj_q) for c in diagram.components])


def clause_size_counts(formula) -> tuple[int, int, int]:
    """(m1, m2, m3): number of clauses with 1, 2 and 3 literals."""
    counts = [0, 0, 0]
    for clause in formula.clauses:
        counts[len(clause) - 1] += 1
    return tuple(counts)


def axis_cover(intervals, target):
    """The minimum cover of the (lo, hi) ``target`` that :func:`kf.approximate_k`
    takes on one axis: the cover search of :mod:`kfrechet.intervals` over
    (id, lo, hi) intervals, none of them free."""
    return _axis_cover(intervals, target, kf.default_tol())


def reference_union_covers(intervals, target, gap_tol: float) -> bool:
    """Whether (lo, hi) ``intervals`` cover the (lo, hi) ``target`` with gaps
    of at most ``gap_tol`` forgiven, by a sweep independent of the cover search
    of :mod:`kfrechet.intervals`: sorted by lo, an interval moves the reach when
    it starts within ``gap_tol`` of it. A target no longer than ``gap_tol`` is
    covered by no interval at all."""
    spans = sorted((lo, hi) for lo, hi in intervals if lo <= hi)
    reach, goal = target[0], target[1] - gap_tol
    for lo, hi in spans:
        if lo > reach + gap_tol:
            break
        if hi > reach:
            reach = hi
            if reach >= goal:
                return True
    return reach >= goal


def stub_diagram(n: int, m: int, projections) -> kf.FreeSpaceDiagram:
    """Diagram with hand-set component projections (no cell geometry).

    ``projections`` is a list of ((plo, phi), (qlo, qhi)) pairs. Only
    usable with operations that work off component projections.
    """
    comps = tuple(
        kf.Component(id=idx, cells=frozenset(), proj_p=(float(plo), float(phi)),
                     proj_q=(float(qlo), float(qhi)))
        for idx, ((plo, phi), (qlo, qhi)) in enumerate(projections))
    return kf.FreeSpaceDiagram(epsilon=1.0, n=n, m=m, cells=(), components=comps,
                               z=sweep_z(comps, n, m))


def exhaustive_min_selection_size(diagram, cap: int | None = None):
    """Smallest covering selection size by raw subset enumeration."""
    ids = [c.id for c in diagram.components]
    top = len(ids) if cap is None else min(cap, len(ids))
    for size in range(top + 1):
        for combo in itertools.combinations(ids, size):
            if kf.covers_both(diagram, combo):
                return size
    return None


def exhaustive_decide(diagram, k: int):
    """Reference decision: any selection of size <= k covering both axes."""
    ids = [c.id for c in diagram.components]
    for size in range(min(k, len(ids)) + 1):
        for combo in itertools.combinations(ids, size):
            if kf.covers_both(diagram, combo):
                return combo
    return None


# frozen fixture: 6 components at eps=0.359, minimum covering size 2
SIX_COMPONENT_PAIR = (
    [[0.74, 0.052], [0.98, 0.241], [0.999, 0.091], [0.274, 0.705], [0.114, 0.044], [0.899, 0.929]],
    [[0.3, 0.618], [0.864, 0.026], [0.16, 0.021], [0.916, 0.777], [0.364, 0.156]],
    0.359,
)

# frozen fixture: z == 2 diagram with growing feasible-path counts
Z2_PAIR = (
    [[0.589, 0.87], [0.197, 0.227], [0.136, 0.253], [0.517, 0.113], [0.879, 0.811]],
    [[0.765, 0.957], [0.561, 0.693], [0.282, 0.917], [0.848, 0.642], [0.193, 0.581], [0.362, 0.201]],
    0.294,
)
