"""The array-built free space diagram against a scalar, cell-by-cell reference.

The reference below builds the diagram one cell at a time with scalar
arithmetic: per edge a quadratic solve, per cell the capsule slice of
each axis, then a union-find over cells and an all-pairs stabbing count.
It is the original builder of this package, kept here as the reference,
with one fix: a free bottom/top edge now puts 0/1 into the cell's
t-projection, as a free left/right edge always put 0/1 into its
s-projection. ``build_diagram`` must equal it exactly, cell by cell
(every float compares equal; only the sign of a zero may differ).

The eps search is checked the same way: a pair prepared once must give
the reference grid at every eps, each probe must decide as
``decide_fpt(build_diagram(...))``, and ``minimize_epsilon`` must return
the float of the build-per-probe loop kept here as its reference. Its
warm start rests on free space only growing with eps in floating point:
that, and a warm-started labelling equal to a cold one, are checked too.
Its predicted-bracket search rests on the decision being monotone in eps:
that is checked on an eps grid through the critical values, and a wrong
prediction must still give the reference float. The distance candidates
must equal the per-pair scalar loop kept here as their reference.
"""

import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

import kfrechet as kf
from kfrechet import optimize
from kfrechet.freespace import FreeSpaceGrid, _as_grid, _components, _PairGeometry
from kfrechet.optimize import _bisect, _cover_exists

from conftest import random_curve, sweep_z

TOL = 1e-9


# ----------------------------------------------------------- scalar reference

def point_free_interval(p, a, b, eps, tol):
    d = b - a
    w = a - p
    qa = float(d @ d)
    qb = float(d @ w)
    qc = float(w @ w) - eps * eps
    disc = qb * qb - qa * qc
    if disc < 0.0:
        if disc < -tol:
            return kf.EMPTY
        disc = 0.0
    root = math.sqrt(disc)
    lo = (-qb - root) / qa
    hi = (-qb + root) / qa
    if hi < 0.0 or lo > 1.0:
        return kf.EMPTY
    return kf.Interval(max(lo, 0.0), min(hi, 1.0))


def linear_interval(alpha, beta, lo, hi):
    if beta == 0.0:
        return (-math.inf, math.inf) if lo <= alpha <= hi else (math.inf, -math.inf)
    u0 = (lo - alpha) / beta
    u1 = (hi - alpha) / beta
    return (u0, u1) if u0 <= u1 else (u1, u0)


def capsule_slice(a, b, c0, c1, eps, tol):
    pieces = [point_free_interval(c0, a, b, eps, tol), point_free_interval(c1, a, b, eps, tol)]
    d = b - a
    e = c1 - c0
    den = float(e @ e)
    w0 = a - c0
    foot_lo, foot_hi = linear_interval(float(w0 @ e) / den, float(d @ e) / den, 0.0, 1.0)
    norm_e = math.sqrt(den)
    gamma = (e[0] * w0[1] - e[1] * w0[0]) / norm_e
    delta = (e[0] * d[1] - e[1] * d[0]) / norm_e
    perp_lo, perp_hi = linear_interval(gamma, delta, -eps, eps)
    lo = max(foot_lo, perp_lo, 0.0)
    hi = min(foot_hi, perp_hi, 1.0)
    if lo <= hi:
        pieces.append(kf.Interval(lo, hi))
    out = kf.EMPTY
    for piece in pieces:
        out = out.hull(piece)
    return out


def stab_number(components, n, m, tol):
    best = 0
    for axis_len, proj in ((float(n), lambda c: c.proj_p), (float(m), lambda c: c.proj_q)):
        positions = set()
        for c in components:
            iv = proj(c)
            for e in (iv.lo, iv.hi):
                for pos in (e - tol, e, e + tol):
                    if 0.0 <= pos <= axis_len:
                        positions.add(pos)
        for pos in positions:
            count = sum(1 for c in components if proj(c).lo <= pos <= proj(c).hi)
            best = max(best, count)
    return best


class RefCell(NamedTuple):
    """Free space of one cell as the scalar reference computes it, in local [0, 1]."""

    left: kf.Interval
    right: kf.Interval
    bottom: kf.Interval
    top: kf.Interval
    interior_nonempty: bool
    s_projection: kf.Interval
    t_projection: kf.Interval


def reference_diagram(P, Q, eps, tol=TOL):
    """Scalar builder; returns (diagram, cells as nested tuples of RefCell)."""
    n, m = P.n, Q.n
    pseg = [P.segment(i) for i in range(n)]
    qseg = [Q.segment(j) for j in range(m)]
    vert = [[point_free_interval(P.vertices[i], *qseg[j], eps, tol) for j in range(m)]
            for i in range(n + 1)]
    horiz = [[point_free_interval(Q.vertices[j], *pseg[i], eps, tol) for j in range(m + 1)]
             for i in range(n)]
    point0, point1 = kf.Interval(0.0, 0.0), kf.Interval(1.0, 1.0)
    cells = []
    for i in range(n):
        column = []
        for j in range(m):
            s_proj = capsule_slice(*pseg[i], *qseg[j], eps, tol)
            t_proj = capsule_slice(*qseg[j], *pseg[i], eps, tol)
            left, right = vert[i][j], vert[i + 1][j]
            bottom, top = horiz[i][j], horiz[i][j + 1]
            # defensive hulls: the projections must contain every free edge
            if not bottom.is_empty:
                s_proj = s_proj.hull(bottom)
                t_proj = t_proj.hull(point0)  # the fix
            if not top.is_empty:
                s_proj = s_proj.hull(top)
                t_proj = t_proj.hull(point1)  # the fix
            if not left.is_empty:
                s_proj = s_proj.hull(point0)
                t_proj = t_proj.hull(left)
            if not right.is_empty:
                s_proj = s_proj.hull(point1)
                t_proj = t_proj.hull(right)
            column.append(RefCell(
                left=left, right=right, bottom=bottom, top=top,
                interior_nonempty=not s_proj.is_empty,
                s_projection=s_proj, t_projection=t_proj))
        cells.append(tuple(column))

    parent = list(range(n * m))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for i in range(n):
        for j in range(m):
            if i + 1 < n and not vert[i + 1][j].is_empty:
                union(i * m + j, (i + 1) * m + j)
            if j + 1 < m and not horiz[i][j + 1].is_empty:
                union(i * m + j, i * m + j + 1)
    groups = {}
    for i in range(n):
        for j in range(m):
            if cells[i][j].interior_nonempty:
                groups.setdefault(find(i * m + j), []).append((i, j))
    components = []
    for root in sorted(groups):
        proj_p = proj_q = kf.EMPTY
        for (i, j) in groups[root]:
            proj_p = proj_p.hull(cells[i][j].s_projection.shift(float(i)))
            proj_q = proj_q.hull(cells[i][j].t_projection.shift(float(j)))
        components.append(kf.Component(
            id=len(components), cells=frozenset(groups[root]), proj_p=proj_p, proj_q=proj_q))

    def pairs(rows):
        return np.array([[(iv.lo, iv.hi) for iv in row] for row in rows], dtype=float)

    grid = FreeSpaceGrid(
        vert=pairs(vert), horiz=pairs(horiz),
        s_proj=pairs([[c.s_projection for c in col] for col in cells]),
        t_proj=pairs([[c.t_projection for c in col] for col in cells]))
    diagram = kf.FreeSpaceDiagram(epsilon=eps, n=n, m=m, cells=grid,
                                  components=tuple(components),
                                  z=stab_number(components, n, m, tol))
    return diagram, tuple(cells)


def reference_strong_frechet(cells, n, m, tol=TOL):
    """Monotone corner-to-corner reachability over the per-cell views."""
    empty = (1.0, -1.0)

    def clip_from(iv, lo):
        if iv.is_empty or iv.hi < lo:
            return empty
        return (max(iv.lo, lo), iv.hi)

    reach_left = [empty] * m
    first = cells[0][0].left
    if not first.is_empty and first.lo <= tol:
        reach_left[0] = (first.lo, first.hi)
        for j in range(1, m):
            below = reach_left[j - 1]
            edge = cells[0][j].left
            if below[0] <= below[1] and below[1] >= 1.0 - tol and not edge.is_empty and edge.lo <= tol:
                reach_left[j] = (edge.lo, edge.hi)
            else:
                break

    reach_bottom = [empty] * n
    first = cells[0][0].bottom
    if not first.is_empty and first.lo <= tol:
        reach_bottom[0] = (first.lo, first.hi)
        for i in range(1, n):
            left_of = reach_bottom[i - 1]
            edge = cells[i][0].bottom
            if left_of[0] <= left_of[1] and left_of[1] >= 1.0 - tol and not edge.is_empty and edge.lo <= tol:
                reach_bottom[i] = (edge.lo, edge.hi)
            else:
                break

    for i in range(n):
        next_left = [empty] * m
        bottom_in = reach_bottom[i]
        for j in range(m):
            left_in = reach_left[j]
            cell = cells[i][j]
            has_left = left_in[0] <= left_in[1]
            has_bottom = bottom_in[0] <= bottom_in[1]
            if has_bottom:
                out_right = clip_from(cell.right, 0.0)
            elif has_left:
                out_right = clip_from(cell.right, left_in[0])
            else:
                out_right = empty
            if has_left:
                out_top = clip_from(cell.top, 0.0)
            elif has_bottom:
                out_top = clip_from(cell.top, bottom_in[0])
            else:
                out_top = empty
            next_left[j] = out_right
            bottom_in = out_top
        if i == n - 1 and bottom_in[0] <= bottom_in[1] and bottom_in[1] >= 1.0 - tol:
            return True
        reach_left = next_left
    top_right = reach_left[m - 1]
    return top_right[0] <= top_right[1] and top_right[1] >= 1.0 - tol


# ------------------------------------------------------------ seeded cases

def piece_pair(rng, n, pieces):
    """A random walk P and Q = P cut into pieces, shuffled, partly reversed, jittered."""
    steps = rng.normal(0.0, 1.0, size=(n, 2)) + np.array([1.0, 0.0])
    P = np.vstack([np.zeros(2), np.cumsum(steps, axis=0)])
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(pieces, n) - 1, replace=False))
    parts = [P[a:b + 1] for a, b in zip([0, *cuts], [*cuts, n])]
    parts = [parts[k][::-1] if rng.random() < 0.4 else parts[k]
             for k in rng.permutation(len(parts))]
    Q = np.vstack(parts) + rng.normal(0.0, 0.05, size=(sum(len(p) for p in parts), 2))
    return kf.PolyCurve(P), kf.PolyCurve(Q)


def grid_curve(rng, nseg, axis_parallel):
    """Integer-grid vertices: axis-parallel steps, or points along one line."""
    while True:
        if axis_parallel:
            steps = rng.integers(-2, 3, size=nseg)
            along = rng.integers(0, 2, size=nseg)
            verts = np.zeros((nseg + 1, 2))
            verts[1:, 0] = np.cumsum(np.where(along == 0, steps, 0))
            verts[1:, 1] = np.cumsum(np.where(along == 1, steps, 0))
        else:
            t = rng.integers(-3, 4, size=nseg + 1).astype(float)
            verts = np.stack((t, 0.5 * t + 1.0), axis=1)
        try:
            return kf.PolyCurve(verts)
        except kf.CurveError:
            continue


def eps_for(rng, P, Q, mode):
    """A random eps, or one exactly at or just off a distance candidate."""
    if mode == "random":
        return float(rng.uniform(0.02, 1.0) * kf.pairwise_vertex_max(P, Q))
    cands = [c for c in kf.distance_candidates(P, Q) if c > 0.0]
    c = cands[int(rng.integers(len(cands)))]
    offset = {"at": 0.0, "1e-9": 1e-9, "1e-7": 1e-7}[mode]
    return max(0.0, c + offset * (1.0 if rng.random() < 0.5 else -1.0))


MODES = ("random", "at", "1e-9", "1e-7")


def seeded_cases():
    rng = np.random.default_rng(20240611)
    cases = []
    for k in range(1040):
        kind = k % 5
        if kind == 0:
            P, Q = piece_pair(rng, int(rng.integers(4, 11)), int(rng.integers(1, 5)))
        elif kind in (1, 2):
            P = random_curve(rng, int(rng.integers(1, 7)))
            Q = random_curve(rng, int(rng.integers(1, 7)))
        else:
            P = grid_curve(rng, int(rng.integers(1, 6)), axis_parallel=kind == 3)
            Q = grid_curve(rng, int(rng.integers(1, 6)), axis_parallel=kind == 3)
        cases.append((P, Q, eps_for(rng, P, Q, MODES[(k // 5) % len(MODES)])))
    return cases


def blocked_cases():
    """Pairs where monotone reachability dies before the last column: one
    vertex of P, in the middle or the last one (so the top-right corner is
    not free), moved farther than eps from all of Q."""
    rng = np.random.default_rng(20261018)
    cases = []
    for k in range(80):
        P, Q = piece_pair(rng, int(rng.integers(4, 11)), int(rng.integers(1, 5)))
        reach = kf.pairwise_vertex_max(P, Q)
        verts = P.vertices.copy()
        verts[P.n if k % 2 else int(rng.integers(1, P.n)), 1] += 3.0 * reach
        cases.append((kf.PolyCurve(verts), Q, float(rng.uniform(0.2, 1.0) * reach)))
    return cases


BLOCKED = blocked_cases()
CASES = seeded_cases() + BLOCKED


def test_case_mix():
    assert len(CASES) >= 1000
    assert sum(d.components != () for d in (kf.build_diagram(*c) for c in CASES[:100])) >= 50


@pytest.mark.parametrize("chunk", range(8))
def test_build_diagram_equals_reference(chunk):
    for P, Q, eps in CASES[chunk::8]:
        d = kf.build_diagram(P, Q, eps)
        ref, ref_cells = reference_diagram(P, Q, eps)
        assert d == ref and hash(d) == hash(ref)
        for c in d.components:
            ends = (c.proj_p.lo, c.proj_p.hi, c.proj_q.lo, c.proj_q.hi)
            assert all(type(x) is float for x in ends)
        assert kf.decide_strong_frechet(d) == reference_strong_frechet(ref_cells, d.n, d.m)
        assert sweep_z(d.components, d.n, d.m, TOL) == d.z


def test_blocked_cases_have_no_strong_matching():
    assert not any(kf.decide_strong_frechet(kf.build_diagram(*c)) for c in BLOCKED)


def test_no_component_with_one_empty_projection():
    for P, Q, eps in CASES:
        d = kf.build_diagram(P, Q, eps)
        assert all(not (c.proj_p.is_empty or c.proj_q.is_empty) for c in d.components)


def test_sweep_z_matches_pair_count_on_stubs():
    rng = np.random.default_rng(77)
    for _ in range(300):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        comps = []
        for idx in range(int(rng.integers(0, 8))):
            proj = []
            for length in (n, m):
                if rng.random() < 0.15:
                    proj.append(kf.EMPTY)
                    continue
                # endpoints on a coarse grid so ties and tolerance-close ends occur
                lo, hi = sorted(np.round(rng.uniform(0, length, size=2), 1).tolist())
                proj.append(kf.Interval(lo, hi + float(rng.choice([0.0, 0.5e-9, 2e-9]))))
            comps.append(kf.Component(id=idx, cells=frozenset(), proj_p=proj[0], proj_q=proj[1]))
        assert sweep_z(comps, n, m, TOL) == stab_number(comps, n, m, TOL)


# ------------------------------------------------------ prepared curve pair

def reference_minimize_epsilon(P, Q, k, tol, method="bisect"):
    """The eps search with a fresh diagram and ``decide_fpt`` per probe."""
    def feasible(eps):
        return kf.decide_fpt(kf.build_diagram(P, Q, eps), k) is not None

    if feasible(0.0):
        return 0.0
    if method == "candidates":
        cands = kf.distance_candidates(P, Q)
        lo, hi = 0, len(cands) - 1
        if not feasible(cands[hi]):
            raise ValueError("candidate grid missed a feasible eps")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if feasible(cands[mid]):
                hi = mid
            else:
                lo = mid
        return cands[hi]
    lo, hi = 0.0, kf.pairwise_vertex_max(P, Q)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("chunk", range(4))
def test_prepared_pair_equals_reference_at_every_eps(chunk):
    # one prepared pair serves eps random, at and just off the distance candidates
    rng = np.random.default_rng(chunk)
    for P, Q, _ in CASES[chunk::20]:
        geometry = _PairGeometry(P.vertices, Q.vertices)
        for mode in MODES:
            eps = eps_for(rng, P, Q, mode)
            ref, _ = reference_diagram(P, Q, eps)
            assert _as_grid(geometry.solve(eps, TOL)) == ref.cells
            for k in (1, 2, 3, 4):
                expected = kf.decide_fpt(kf.build_diagram(P, Q, eps, TOL), k, TOL) is not None
                assert _cover_exists(geometry, eps, k, TOL) == expected


def _search(P, Q, k, tol, method, search):
    try:
        return search(P, Q, k, tol=tol, method=method)
    except ValueError as err:
        return str(err)


@pytest.mark.parametrize("method", ["bisect", "candidates"])
def test_minimize_epsilon_equals_reference_loop(method):
    rng = np.random.default_rng(4)
    pairs = [piece_pair(rng, int(rng.integers(6, 13)), int(rng.integers(1, 5))) for _ in range(8)]
    pairs += [(random_curve(rng, int(rng.integers(2, 6))), random_curve(rng, int(rng.integers(2, 6))))
              for _ in range(8)]
    pairs.append((pairs[0][0], pairs[0][0]))  # identical curves: feasible at eps 0
    for P, Q in pairs:
        for k in (1, 2, 3, 4):
            for tol in (1e-3, 1e-7):
                got = _search(P, Q, k, tol, method, kf.minimize_epsilon)
                assert got == _search(P, Q, k, tol, method, reference_minimize_epsilon)


def reference_distance_candidates(P, Q):
    """The candidate grid from one scalar call per vertex or segment pair."""
    values = {0.0}
    for u in P.vertices:
        for v in Q.vertices:
            values.add(float(np.linalg.norm(u - v)))
    for u in P.vertices:
        for j in range(Q.n):
            values.add(kf.point_segment_distance(u, *Q.segment(j)))
    for v in Q.vertices:
        for i in range(P.n):
            values.add(kf.point_segment_distance(v, *P.segment(i)))
    for i, j in itertools.product(range(P.n), range(Q.n)):
        values.add(kf.segment_distance(*P.segment(i), *Q.segment(j)))
    return sorted(values)


def test_distance_candidates_equal_reference():
    repeated = 0
    for P, Q, _ in CASES:
        got = kf.distance_candidates(P, Q)
        assert [x.hex() for x in got] == [x.hex() for x in reference_distance_candidates(P, Q)]
        assert all(type(x) is float for x in got)
        repeated += any(len(np.unique(C.vertices, axis=0)) < len(C.vertices) for C in (P, Q))
    assert repeated >= 50  # curves that revisit a vertex


@pytest.mark.parametrize("chunk", range(2))
def test_decisions_are_monotone_in_eps(chunk):
    # the predicted-bracket search infers outcomes from this: feasible at eps
    # stays feasible at every larger eps, also through the critical values
    rng = np.random.default_rng(80 + chunk)
    for P, Q, _ in CASES[chunk::20]:
        geometry = _PairGeometry(P.vertices, Q.vertices)
        cands = np.array([c for c in kf.distance_candidates(P, Q) if c > 0.0])
        picked = rng.choice(cands, size=min(6, len(cands)), replace=False)
        grid = sorted({*rng.uniform(0.0, kf.pairwise_vertex_max(P, Q), size=8).tolist(),
                       *picked.tolist(), *(picked + 1e-9).tolist(), *(picked - 1e-9).tolist()})
        for k in (1, 2, 3, 4):
            outcomes = [_cover_exists(geometry, eps, k, TOL) for eps in grid if eps >= 0.0]
            assert outcomes == sorted(outcomes), (P, Q, k)


def _search_pairs(seed, count):
    rng = np.random.default_rng(seed)
    pairs = [piece_pair(rng, int(rng.integers(6, 13)), int(rng.integers(1, 5))) for _ in range(count)]
    pairs += [(random_curve(rng, int(rng.integers(2, 6))), random_curve(rng, int(rng.integers(2, 6))))
              for _ in range(count)]
    return pairs


def _count_probes(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return _cover_exists(*args, **kwargs)

    monkeypatch.setattr(optimize, "_cover_exists", counted)
    return calls


def test_wrong_predictions_give_the_same_float(monkeypatch):
    rng = np.random.default_rng(5)
    for P, Q in _search_pairs(5, 4):
        top = kf.pairwise_vertex_max(P, Q)
        for k in (1, 2, 3, 4):
            for tol in (1e-4, 1e-7):
                want = reference_minimize_epsilon(P, Q, k, tol)
                for guess in (0.0, top, float(rng.uniform(0.0, top)), want + 1e-3,
                              max(0.0, want - 1e-3)):
                    with monkeypatch.context() as patch:
                        patch.setattr(optimize, "_vertex_bound", lambda *_, g=guess: g)
                        assert kf.minimize_epsilon(P, Q, k, tol=tol) == want, (k, tol, guess)


def test_vertex_bound_answer_takes_two_probes(monkeypatch):
    # parallel unit segments one apart: every vertex is 1 from the other
    # curve, and the answer is the first bisection point at or above 1
    P, Q = kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 1), (1, 1)])
    calls = _count_probes(monkeypatch)
    eps = kf.minimize_epsilon(P, Q, 1, tol=1e-5)
    assert eps == reference_minimize_epsilon(P, Q, 1, 1e-5)
    assert len(calls) == 2


def _plain_probes(P, Q, tol, eps):
    """Probes of plain bisection ending at eps: one per point of its path."""
    path = []
    _bisect(0.0, kf.pairwise_vertex_max(P, Q), tol, lambda x: path.append(x) or x >= eps)
    return len(path)


def test_probes_at_most_plain_bisection_plus_three(monkeypatch):
    calls = _count_probes(monkeypatch)
    searches = [(P, Q, k, tol) for P, Q in _search_pairs(6, 6)
                for k in (1, 2, 3, 4) for tol in (1e-3, 1e-4, 1e-7)]
    searches += [(P, Q, k, 1e-4) for P, Q, _ in CASES[::40] for k in (1, 2, 3)]
    saved = 0
    for P, Q, k, tol in searches:
        calls.clear()
        eps = kf.minimize_epsilon(P, Q, k, tol=tol)
        if eps > 0.0:
            plain = _plain_probes(P, Q, tol, eps)
            assert len(calls) <= plain + 3, (P, Q, k, tol)
            saved += plain - len(calls)
    assert saved > 0


def test_predicted_bracket_hits_and_misses_at_benchmark_tol():
    # the eps-search benchmark's setting: tol 1e-4, k = 2..4, piece pairs;
    # the vertex bound predicts some answers and misses others, and either
    # way the float is the reference's
    rng = np.random.default_rng(7)
    hits = misses = 0
    for _ in range(10):
        P, Q = piece_pair(rng, int(rng.integers(8, 13)), int(rng.integers(1, 7)))
        top = kf.pairwise_vertex_max(P, Q)
        bound = optimize._vertex_bound(*optimize._vertex_segment_distances(P, Q))
        for k in (2, 3, 4):
            eps = kf.minimize_epsilon(P, Q, k, tol=1e-4)
            assert eps == reference_minimize_epsilon(P, Q, k, 1e-4)
            hit = _bisect(0.0, top, 1e-4, bound.__le__)[1] == eps
            hits += hit
            misses += not hit
    assert hits and misses


# ------------------------------------------------------------- warm start

def _grows(small, large):
    """Every free edge and every nonempty cell projection of the solve
    ``small`` lies inside its counterpart in ``large``. The rows hold lo and
    -hi, empty as (inf, inf), so containment is ``<=`` on both rows."""
    return (not (large.empty & ~small.empty).any()
            and (large.edges <= small.edges).all() and (large.proj <= small.proj).all())


@pytest.mark.parametrize("chunk", range(4))
def test_free_space_grows_with_eps_in_floating_point(chunk):
    rng = np.random.default_rng(50 + chunk)
    for P, Q, _ in CASES[chunk::8]:
        geometry = _PairGeometry(P.vertices, Q.vertices)
        cands = [c for c in kf.distance_candidates(P, Q) if c > 0.0]
        c = cands[int(rng.integers(len(cands)))]
        reach = kf.pairwise_vertex_max(P, Q)
        for eps in (float(rng.uniform(0.0, reach)), c, max(0.0, c - 1e-9), c + 1e-9):
            small = geometry.solve(eps, TOL)
            above = float(np.nextafter(eps, math.inf))
            for larger in (above, eps + float(rng.uniform(0.0, reach))):
                assert _grows(small, geometry.solve(larger, TOL)), (eps, larger)


def _warm_probe_matches_cold(geometry, start_eps, eps):
    """Whether labelling at eps from the forest found at start_eps gives the
    cold labelling: the same cells, labels, component ends and roots."""
    forest, cold = np.arange(geometry.n * geometry.m), np.arange(geometry.n * geometry.m)
    _components(geometry.solve(start_eps, TOL), forest)
    got = _components(geometry.solve(eps, TOL), forest)
    want = _components(geometry.solve(eps, TOL), cold)
    return all(np.array_equal(a, b) for a, b in zip(got, want)) and np.array_equal(forest, cold)


def _probe_eps(rng, eps):
    """eps and a smaller eps: 0, the float just below, or a random one."""
    smaller = rng.choice([0.0, float(np.nextafter(eps, 0.0)), float(rng.uniform(0.0, eps))])
    return float(smaller), eps


@pytest.mark.parametrize("chunk", range(4))
def test_warm_started_probe_equals_cold_probe(chunk):
    rng = np.random.default_rng(60 + chunk)
    for P, Q, eps in CASES[chunk::4]:
        geometry = _PairGeometry(P.vertices, Q.vertices)
        assert _warm_probe_matches_cold(geometry, *_probe_eps(rng, eps))


def test_warm_start_from_a_larger_eps_is_caught():
    # the check above must notice a forest of a larger eps: its cells are
    # joined where the probed eps leaves them apart
    rng = np.random.default_rng(70)
    caught = 0
    for P, Q, eps in CASES[::4]:
        geometry = _PairGeometry(P.vertices, Q.vertices)
        smaller, eps = _probe_eps(rng, eps)
        try:
            caught += not _warm_probe_matches_cold(geometry, eps, smaller)
        except IndexError:  # a root among the empty cells
            caught += 1
    assert caught >= 100
