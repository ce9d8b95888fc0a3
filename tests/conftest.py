"""Shared fixtures: random curve generators, stub diagrams, subset oracles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import kfrechet as kf
from kfrechet import oracles
from kfrechet.freespace import _stab_number


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def random_curve(rng, nseg: int, scale: float = 1.0) -> kf.PolyCurve:
    while True:
        verts = rng.uniform(0.0, scale, size=(nseg + 1, 2))
        try:
            return kf.PolyCurve(verts)
        except kf.CurveError:
            continue


def random_pair(rng, max_seg: int = 6):
    P = random_curve(rng, int(rng.integers(2, max_seg + 1)))
    Q = random_curve(rng, int(rng.integers(2, max_seg + 1)))
    return P, Q


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


def touched_sides(comp, n: int, m: int, tol: float = 1e-9) -> str:
    """The diagram boundaries a component's projections reach, as letters of "LRBT"."""
    flags = (comp.proj_p.lo <= tol, comp.proj_p.hi >= n - tol,
             comp.proj_q.lo <= tol, comp.proj_q.hi >= m - tol)
    return "".join(side for side, on in zip("LRBT", flags) if on)


def sweep_z(components, n: int, m: int, tol: float | None = None) -> int:
    """The diagram's stabbing number ``z``, by its own sweep, from component projections."""
    ends = np.array([(c.proj_p.lo, c.proj_p.hi, c.proj_q.lo, c.proj_q.hi) for c in components],
                    dtype=float).reshape(-1, 4)
    return _stab_number(ends.T, n, m, kf.default_tol() if tol is None else tol)


def stub_diagram(n: int, m: int, projections) -> kf.FreeSpaceDiagram:
    """Diagram with hand-set component projections (no cell geometry).

    ``projections`` is a list of ((plo, phi), (qlo, qhi)) pairs. Only
    usable with operations that work off component projections.
    """
    comps = tuple(
        kf.Component(id=idx, cells=frozenset(), proj_p=kf.Interval(float(plo), float(phi)),
                     proj_q=kf.Interval(float(qlo), float(qhi)))
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
