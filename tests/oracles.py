"""Brute-force and sampling oracles: the test references of the library.

Slow, independent reference implementations used to validate the
geometric code paths: a pixel-grid free space, an exhaustive minimum
interval cover, a sampled Hausdorff distance, and the subset brute force
that checks :func:`kfrechet.decide.decide_fpt`. They live with the tests
and are not part of the installed package. They need scipy, which the
runtime install leaves out: install the ``test`` extra
(``pip install -e ".[test]"``). The test files import this module as
``import oracles``.

The curve and interval helpers below (:func:`points_at`,
:func:`max_segment_length`, :func:`contains_interval`) are computed here
because no runtime code needs them. Intervals are (lo, hi) pairs, and one
with lo > hi, such as (inf, -inf), is empty.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

from kfrechet.config import _budget
from kfrechet.curves import PolyCurve
from kfrechet.decide import covers_both, decide_hausdorff
from kfrechet.freespace import FreeSpaceDiagram


def points_at(curve: PolyCurve, s) -> np.ndarray:
    """The points of ``curve`` at parameters ``s`` in ``[0, n]``; one outside raises."""
    s = np.asarray(s, dtype=float)
    if s.size and (s.min() < 0.0 or s.max() > curve.n):
        raise ValueError("parameters outside [0, n]")
    idx = np.minimum(np.floor(s).astype(int), curve.n - 1)
    frac = (s - idx)[:, None]
    a = curve.vertices[idx]
    b = curve.vertices[idx + 1]
    return a + frac * (b - a)


def max_segment_length(curve: PolyCurve) -> float:
    return float(np.linalg.norm(np.diff(curve.vertices, axis=0), axis=1).max())


def contains_interval(outer, inner) -> bool:
    """Exact (tolerance-free) containment of (lo, hi) pairs; empty is contained
    in anything."""
    (olo, ohi), (ilo, ihi) = outer, inner
    if ilo > ihi:
        return True
    return olo <= ohi and olo <= ilo and ihi <= ohi


@dataclass(frozen=True)
class PixelComponent:
    label: int
    s_min: float
    s_max: float
    t_min: float
    t_max: float


@dataclass(frozen=True)
class PixelFreeSpace:
    """Sampled free-space predicate on a res x res parameter grid.

    ``mask[i, j]`` is True when the curve points at (s_values[i],
    t_values[j]) are within eps. Components are 4-connected pixel groups.
    """

    eps: float
    res: int
    s_values: np.ndarray
    t_values: np.ndarray
    mask: np.ndarray
    labels: np.ndarray
    components: tuple

    @property
    def component_count(self) -> int:
        return len(self.components)

    def covers_p(self) -> bool:
        return bool(self.mask.any(axis=1).all())

    def covers_q(self) -> bool:
        return bool(self.mask.any(axis=0).all())

    def covers_both(self) -> bool:
        return self.covers_p() and self.covers_q()

    def weak_ok(self) -> bool:
        """Some single pixel component spans the full s and t index range."""
        res = self.res
        for comp in self.components:
            rows = np.flatnonzero((self.labels == comp.label).any(axis=1))
            cols = np.flatnonzero((self.labels == comp.label).any(axis=0))
            if len(rows) and rows[0] == 0 and rows[-1] == res - 1 \
                    and len(cols) and cols[0] == 0 and cols[-1] == res - 1:
                return True
        return False


_FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])


def pixel_freespace(P: PolyCurve, Q: PolyCurve, eps: float, res: int = 256) -> PixelFreeSpace:
    """Rasterised free space of P and Q at eps.

    Only trustworthy when eps sits at least :func:`pixel_margin` away
    from critical values: free regions thinner than a pixel (tangencies)
    fall apart under 4-connected labelling.
    """
    if res < 16:
        raise ValueError("res must be >= 16")
    if eps < 0.0:
        raise ValueError("eps must be >= 0")
    s = np.linspace(0.0, P.n, res)
    t = np.linspace(0.0, Q.n, res)
    mask = cdist(points_at(P, s), points_at(Q, t)) <= eps
    labels, count = ndimage.label(mask, structure=_FOUR_CONNECTED)
    components = []
    for lab in range(1, count + 1):
        rows, cols = np.nonzero(labels == lab)
        components.append(PixelComponent(
            label=lab,
            s_min=float(s[rows.min()]), s_max=float(s[rows.max()]),
            t_min=float(t[cols.min()]), t_max=float(t[cols.max()]),
        ))
    return PixelFreeSpace(eps=eps, res=res, s_values=s, t_values=t,
                          mask=mask, labels=labels, components=tuple(components))


def pixel_margin(P: PolyCurve, Q: PolyCurve, res: int) -> float:
    """Eps separation from critical values needed to trust the raster.

    Ten grid steps' worth of distance-field variation: the free/blocked
    status of a whole region cannot flip inside that band without the
    raster noticing.
    """
    lip_p = max_segment_length(P) * P.n
    lip_q = max_segment_length(Q) * Q.n
    return 10.0 * max(lip_p, lip_q) / res


def exhaustive_min_cover(intervals, target, gap_tol: float = 0.0):
    """Minimum number of the given intervals needed to cover ``target``.

    Checks all subsets by increasing size, with its own sweep (kept
    independent of the production interval code on purpose). Takes (lo, hi)
    pairs; returns None when even the full set leaves a gap wider than
    ``gap_tol``.
    """
    spans = [(float(lo), float(hi)) for lo, hi in intervals if lo <= hi]
    if len(spans) > 20:
        raise ValueError(f"too many intervals for exhaustive search: {len(spans)} > 20")
    tlo, thi = (float(x) for x in target)

    def covered(chosen) -> bool:
        if thi == tlo:
            return any(lo <= tlo <= hi for lo, hi in chosen)
        reach = tlo
        for lo, hi in sorted(chosen):
            if lo > reach + gap_tol:
                return False
            reach = max(reach, hi)
            if reach >= thi - gap_tol:
                return True
        return reach >= thi - gap_tol

    for size in range(len(spans) + 1):
        for combo in itertools.combinations(spans, size):
            if covered(combo):
                return size
    return None


def _points_to_curve_distance(points: np.ndarray, curve: PolyCurve) -> np.ndarray:
    """Exact distance from each sample point to the whole polygonal curve."""
    best = np.full(len(points), np.inf)
    for i in range(curve.n):
        a, b = curve.vertices[i], curve.vertices[i + 1]
        d = b - a
        den = float(d @ d)
        u = np.clip(((points - a) @ d) / den, 0.0, 1.0)
        feet = a + u[:, None] * d
        best = np.minimum(best, np.linalg.norm(points - feet, axis=1))
    return best


def sampled_hausdorff(P: PolyCurve, Q: PolyCurve, samples: int = 1000) -> float:
    """Symmetric Hausdorff distance from uniform parameter samples.

    The outer max runs over sampled points, the inner min is the exact
    point-to-segment distance, so the result underestimates the true
    value by at most :func:`sampled_hausdorff_bound`.
    """
    if samples < 100:
        raise ValueError("samples must be >= 100")
    pts_p = points_at(P, np.linspace(0.0, P.n, samples))
    pts_q = points_at(Q, np.linspace(0.0, Q.n, samples))
    d_pq = _points_to_curve_distance(pts_p, Q).max()
    d_qp = _points_to_curve_distance(pts_q, P).max()
    return float(max(d_pq, d_qp))


def sampled_hausdorff_bound(P: PolyCurve, Q: PolyCurve, samples: int) -> float:
    """Worst-case sampling error of :func:`sampled_hausdorff`.

    Between two adjacent samples the distance-to-other-curve function
    moves by at most the segment length times the parameter step, and the
    true maximum sits at most half a step from a sample.
    """
    step_p = P.n / (samples - 1)
    step_q = Q.n / (samples - 1)
    return max(max_segment_length(P) * step_p, max_segment_length(Q) * step_q) / 2.0


@dataclass(frozen=True)
class Preprocessed:
    """Result of :func:`preprocess`.

    ``necessary``: components without which the rest fail to cover both
    axes while all do; every covering selection contains them.
    ``kept``: ids that survive redundancy pruning. ``dropped``: ids whose
    projection bounding box fits inside another component's box.
    """

    necessary: tuple
    kept: tuple
    dropped: tuple


def preprocess(diagram: FreeSpaceDiagram) -> Preprocessed:
    """Identify necessary components and prune redundant ones.

    A component is redundant when its proj_p x proj_q bounding box is
    contained in a single other component's box (ties on identical boxes
    keep the smaller id, so mutually-contained components are never both
    dropped). Necessary and redundant sets are disjoint.
    """
    comps = diagram.components
    covered = decide_hausdorff(diagram)
    necessary = tuple(c.id for c in comps if covered and not covers_both(
        diagram, [other.id for other in comps if other is not c]))

    dropped = []
    for b in comps:
        for a in comps:
            if a.id == b.id:
                continue
            if contains_interval(a.proj_p, b.proj_p) and contains_interval(a.proj_q, b.proj_q):
                same_box = a.proj_p == b.proj_p and a.proj_q == b.proj_q
                if same_box and a.id > b.id:
                    continue
                dropped.append(b.id)
                break
    kept = tuple(c.id for c in comps if c.id not in set(dropped))
    return Preprocessed(necessary=necessary, kept=kept, dropped=tuple(dropped))


def decide_bruteforce(diagram: FreeSpaceDiagram, k: int,
                      use_preprocess: bool = True) -> tuple | None:
    """Search all selections of size <= k for one covering both axes.

    The necessary components are seeded into every candidate and the
    remaining slots run through the non-redundant ids in lexicographic
    order; the first covering selection is returned.
    """
    k = _budget(k)
    if not decide_hausdorff(diagram):
        return None
    if use_preprocess:
        pre = preprocess(diagram)
        base = pre.necessary
        pool = [cid for cid in pre.kept if cid not in base]
    else:
        base = ()
        pool = range(len(diagram.components))
    if len(base) > k:
        return None
    for extra_count in range(k - len(base) + 1):
        for extra in itertools.combinations(pool, extra_count):
            candidate = tuple(sorted((*base, *extra)))
            if covers_both(diagram, candidate):
                return candidate
    return None
