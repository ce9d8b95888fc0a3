"""SVG rendering of free space diagrams.

Fixed 1000x1000 canvas with the diagram scaled to fit: grid lines per
cell, one colored <g> per component with the free region of each member
cell drawn as a convex polygon, selected components outlined, axis ticks
labelled with parameter values. A <metadata> element carries machine
readable facts (component count etc.) for downstream checks.

Each cell is sliced at fixed s across the diagram's own s projection of
it, and the slices' free t-ranges make the polygon, so every member cell
draws (as a point or segment when thinner than the tolerance). A diagram
without cell geometry (``cells=()``), or without its curves, draws the
grid, axes and metadata only.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Iterable

import numpy as np

from .config import default_tol
from .freespace import FreeSpaceDiagram, FreeSpaceGrid, _picked

CANVAS = 1000.0
MARGIN_LEFT = 70.0
MARGIN_BOTTOM = 60.0
MARGIN_TOP = 25.0
MARGIN_RIGHT = 25.0

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)

SLICES = 24  # evenly spaced s values at which each cell's free region is sliced


def _cell_shapes(diagram: FreeSpaceDiagram, P, Q) -> dict:
    """Each member cell's free region by (i, j), in local [0, 1]²; none without cell geometry.

    A cell is sliced at fixed s across its own ``s_proj``: :data:`SLICES` even
    steps and the ends of its bottom and top edge intervals, so the corners are
    exact. A slice's free t-range is ``|v - t*dq| <= eps``, ``v = w + s*dp``,
    clipped to [0, 1], its root from ``|dq|²eps² - (v × dq)²``: exactly 0 where
    the segments are parallel at distance eps. The ``("polygon", pts)`` is the
    lower chain and then the reversed upper one. A region no wider in s than the
    tolerance is a ``("point", p)`` or a vertical ``("segment", (a, b))``; one
    whose every slice is no wider is the segment through the slices.
    """
    cells = sorted(c for comp in diagram.components for c in comp.cells)
    if not cells or not isinstance(diagram.cells, FreeSpaceGrid):
        return {}
    ii, jj = np.array(cells).T
    grid = diagram.cells
    lo, hi = (end[:, None] for end in grid.s_proj[ii, jj].T)
    step = np.linspace(0.0, 1.0, SLICES)
    s = np.concatenate((lo * (1.0 - step) + hi * step,  # exactly lo and hi at the ends
                        grid.horiz[ii, jj], grid.horiz[ii, jj + 1]), axis=1)
    s = np.sort(np.clip(s, lo, hi), axis=1)  # an empty edge interval (inf, -inf) clips to the ends

    pv, qv = P.vertices, Q.vertices
    dp, dq = (pv[ii + 1] - pv[ii])[:, None], (qv[jj + 1] - qv[jj])[:, None]
    v = (pv[ii] - qv[jj])[:, None] + s[..., None] * dp
    cross = v[..., 0] * dq[..., 1] - v[..., 1] * dq[..., 0]
    along = v[..., 0] * dq[..., 0] + v[..., 1] * dq[..., 1]
    lq = dq[..., 0] ** 2 + dq[..., 1] ** 2
    eps = diagram.epsilon
    root = np.sqrt(np.maximum(lq * eps * eps - cross * cross, 0.0))
    t_lo = np.clip((along - root) / lq, 0.0, 1.0)
    t_hi = np.clip((along + root) / lq, 0.0, 1.0)

    tol = default_tol()
    shapes = {}
    for cell, sk, a, b, keep_a, keep_b in zip(cells, s, t_lo, t_hi, _bends(t_lo), _bends(t_hi)):
        if sk[-1] - sk[0] <= tol:  # a point or a vertical segment
            bottom, top = a.min(), b.max()
            shapes[cell] = (("point", (sk[0], bottom)) if top - bottom <= tol
                            else ("segment", ((sk[0], bottom), (sk[0], top))))
        elif (b - a).max() <= tol:
            shapes[cell] = ("segment", ((sk[0], (a[0] + b[0]) / 2), (sk[-1], (a[-1] + b[-1]) / 2)))
        else:
            shapes[cell] = ("polygon", list(zip(
                np.concatenate((sk[keep_a], sk[keep_b][::-1])).tolist(),
                np.concatenate((a[keep_a], b[keep_b][::-1])).tolist())))
    return shapes


def _bends(t: np.ndarray) -> np.ndarray:
    """Per chain, the slices that are not inside a run of equal t (where the
    chain follows the square's bottom or top edge): the others add no vertex."""
    keep = np.ones(t.shape, dtype=bool)
    keep[:, 1:-1] = (t[:, 1:-1] != t[:, :-2]) | (t[:, 1:-1] != t[:, 2:])
    return keep


def render_diagram_svg(diagram: FreeSpaceDiagram, P=None, Q=None,
                       selected: Iterable[int] | None = None) -> str:
    """Render the diagram to an SVG document string.

    ``P``/``Q`` are the source curves; each member cell's free region is
    drawn from them and the diagram's own cell projections (see
    :func:`_cell_shapes`). Without them, or for a diagram without cell
    geometry (``cells=()``), only grid, metadata and axes are emitted. A
    given curve whose segment count is not the diagram's (n for P, m for
    Q) raises ``ValueError``. ``selected`` holds the ids of the components to
    outline; an id the diagram does not have raises ``KeyError``, as in
    :func:`~kfrechet.decide.covers_both`.
    """
    n, m = diagram.n, diagram.m
    if (P is not None and P.n != n) or (Q is not None and Q.n != m):
        raise ValueError(f"the curves must have the diagram's segment counts, "
                         f"n = {n} for P and m = {m} for Q")
    scale = min((CANVAS - MARGIN_LEFT - MARGIN_RIGHT) / n,
                (CANVAS - MARGIN_TOP - MARGIN_BOTTOM) / m)
    x0 = MARGIN_LEFT
    y0 = CANVAS - MARGIN_BOTTOM

    def to_px(s: float, t: float) -> tuple[float, float]:
        return (x0 + s * scale, y0 - t * scale)

    selected_ids = {c.id for c in _picked(diagram, () if selected is None else selected)}
    meta = {
        "components": len(diagram.components),
        "epsilon": diagram.epsilon,
        "n": n,
        "m": m,
        "z": diagram.z,
        "selected": sorted(selected_ids),
    }

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {CANVAS:g} {CANVAS:g}" '
        f'width="{CANVAS:g}" height="{CANVAS:g}">',
        f'<metadata id="kfrechet-meta">{json.dumps(meta, sort_keys=True)}</metadata>',
        f'<rect x="0" y="0" width="{CANVAS:g}" height="{CANVAS:g}" fill="white"/>',
    ]

    shapes = {} if P is None or Q is None else _cell_shapes(diagram, P, Q)
    for comp in diagram.components if shapes else ():
        color = PALETTE[comp.id % len(PALETTE)]
        sel = comp.id in selected_ids
        style = f'fill="{color}" fill-opacity="0.75"'
        if sel:
            style += ' stroke="#000000" stroke-width="3"'
        parts.append(f'<g class="component{" selected" if sel else ""}" '
                     f'id="component-{comp.id}" {style}>')
        for (i, j) in sorted(comp.cells):
            kind, geom = shapes[i, j]
            if kind == "polygon":
                pix = (f"{x:.2f} {y:.2f}" for x, y in (to_px(i + s, j + t) for s, t in geom))
                d = "M " + " L ".join(p for p, _ in itertools.groupby(pix)) + " Z"
                parts.append(f'<path d="{d}"/>')
            elif kind == "segment":
                (xa, ya), (xb, yb) = (to_px(i + s, j + t) for s, t in geom)
                parts.append(f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" '
                             f'y2="{yb:.2f}" stroke="{color}" stroke-width="2.5"/>')
            else:
                x, y = to_px(i + geom[0], j + geom[1])
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.5"/>')
        parts.append("</g>")

    grid = ['<g class="grid" stroke="#999999" stroke-width="1" fill="none">']
    for i in range(n + 1):
        xa, ya = to_px(i, 0)
        xb, yb = to_px(i, m)
        grid.append(f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}"/>')
    for j in range(m + 1):
        xa, ya = to_px(0, j)
        xb, yb = to_px(n, j)
        grid.append(f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}"/>')
    grid.append("</g>")
    parts.extend(grid)

    labels = ['<g class="axis-labels" font-family="monospace" font-size="16" fill="#000000">']
    step_s = max(1, math.ceil(n / 20))
    step_t = max(1, math.ceil(m / 20))
    for i in range(0, n + 1, step_s):
        x, y = to_px(i, 0)
        labels.append(f'<text x="{x:.2f}" y="{y + 24:.2f}" text-anchor="middle">{i}</text>')
    for j in range(0, m + 1, step_t):
        x, y = to_px(0, j)
        labels.append(f'<text x="{x - 10:.2f}" y="{y + 5:.2f}" text-anchor="end">{j}</text>')
    xlab, ylab = to_px(n / 2, 0)
    labels.append(f'<text x="{xlab:.2f}" y="{ylab + 48:.2f}" text-anchor="middle">s (curve P)</text>')
    labels.append(f'<text x="16" y="{to_px(0, m / 2)[1]:.2f}" text-anchor="middle" '
                  f'transform="rotate(-90 16 {to_px(0, m / 2)[1]:.2f})">t (curve Q)</text>')
    labels.append("</g>")
    parts.extend(labels)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
