"""SVG rendering of free space diagrams.

Fixed 1000x1000 canvas with the diagram scaled to fit: grid lines per
cell, one colored <g> per component with the free region of each member
cell drawn as a convex polygon, selected components outlined, axis ticks
labelled with parameter values. A <metadata> element carries machine
readable facts (component count etc.) for downstream checks.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

import numpy as np

from .freespace import FreeSpaceDiagram, _picked

CANVAS = 1000.0
MARGIN_LEFT = 70.0
MARGIN_BOTTOM = 60.0
MARGIN_TOP = 25.0
MARGIN_RIGHT = 25.0

PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b",
    "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#aec7e8", "#ffbb78",
)

_SQUARE = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
ELLIPSE_SAMPLES = 48  # vertices of the polygon inscribed in a cell's free ellipse


def _clip_halfplane(pts, a: float, b: float, c: float):
    """Sutherland-Hodgman step: keep a*x + b*y <= c."""
    if not pts:
        return []
    out = []
    for i in range(len(pts)):
        p, q = pts[i - 1], pts[i]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fq <= 0.0:
            if fp > 0.0:
                out.append(_edge_point(p, q, fp, fq))
            out.append(q)
        elif fp <= 0.0:
            out.append(_edge_point(p, q, fp, fq))
    return out


def _edge_point(p, q, fp, fq):
    s = fp / (fp - fq)
    return (p[0] + s * (q[0] - p[0]), p[1] + s * (q[1] - p[1]))


def _clip_to_square(pts):
    for a, b, c in ((-1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, -1.0, 0.0), (0.0, 1.0, 1.0)):
        pts = _clip_halfplane(pts, a, b, c)
    return pts


def cell_region_shape(seg_p, seg_q, eps: float):
    """Convex shape of one cell's free region, in local coordinates.

    Returns ("polygon", pts), ("segment", (a, b)) or ("point", p) for a
    proper region, a degenerate tangency line, or a single tangency
    point; None when the cell is blocked. Ellipse boundaries are sampled
    (inscribed polygon of :data:`ELLIPSE_SAMPLES` vertices); nearly parallel
    segments degenerate to a strip and are clipped exactly. Display quality
    only; decisions never use this.
    """
    pa, pb = (np.asarray(v, dtype=float) for v in seg_p)
    qa, qb = (np.asarray(v, dtype=float) for v in seg_q)
    u = pb - pa
    v = qb - qa
    w0 = pa - qa
    a00 = float(u @ u)
    a11 = float(v @ v)
    a01 = -float(u @ v)
    b0 = float(u @ w0)
    b1 = -float(v @ w0)
    c = float(w0 @ w0) - eps * eps
    det = a00 * a11 - a01 * a01

    if det > 1e-12 * a00 * a11:
        cx = (-b0 * a11 + b1 * a01) / det
        cy = (-a00 * b1 + a01 * b0) / det
        val = c + b0 * cx + b1 * cy
        if val > 1e-15:
            return None
        if val > -1e-15:
            if 0.0 <= cx <= 1.0 and 0.0 <= cy <= 1.0:
                return ("point", (cx, cy))
            return None
        r = math.sqrt(-val)
        evals, evecs = np.linalg.eigh(np.array([[a00, a01], [a01, a11]]))
        theta = np.linspace(0.0, 2.0 * math.pi, ELLIPSE_SAMPLES, endpoint=False)
        circle = np.stack([np.cos(theta) / math.sqrt(evals[0]),
                           np.sin(theta) / math.sqrt(evals[1])])
        pts = (np.array([cx, cy])[:, None] + r * (evecs @ circle)).T
        poly = _clip_to_square([tuple(p) for p in pts])
    else:
        lam = float(u @ v) / a00
        norm_u = math.sqrt(a00)
        unit = u / norm_u
        perp = float(w0[0] * -unit[1] + w0[1] * unit[0])
        under = eps * eps - perp * perp
        if under < 0.0:
            return None
        half = math.sqrt(under)
        along = float(w0 @ unit)
        mu_lo = (-half - along) / norm_u
        mu_hi = (half - along) / norm_u
        poly = list(_SQUARE)
        poly = _clip_halfplane(poly, 1.0, -lam, mu_hi)
        poly = _clip_halfplane(poly, -1.0, lam, -mu_lo)

    deduped = []
    for p in poly:
        if not deduped or math.hypot(p[0] - deduped[-1][0], p[1] - deduped[-1][1]) > 1e-9:
            deduped.append(p)
    if len(deduped) > 1 and math.hypot(deduped[0][0] - deduped[-1][0],
                                       deduped[0][1] - deduped[-1][1]) <= 1e-9:
        deduped.pop()
    if not deduped:
        return None
    if len(deduped) == 1:
        return ("point", deduped[0])
    area = 0.0
    for i in range(len(deduped)):
        x0, y0 = deduped[i - 1]
        x1, y1 = deduped[i]
        area += x0 * y1 - x1 * y0
    if len(deduped) >= 3 and abs(area) > 1e-9:
        return ("polygon", deduped)
    far = max(
        ((p, q) for p in deduped for q in deduped),
        key=lambda pq: (pq[0][0] - pq[1][0]) ** 2 + (pq[0][1] - pq[1][1]) ** 2,
    )
    return ("segment", far)


def render_diagram_svg(diagram: FreeSpaceDiagram, P=None, Q=None,
                       selected: Iterable[int] | None = None) -> str:
    """Render the diagram to an SVG document string.

    ``P``/``Q`` are the source curves; they are required to draw the free
    regions (cell geometry is not stored in the diagram). Without them
    only grid, projections metadata and axes are emitted. A given curve
    whose segment count is not the diagram's (n for P, m for Q) raises
    ``ValueError``. ``selected`` holds the ids of the components to
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

    if P is not None and Q is not None:
        for comp in diagram.components:
            color = PALETTE[comp.id % len(PALETTE)]
            sel = comp.id in selected_ids
            style = f'fill="{color}" fill-opacity="0.75"'
            if sel:
                style += ' stroke="#000000" stroke-width="3"'
            parts.append(f'<g class="component{" selected" if sel else ""}" '
                         f'id="component-{comp.id}" {style}>')
            for (i, j) in sorted(comp.cells):
                shape = cell_region_shape(P.segment(i), Q.segment(j), diagram.epsilon)
                if shape is None:
                    continue
                kind, geom = shape
                if kind == "polygon":
                    pix = [to_px(i + s, j + t) for s, t in geom]
                    d = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in pix) + " Z"
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
