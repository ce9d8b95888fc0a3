"""Seeded input generators for the benchmark workloads.

Every generator draws from a ``numpy.random.Generator`` derived from the
workload seed and returns plain text (curve files, DIMACS CNF) plus the
few numbers a query needs, so the program under test only ever sees its
inputs through its public parsers. The same seed gives byte-identical
text.

Input properties that the cost of a query depends on (curve length,
number of pieces, clause count, satisfiability) are drawn in shuffled
blocks: every block holds each value once, so two seeds run the same
mix of sizes and differ only in the shapes.
"""

from __future__ import annotations

import numpy as np

JITTER = 0.05  # standard deviation of the noise added to Q's vertices


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (workload seed, input stream); any integer seed works."""
    return np.random.default_rng([seed % 2**64, stream])


def blocks(rng: np.random.Generator, values, count: int) -> list:
    """``count`` draws where each consecutive block is a permutation of ``values``."""
    values = list(values)
    out: list = []
    while len(out) < count:
        out.extend(values[i] for i in rng.permutation(len(values)))
    return out[:count]


def track(rng: np.random.Generator, n: int) -> tuple[np.ndarray, list[int]]:
    """A trajectory of ``n`` segments: a baseline along x with excursions.

    Each excursion leaves the baseline, wanders 0.6..2 units to one side
    and returns next to its starting point, so a straight jump between
    two baseline vertices stays close to the curve. Returns the vertex
    array and the indices of the baseline vertices (the cut points).
    """
    pts = [(0.0, 0.0)]
    base = [0]
    x = 0.0
    after_excursion = True
    while len(pts) - 1 < n:
        left = n - (len(pts) - 1)
        if left >= 3 and not after_excursion and rng.random() < 0.5:
            steps = int(min(left, rng.integers(2, 6)))
            side = 1.0 if rng.random() < 0.5 else -1.0
            width = rng.uniform(0.5, 1.0)
            for t in range(1, steps):
                u = t / steps
                pts.append((x + (u - 0.5) * width + rng.normal(0.0, 0.1),
                            side * rng.uniform(0.6, 2.0)))
            x += rng.uniform(0.0, 0.1)
            after_excursion = True
        else:
            x += rng.uniform(1.0, 2.0)
            after_excursion = False
        pts.append((x, 0.0))
        base.append(len(pts) - 1)
    return np.array(pts), base


def piece_pair(rng: np.random.Generator, n: int, pieces: int) -> tuple[np.ndarray, np.ndarray]:
    """Curve P with ``n`` segments and Q made of P's pieces.

    P is cut at up to ``pieces - 1`` baseline vertices; the pieces are
    permuted, each reversed with probability 1/2, concatenated and every
    vertex jittered.
    """
    P, base = track(rng, n)
    inner = [b for b in base if 0 < b < n]
    pieces = min(pieces, len(inner) + 1)
    cuts = sorted(rng.choice(inner, size=pieces - 1, replace=False)) if pieces > 1 else []
    bounds = [0, *cuts, n]
    parts = [P[a:b + 1] for a, b in zip(bounds, bounds[1:])]
    out: list = []
    for idx in rng.permutation(len(parts)):
        part = parts[idx][::-1] if rng.random() < 0.5 else parts[idx]
        if out and np.array_equal(out[-1], part[0]):
            part = part[1:]
        out.extend(part)
    Q = np.array(out) + rng.normal(0.0, JITTER, size=(len(out), 2))
    return P, Q


def curve_text(vertices: np.ndarray) -> str:
    """Plain-text curve file: one ``x y`` line per vertex, six decimals."""
    return "".join(f"{x:.6f} {y:.6f}\n" for x, y in vertices)


def random_cnfs(rng: np.random.Generator, num_vars: int, clause_counts,
                satisfiable) -> list[str]:
    """DIMACS texts of random formulas, one per (clause count, satisfiable) slot.

    Clauses have 1..3 distinct variables (sizes drawn 20/30/50%) with
    random signs. Candidates are drawn in batches and assigned, in order,
    to the slots that ask for their clause count and satisfiability.
    """
    literal_masks = np.zeros((num_vars + 1, 2), dtype=np.int64)
    for v in range(1, num_vars + 1):
        for a in range(1 << num_vars):
            literal_masks[v, (a >> (v - 1)) & 1] |= 1 << a  # column 1: v true
    wanted: dict[tuple[int, bool], list[int]] = {}
    for slot, key in enumerate(zip(clause_counts, satisfiable)):
        wanted.setdefault((int(key[0]), bool(key[1])), []).append(slot)
    out: list = [None] * len(clause_counts)
    for (m, sat), slots in sorted(wanted.items()):
        filled = 0
        while filled < len(slots):
            batch = 4096
            sizes = rng.choice([1, 2, 3], size=(batch, m), p=[0.2, 0.3, 0.5])
            variables = np.argsort(rng.random((batch, m, num_vars)), axis=2)[:, :, :3] + 1
            positive = rng.random((batch, m, 3)) < 0.5
            masks = literal_masks[variables, positive.astype(int)]
            masks[np.arange(3)[None, None, :] >= sizes[:, :, None]] = 0
            models = np.bitwise_and.reduce(np.bitwise_or.reduce(masks, axis=2), axis=1)
            for b in np.flatnonzero((models != 0) == sat)[:len(slots) - filled]:
                lines = [f"p cnf {num_vars} {m}"]
                for c in range(m):
                    lits = [int(v) if pos else -int(v)
                            for v, pos in zip(variables[b, c, :sizes[b, c]], positive[b, c])]
                    lines.append(" ".join(map(str, lits)) + " 0")
                out[slots[filled]] = "\n".join(lines) + "\n"
                filled += 1
    return out
