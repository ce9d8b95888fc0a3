#!/usr/bin/env python3
"""Per-axis minimum covers and the factor-2 budget approximation.

The cover of each axis is optimal on its own axis; combining the two
covers can at worst double the joint optimum because each axis cover is
already a lower bound. The experiment below measures how loose the
approximation actually is on random instances: the answer is "rarely
loose at all".
"""

import itertools

import numpy as np

import kfrechet as kf


def exhaustive_opt(d):
    ids = [c.id for c in d.components]
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            if kf.covers_both(d, combo):
                return size
    return None


def random_curve(rng, nseg):
    while True:
        try:
            return kf.PolyCurve(rng.uniform(0, 1, size=(nseg + 1, 2)))
        except kf.CurveError:
            continue


def main():
    d = kf.build_diagram(kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 1), (1, 1)]), 1.0)
    print("warm-up, parallel unit segments at eps = 1:")
    print(f"  approximate_k -> {kf.approximate_k(d)} (optimal here)\n")

    rng = np.random.default_rng(42)
    ratios = []
    worst = None
    trials = 0
    while trials < 150:
        P = random_curve(rng, int(rng.integers(2, 7)))
        Q = random_curve(rng, int(rng.integers(2, 7)))
        d = kf.build_diagram(P, Q, float(rng.uniform(0.2, 0.9)))
        if not 2 <= len(d.components) <= 9:
            continue
        sel = kf.approximate_k(d)
        opt = exhaustive_opt(d)
        if sel is None:
            assert opt is None
            continue
        if opt < 2:
            continue  # single-component covers are trivially optimal
        trials += 1
        ratio = len(sel) / opt
        ratios.append(ratio)
        if worst is None or ratio > worst[0]:
            worst = (ratio, len(sel), opt)
    counts = {r: sum(1 for x in ratios if abs(x - r) < 1e-9) for r in sorted(set(ratios))}
    print(f"{trials} random instances needing at least 2 pieces:")
    for ratio, count in counts.items():
        bar = "#" * max(1, count * 60 // trials)
        print(f"  |S|/OPT = {ratio:4.2f}: {count:3d}  {bar}")
    print(f"worst case observed: |S| = {worst[1]} vs OPT = {worst[2]} "
          f"(factor {worst[0]:.2f}, bound is 2.00)")

    # the factor-2 worst case does exist at the projection level: each
    # per-axis minimum cover falls for a decoy and misses the shared pair.
    # whether curves can realize such a diagram is an open question.
    print("\nhand-built projection family hitting the factor-2 bound:")
    # ((P-axis lo, hi), (Q-axis lo, hi)) of components 0..3 on a 1 x 1 diagram
    projections = [((0.0, 0.6), (0.5, 1.0)), ((0.4, 1.0), (0.0, 0.55)),
                   ((0.0, 0.61), (0.0, 0.05)), ((0.0, 0.05), (0.0, 0.56))]
    comps = tuple(kf.Component(id=i, cells=frozenset(), proj_p=p, proj_q=q)
                  for i, (p, q) in enumerate(projections))
    # cells=(): projections alone; z = 3, as the line s = 0 meets components 0, 2 and 3
    d = kf.FreeSpaceDiagram(epsilon=1.0, n=1, m=1, cells=(), components=comps, z=3)
    union = kf.approximate_k(d)
    exact = kf.decide_fpt(d, 2)
    print(f"  approximate_k: {list(union)}, union size {len(union)}")
    print(f"  decide_fpt(d, 2): {list(exact)}, components 0 and 1 alone cover "
          f"both axes: OPT = 2, ratio = {len(union) / len(exact):.1f}")

if __name__ == "__main__":
    main()
