#!/usr/bin/env python3
"""Greedy axis covers and the factor-2 budget approximation.

The per-axis greedy cover is optimal on its own axis; combining the two
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

    # the factor-2 worst case does exist at the interval level: per-axis
    # greedy falls for a decoy on each axis and misses the shared pair.
    # whether curves can realize such a diagram is an open question.
    print("\nhand-built interval family hitting the factor-2 bound:")
    # (component id, lo, hi) per axis
    p_axis = [(0, 0.0, 0.6), (1, 0.4, 1.0), (2, 0.0, 0.61), (3, 0.0, 0.05)]
    q_axis = [(0, 0.5, 1.0), (1, 0.0, 0.55), (2, 0.0, 0.05), (3, 0.0, 0.56)]
    s_p = kf.greedy_axis_cover(p_axis, kf.Interval(0.0, 1.0))
    s_q = kf.greedy_axis_cover(q_axis, kf.Interval(0.0, 1.0))
    union = {*s_p, *s_q}
    print(f"  greedy P-axis: {list(s_p)}, greedy Q-axis: {list(s_q)}, "
          f"union size {len(union)}")
    print("  components 0 and 1 alone cover both axes: OPT = 2, ratio = "
          f"{len(union) / 2:.1f}")


if __name__ == "__main__":
    main()
