#!/usr/bin/env python3
"""Optimising the two knobs: pieces k at fixed eps, and eps at fixed k.

The matched distance is non-increasing in the piece budget: k = 1 gives
the weak matching distance, large k gives the Hausdorff distance. The
table below makes that transition visible for the opposite-order bump
curves from demo 01. A diagram has at most n * m components, so at
k = n * m the search finds the Hausdorff distance, to within its tol.
"""

import kfrechet as kf

P = kf.PolyCurve([(0, 0), (0.5, 0.6), (1, 0), (2, 0), (2.5, 0.6), (3, 0)])
Q = kf.PolyCurve([(2, 0.08), (2.5, 0.68), (3, 0.08), (1, 0.08), (0.5, 0.68), (0, 0.08)])


def main():
    print("minimum pieces at fixed eps:")
    for eps in (0.8, 0.45, 0.3):
        d = kf.build_diagram(P, Q, eps)
        exact = kf.minimize_k(d)
        bound = kf.approximate_k(d)
        approx = None if bound is None else len(bound)
        print(f"  eps = {eps:4}: exact min k = {exact}, factor-2 bound = {approx}")

    print("\nbest eps at fixed piece budget (tol 1e-5):")
    values = {}
    for k in (1, 2, 3, 4):
        values[k] = kf.minimize_epsilon(P, Q, k, tol=1e-5)
        print(f"  k = {k}: eps* = {values[k]:.5f}")
    assert all(values[k + 1] <= values[k] + 2e-5 for k in (1, 2, 3))

    print(f"\nHausdorff distance (the k -> infinity limit, k = n * m): "
          f"{kf.minimize_epsilon(P, Q, P.n * Q.n, tol=1e-5):.5f}")
    nearest = min(kf.distance_candidates(P, Q), key=lambda c: abs(c - values[2]))
    print(f"nearest vertex/segment distance to eps* at k = 2: {nearest:.5f}, "
          f"{abs(nearest - values[2]):.5f} away")
    print("  (the optimum here is a coverage-seam event between two components, not a")
    print("   pairwise vertex/segment distance, so a search over those distances alone")
    print("   would miss it)")


if __name__ == "__main__":
    main()
