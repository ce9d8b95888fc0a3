#!/usr/bin/env python3
"""Tour of the free space diagram and its components.

P draws two bumps left to right; Q draws the same bumps slightly offset
but visits them in the opposite order. The curves look alike as point
sets, yet no single traversal matches them, which is exactly what the
component structure shows as the distance bound eps shrinks:

  * large eps: one component covers both parameter axes, so the curves
    match as wholes (weak matching, budget k = 1);
  * medium eps: two components remain and together still cover both
    axes, so cutting each curve into 2 pieces works (k = 2);
  * small eps: the union of all components no longer covers, so even
    unlimited pieces fail (the Hausdorff test says the point sets have
    drifted apart).
"""

import kfrechet as kf

P = kf.PolyCurve([(0, 0), (0.5, 0.6), (1, 0), (2, 0), (2.5, 0.6), (3, 0)])
Q = kf.PolyCurve([(2, 0.08), (2.5, 0.68), (3, 0.08), (1, 0.08), (0.5, 0.68), (0, 0.08)])


def describe(diagram):
    print(f"  eps = {diagram.epsilon:.2f}: {len(diagram.components)} component(s), z = {diagram.z}")
    n, m, tol = diagram.n, diagram.m, kf.default_tol()
    for c in diagram.components:
        sides = (c.proj_p.lo <= tol, c.proj_p.hi >= n - tol, c.proj_q.lo <= tol, c.proj_q.hi >= m - tol)
        touch = "".join(ch for ch, on in zip("LRBT", sides) if on)
        print(f"    #{c.id}: cells={len(c.cells):2d}  "
              f"P-span [{c.proj_p.lo:.3f}, {c.proj_p.hi:.3f}]  "
              f"Q-span [{c.proj_q.lo:.3f}, {c.proj_q.hi:.3f}]  touches={touch or '-'}")
    print(f"    strong={kf.decide_strong_frechet(diagram)}  "
          f"weak={kf.decide_weak_frechet(diagram)}  "
          f"min pieces={kf.minimize_k(diagram)}  "
          f"hausdorff={kf.decide_hausdorff(diagram)}")


def main():
    print("P: two bumps, left to right; Q: same bumps, opposite order\n")
    for eps in (1.0, 0.8, 0.5, 0.34, 0.3):
        describe(kf.build_diagram(P, Q, eps))

    print("\nper-cell views at eps = 0.5 (first column of the grid):")
    d = kf.build_diagram(P, Q, 0.5)
    for j in range(min(d.m, 4)):
        (s_lo, s_hi), (t_lo, t_hi) = d.cells.s_proj[0, j], d.cells.t_proj[0, j]
        if s_lo <= s_hi:
            print(f"  cell (0,{j}): free, s-proj [{s_lo:.2f}, {s_hi:.2f}], "
                  f"t-proj [{t_lo:.2f}, {t_hi:.2f}]")
        else:
            print(f"  cell (0,{j}): blocked")

    print("\neps values where the structure can change (leading candidates):")
    cands = [c for c in kf.distance_candidates(P, Q) if c > 0]
    print("  ", ", ".join(f"{c:.3f}" for c in cands[:12]), "...")


if __name__ == "__main__":
    main()
