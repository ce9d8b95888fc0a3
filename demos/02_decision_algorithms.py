#!/usr/bin/env python3
"""The exact search-tree decider, checked through the public calls.

Uses a fixed 6-component instance. The library's decider is the bounded
search tree: for a budget k it returns a selection of at most k
components that covers both axes, or None. The checks use public calls
only: every witness passes ``covers_both``, the budget one below the
minimum fails, and the factor-2 approximation lies between the minimum
and twice it. The search-tree route also exposes its per-axis feasible
selections, which is a good way to see why a budget fails.
"""

import kfrechet as kf

P = kf.PolyCurve([[0.74, 0.052], [0.98, 0.241], [0.999, 0.091],
                  [0.274, 0.705], [0.114, 0.044], [0.899, 0.929]])
Q = kf.PolyCurve([[0.3, 0.618], [0.864, 0.026], [0.16, 0.021],
                  [0.916, 0.777], [0.364, 0.156]])
EPS = 0.359


def main():
    d = kf.build_diagram(P, Q, EPS)
    print(f"diagram: {d.n}x{d.m} cells, {len(d.components)} components, z = {d.z}\n")

    kmin = kf.minimize_k(d)
    assert kf.decide_fpt(d, kmin - 1) is None
    print(f"minimum pieces: {kmin}; budget {kmin - 1} -> None\n")

    for k in (1, 2, 3):
        fpt = kf.decide_fpt(d, k)
        assert (fpt is None) == (k < kmin)
        assert fpt is None or kf.covers_both(d, fpt)
        print(f"k = {k}: search-tree -> {fpt}")
        for axis in ("p", "q"):
            sels, paths = kf.fpt_feasible_selections(d, axis, k)
            shown = ", ".join(str(list(s)) for s in sels[:4]) or "none"
            print(f"    axis {axis}: {paths} feasible path(s), selections: {shown}")
    print()

    bound = kf.approximate_k(d)
    assert kmin <= len(bound) <= 2 * kmin and kf.covers_both(d, bound)
    print(f"factor-2 approximation: {bound}, {len(bound)} pieces "
          f"(between {kmin} and {2 * kmin})\n")

    sel = kf.decide_fpt(d, 2)
    print(f"witness for k = 2: {sel}")
    for cid in sel:
        (p_lo, p_hi), (q_lo, q_hi) = d.components[cid].proj_p, d.components[cid].proj_q
        print(f"  component {cid}: P-span [{p_lo:.3f}, {p_hi:.3f}], "
              f"Q-span [{q_lo:.3f}, {q_hi:.3f}]")
    print(f"covers both axes: {kf.covers_both(d, sel)}")


if __name__ == "__main__":
    main()
