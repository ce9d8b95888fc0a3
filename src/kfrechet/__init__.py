"""Free space diagrams and k-piece matching for polygonal plane curves.

Build the free space diagram of two curves at a distance bound, extract
its connected components, and decide whether at most k components cover
both parameter spaces; exactly (bounded search trees), approximately
(factor 2 on the budget), or in the classic limits (Hausdorff, weak and
strong matching decisions). A companion workbench
converts 3-SAT formulas into equivalent box-covering instances for
hardness experiments.

The scipy-backed validation oracles, the subset brute-force decider
among them, are not imported here; use ``from kfrechet import oracles``.
"""

from .approx import approximate_k, greedy_axis_cover
from .boxes import (BoxInstance, CnfFormula, FormulaError, LabeledBox,
                    box_instance_from_json, box_instance_to_json,
                    build_box_instance, covers_boundaries, normalize_formula,
                    parse_dimacs, sat_bruteforce, selection_from_assignment,
                    solve_box_bruteforce, write_dimacs)
from .config import DEFAULT_TOL, default_tol
from .curves import (EMPTY, CurveError, Interval, PolyCurve, interval_union_covers,
                     parse_curve, parse_curve_json, serialize_curve)
from .decide import (covers_both, decide_fpt, decide_hausdorff, decide_strong_frechet,
                     decide_weak_frechet, fpt_feasible_selections)
from .freespace import Component, FreeSpaceDiagram, build_diagram
from .optimize import (distance_candidates, minimize_epsilon, minimize_k,
                       pairwise_vertex_max)
from .svg import render_diagram_svg

__version__ = "0.1.0"

__all__ = [
    "BoxInstance", "CnfFormula", "Component", "CurveError", "DEFAULT_TOL", "EMPTY",
    "FormulaError", "FreeSpaceDiagram", "Interval", "LabeledBox", "PolyCurve",
    "approximate_k", "box_instance_from_json", "box_instance_to_json",
    "build_box_instance", "build_diagram", "covers_both", "covers_boundaries",
    "decide_fpt", "decide_hausdorff", "decide_strong_frechet", "decide_weak_frechet",
    "default_tol", "distance_candidates", "fpt_feasible_selections",
    "greedy_axis_cover", "interval_union_covers", "minimize_epsilon", "minimize_k",
    "normalize_formula", "pairwise_vertex_max", "parse_curve", "parse_curve_json",
    "parse_dimacs", "render_diagram_svg", "sat_bruteforce", "selection_from_assignment",
    "serialize_curve", "solve_box_bruteforce", "write_dimacs",
]
