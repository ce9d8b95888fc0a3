"""Free space diagrams and k-piece matching for polygonal plane curves.

Build the free space diagram of two curves at a distance bound, extract
its connected components, and decide whether at most k components cover
both parameter spaces; exactly (bounded search trees), approximately
(factor 2 on the budget), or in the classic limits (Hausdorff, weak and
strong matching decisions). A companion workbench
converts 3-SAT formulas into equivalent box-covering instances for
hardness experiments.

``import kfrechet`` loads no submodule. Each public name, and each
submodule, is imported on first access (PEP 562), and all public names
of that submodule are then bound here, so later reads cost nothing
extra. The box workbench (``boxes``, ``intervals``, ``config``) never
loads numpy; the curve layers do.

No module of the package imports scipy. The scipy-backed validation
oracles, the subset brute-force decider among them, are test code in
``tests/oracles.py``.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_HOMES = {
    "approx": ("approximate_k",),
    "boxes": ("BoxInstance", "CnfFormula", "FormulaError", "LabeledBox",
              "box_instance_from_json", "box_instance_to_json", "build_box_instance",
              "covers_boundaries", "normalize_formula", "parse_dimacs", "sat_bruteforce",
              "selection_from_assignment", "solve_box_bruteforce", "write_dimacs"),
    "config": ("DEFAULT_TOL", "default_tol"),
    "curves": ("CurveError", "PolyCurve", "parse_curve", "parse_curve_json", "serialize_curve"),
    "decide": ("covers_both", "decide_fpt", "decide_hausdorff", "decide_strong_frechet",
               "decide_weak_frechet", "fpt_feasible_selections"),
    "freespace": ("Component", "FreeSpaceDiagram", "build_diagram"),
    "intervals": (),
    "optimize": ("distance_candidates", "minimize_epsilon", "minimize_k", "pairwise_vertex_max"),
    "svg": ("render_diagram_svg",),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name: str):
    home = name if name in _HOMES else _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")  # also binds the submodule
    for public in _HOMES[home]:
        globals()[public] = getattr(module, public)
    return globals()[name]


def __dir__() -> list:
    return sorted({*globals(), *_HOMES, *__all__})
