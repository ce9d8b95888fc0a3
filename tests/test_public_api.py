"""The package's public names: exactly these, each importable."""

import kfrechet as kf

PUBLIC = [
    "BoxInstance", "CnfFormula", "Component", "CurveError", "DEFAULT_TOL", "EMPTY",
    "FormulaError", "FreeSpaceDiagram", "Interval", "LabeledBox", "PolyCurve",
    "Preprocessed", "approximate_k", "box_instance_from_json", "box_instance_to_json",
    "build_box_instance", "build_diagram", "cell_axis_projection", "cell_edge_interval",
    "covers_both", "covers_boundaries", "decide_bruteforce", "decide_fpt",
    "decide_hausdorff", "decide_strong_frechet", "decide_weak_frechet", "default_tol",
    "distance_candidates", "fpt_feasible_selections", "greedy_axis_cover",
    "interval_union_covers", "minimize_epsilon", "minimize_k", "normalize_formula",
    "pairwise_vertex_max", "parse_curve", "parse_curve_json", "parse_dimacs",
    "point_segment_distance", "preprocess", "render_diagram_svg", "sat_bruteforce",
    "segment_distance", "selection_from_assignment", "serialize_curve",
    "solve_box_bruteforce", "write_dimacs",
]

# views and wrappers that only repackaged component data
REMOVED = ["BoundaryTouch", "CellFreeSpace", "ProjectedInterval", "Selection",
           "axis_projections", "compute_z"]


def test_all_is_the_sorted_public_list():
    assert PUBLIC == sorted(set(PUBLIC))
    assert kf.__all__ == PUBLIC


def test_every_name_resolves():
    for name in kf.__all__:
        assert getattr(kf, name) is not None, name


def test_star_import():
    namespace = {}
    exec("from kfrechet import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(kf, name), name
        assert name not in kf.__all__
