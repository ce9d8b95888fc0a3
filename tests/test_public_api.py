"""The package's public names: exactly these, each importable."""

import kfrechet as kf
import kfrechet.curves
import kfrechet.decide
import kfrechet.freespace
from kfrechet import oracles

PUBLIC = [
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

# views and wrappers that only repackaged component data, the brute-force
# decider, which is a test oracle now (see ORACLES), and the one-segment-pair
# functions that no runtime code called (see DELETED)
REMOVED = ["BoundaryTouch", "CellFreeSpace", "Preprocessed", "ProjectedInterval",
           "Selection", "axis_projections", "cell_axis_projection", "cell_edge_interval",
           "compute_z", "decide_bruteforce", "point_segment_distance", "preprocess",
           "segment_distance"]
ORACLES = ["Preprocessed", "decide_bruteforce", "preprocess"]
# the scalar distances are the test reference in conftest; build_diagram on two
# one-segment curves gives the cell arrays; the private helpers went with them
DELETED = {kfrechet.curves: ["_segments_intersect", "point_segment_distance", "segment_distance"],
           kfrechet.freespace: ["_segment_grid", "cell_axis_projection", "cell_edge_interval"]}


def test_all_is_the_sorted_public_list():
    assert len(PUBLIC) == 40
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


def test_brute_force_lives_in_oracles():
    for name in ORACLES:
        assert getattr(oracles, name).__module__ == "kfrechet.oracles", name
        assert not hasattr(kfrechet.decide, name), name


def test_one_segment_pair_functions_are_deleted():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)
