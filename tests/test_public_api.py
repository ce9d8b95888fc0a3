"""The package's public names: exactly these, each importable."""

import ast
import dataclasses
import gc
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import kfrechet as kf
import kfrechet.curves
import kfrechet.decide
import kfrechet.freespace
import kfrechet.intervals
import oracles

PUBLIC = [
    "BoxInstance", "CnfFormula", "Component", "CurveError", "DEFAULT_TOL",
    "FormulaError", "FreeSpaceDiagram", "LabeledBox", "PolyCurve",
    "approximate_k", "box_instance_from_json", "box_instance_to_json",
    "build_box_instance", "build_diagram", "covers_both", "covers_boundaries",
    "decide_fpt", "decide_hausdorff", "decide_strong_frechet", "decide_weak_frechet",
    "default_tol", "distance_candidates", "fpt_feasible_selections",
    "minimize_epsilon", "minimize_k",
    "normalize_formula", "pairwise_vertex_max", "parse_curve", "parse_curve_json",
    "parse_dimacs", "render_diagram_svg", "sat_bruteforce", "selection_from_assignment",
    "serialize_curve", "solve_box_bruteforce", "write_dimacs",
]

# views and wrappers that only repackaged component data, the interval type
# whose place (lo, hi) pairs took (see PAIRS), the brute-force decider, which is
# a test oracle now (see ORACLES), and the one-segment-pair functions that no
# runtime code called (see DELETED)
REMOVED = ["BoundaryTouch", "CellFreeSpace", "EMPTY", "Interval", "Preprocessed",
           "ProjectedInterval", "Selection", "axis_projections", "cell_axis_projection",
           "cell_edge_interval", "compute_z", "decide_bruteforce", "greedy_axis_cover",
           "interval_union_covers", "point_segment_distance", "preprocess", "segment_distance"]
PAIRS = ["EMPTY", "Interval", "interval_union_covers"]
ORACLES = ["Preprocessed", "decide_bruteforce", "preprocess"]
# the scalar distances are the test reference in conftest; build_diagram on two
# one-segment curves gives the cell arrays; the private helpers went with them
DELETED = {kfrechet.curves: ["_segments_intersect", "point_segment_distance", "segment_distance"],
           kfrechet.freespace: ["_segment_grid", "cell_axis_projection", "cell_edge_interval"]}
# the public name that carries no __module__
CONSTANTS = {"DEFAULT_TOL": "kfrechet.config"}
# what `import kfrechet` makes reachable as attributes; not cli
SUBMODULES = ["approx", "boxes", "config", "curves", "decide", "freespace", "intervals",
              "optimize", "svg"]


def test_all_is_the_sorted_public_list():
    assert len(PUBLIC) == 36
    assert PUBLIC == sorted(set(PUBLIC))
    assert kf.__all__ == PUBLIC


def test_every_name_resolves():
    for name in kf.__all__:
        assert getattr(kf, name) is not None, name


def test_every_name_is_the_object_its_module_defines():
    for name in kf.__all__:
        obj = getattr(kf, name)
        home = CONSTANTS.get(name) or obj.__module__
        assert getattr(sys.modules[home], name) is obj, name
    assert kf.build_diagram is kfrechet.freespace.build_diagram
    assert set(kf.__all__) <= set(dir(kf))


def test_fresh_import_resolves_submodules_on_access():
    code = ("import sys, kfrechet as kf\n"
            "print(sorted(m for m in sys.modules if m.startswith('kfrechet.')))\n"
            f"print([getattr(kf, name).__name__ for name in {SUBMODULES!r}])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", repr([f"kfrechet.{name}" for name in SUBMODULES])]


def test_star_import():
    namespace = {}
    exec("from kfrechet import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(kf, name), name
        assert name not in kf.__all__
    for name in PAIRS:
        assert not hasattr(kfrechet.intervals, name), name
    assert not hasattr(kfrechet.freespace, "_interval")


def test_every_module_imports_without_scipy():
    # scipy is for the test oracles only: with it blocked, importing it raises
    code = ("import importlib, pkgutil, sys\n"
            "sys.modules['scipy'] = None\n"
            "import kfrechet\n"
            "names = [m.name for m in pkgutil.iter_modules(kfrechet.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module(f'kfrechet.{name}')\n"
            "print(sorted(names))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(sorted([*SUBMODULES, "cli"]))
    # the brute force is a test oracle, outside the package
    for name in ORACLES:
        assert getattr(oracles, name).__module__ == "oracles", name
        assert not hasattr(kfrechet.decide, name), name


def test_one_segment_pair_functions_are_deleted():
    for module, names in DELETED.items():
        for name in names:
            assert not hasattr(module, name), (module.__name__, name)


def test_only_intervals_names_the_joint_cover_internals():
    # every other module asks intervals._min_joint_cover for the least joint
    # cover; its certificate and tree walk are intervals' own, and the
    # decider's own copy of the rule, with its string-keyed axis lists, is gone
    private = {"_OPEN", "_certified_cover", "_walk_joint_cover", "_cheapest_cover"}
    named = []
    for path in sorted(Path(kf.__file__).parent.glob("*.py")):
        if path.name == "intervals.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                names = []
            named += [(path.name, name) for name in names if name in private]
    assert named == []
    for name in ("_joint_cover", "_axis_intervals"):
        assert not hasattr(kfrechet.decide, name), name


def test_only_the_eps_search_takes_a_tolerance():
    # KFRECHET_TOL is the one comparison tolerance; the tol of minimize_epsilon
    # is the width of its search
    def tolerances(fn):
        return [name for name in inspect.signature(fn).parameters if "tol" in name]

    takes = [name for name in kf.__all__ if callable(obj := getattr(kf, name))
             and not (isinstance(obj, type) and issubclass(obj, Exception)) and tolerances(obj)]
    assert takes == ["minimize_epsilon"]
    assert tolerances(kf.minimize_epsilon) == ["tol"]
    assert tolerances(oracles.preprocess) == tolerances(oracles.decide_bruteforce) == []


def _box_path():
    formula = kf.normalize_formula(kf.parse_dimacs("p cnf 3 3\n1 -2 0\n2 3 0\n-1 -3 0\n"))
    instance = kf.build_box_instance(formula)
    for spare in (0, 2):  # on the grid: the row search, with and without boxes to spare
        assert kf.solve_box_bruteforce(dataclasses.replace(instance, k=instance.k + spare))
    off_grid = kf.BoxInstance(3, 2.5, 2, (kf.LabeledBox(1, 1, 2, 1), kf.LabeledBox(1, 1.5, 1, -1)))
    assert kf.solve_box_bruteforce(off_grid) == (0, 1)


def _curve_path():
    P = kf.parse_curve("0 0\n1 0.2\n2 -0.1\n3 0.3\n4 0\n")
    Q = kf.parse_curve("0 0.1\n2 0.1\n1.5 0.2\n4 0.1\n")
    d = kf.build_diagram(P, Q, 0.5)
    for decide in (kf.decide_hausdorff, kf.decide_weak_frechet, kf.decide_strong_frechet):
        decide(d)
    kf.decide_fpt(d, 2)
    kf.approximate_k(d)
    kf.minimize_k(d)
    kf.minimize_epsilon(P, Q, 2, tol=1e-4)
    kf.render_diagram_svg(d, selected=[0])


@pytest.mark.parametrize("path", [_box_path, _curve_path], ids=["box", "curve"])
def test_public_paths_leave_no_cyclic_garbage(path):
    # With the collector off, what a call builds must be freed by reference
    # counting alone when it returns: a cycle, such as a nested function that
    # refers to itself, would leave garbage for the collector to find.
    path()  # first calls import modules and fill caches
    gc.collect()
    gc.disable()
    try:
        path()
        assert gc.collect() == 0
    finally:
        gc.enable()
