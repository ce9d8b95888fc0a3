#!/usr/bin/env python3
"""From a 3-SAT formula to a box-covering instance and back.

Builds the gadget instance for a small formula, solves it by exhaustive
search, and shows how a satisfying assignment turns into a covering
selection of exactly k boxes (and how an unsatisfiable formula leaves
the boundary uncoverable within budget). Writes the instance JSON and
the DIMACS file next to this script under out/.
"""

import json
from pathlib import Path

import kfrechet as kf

OUT = Path(__file__).parent / "out"


def show(f, title):
    print(f"--- {title}: {f.num_vars} vars, clauses {list(f.clauses)}")
    norm = kf.normalize_formula(f)
    if norm.clauses != f.clauses:
        print(f"    normalized to {list(norm.clauses)}")
    inst = kf.build_box_instance(norm)
    rows = int(inst.y_max) - 1
    cols = int(inst.x_max) - 1
    print(f"    instance: {len(inst.boxes)} boxes over {cols} columns x {rows} rows, "
          f"budget k = {inst.k}")
    assignment = kf.sat_bruteforce(norm)
    picked = kf.solve_box_bruteforce(inst)
    print(f"    satisfiable: {assignment is not None}; "
          f"boundary coverable within k: {picked is not None}")
    if assignment is not None:
        mapped = kf.selection_from_assignment(inst, assignment)
        assert kf.covers_boundaries(inst, mapped) and len(mapped) == inst.k
        print(f"    assignment {assignment} -> covering selection of size {len(mapped)}")
    return norm, inst


def main():
    OUT.mkdir(exist_ok=True)

    sat_formula = kf.CnfFormula(3, ((1, 2, -3), (-1, 3), (2, 3)))
    norm, inst = show(sat_formula, "satisfiable formula")
    (OUT / "sat_formula.cnf").write_text(kf.write_dimacs(norm))
    (OUT / "sat_boxes.json").write_text(
        json.dumps(kf.box_instance_to_json(inst), sort_keys=True, indent=2))
    print(f"    wrote {OUT.name}/sat_formula.cnf and {OUT.name}/sat_boxes.json")

    print()
    unsat = kf.CnfFormula(2, ((1,), (-1,), (2, -2)))
    show(unsat, "unsatisfiable formula")

    print("\nbox anatomy for the tiny tautology (v or not v):")
    tiny = kf.build_box_instance(kf.CnfFormula(1, ((1, -1),)))
    for idx, b in enumerate(tiny.boxes):
        label = f"v{abs(b.label)}" if b.label > 0 else f"!v{abs(b.label)}"
        print(f"  box {idx}: corner ({b.x:g}, {b.y:g}), width {b.w:g}, label {label}")


if __name__ == "__main__":
    main()
