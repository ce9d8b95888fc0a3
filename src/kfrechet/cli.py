"""Command-line interface.

Machine-readable JSON goes to stdout (sorted keys, sorted id lists),
diagnostics to stderr. Exit status: 0 for a positive answer, 1 for a
negative one, 2 for any usage or input error. The KFRECHET_TOL
environment variable overrides the global comparison tolerance.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .approx import approximate_k
from .boxes import (FormulaError, box_instance_from_json, box_instance_to_json,
                    build_box_instance, normalize_formula, parse_dimacs,
                    solve_box_bruteforce)
from .curves import CurveError, PolyCurve, parse_curve, parse_curve_json
from .decide import (_weak_witness, decide_bruteforce, decide_fpt, decide_hausdorff,
                     decide_strong_frechet)
from .freespace import build_diagram
from .optimize import minimize_epsilon, minimize_k
from .svg import render_diagram_svg


class CliError(Exception):
    """Input or usage error; message goes to stderr, exit status 2."""


def _load_curve(path: str) -> PolyCurve:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read curve file {path}: {exc}") from exc
    try:
        if text.lstrip().startswith("{"):
            return parse_curve_json(text)
        return parse_curve(text)
    except CurveError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _selection_list(selection: tuple | None):
    return None if selection is None else list(selection)


def _require_k(args) -> int:
    if args.k is None:
        raise CliError(f"--k is required for algo {args.algo}")
    if args.k < 0:
        raise CliError("--k must be >= 0")
    return args.k


def _cmd_decide(args) -> tuple[bool, dict]:
    P = _load_curve(args.p)
    Q = _load_curve(args.q)
    diagram = build_diagram(P, Q, args.eps)
    selection: tuple | None = None
    if args.algo == "brute":
        selection = decide_bruteforce(diagram, _require_k(args))
        answer = selection is not None
    elif args.algo == "fpt":
        selection = decide_fpt(diagram, _require_k(args))
        answer = selection is not None
    elif args.algo == "approx":
        k = _require_k(args)
        selection = approximate_k(diagram)
        answer = selection is not None and len(selection) <= k
    elif args.algo == "weak":
        witness = _weak_witness(diagram)
        answer = witness is not None
        if answer:
            selection = (witness,)
    elif args.algo == "hausdorff":
        answer = decide_hausdorff(diagram)
        if answer:
            selection = tuple(range(len(diagram.components)))
    else:  # frechet
        answer = decide_strong_frechet(diagram)
    report = {
        "answer": answer,
        "selection": _selection_list(selection),
        "components": len(diagram.components),
        "z": diagram.z,
    }
    return answer, report


def _cmd_minimize_k(args) -> tuple[bool, dict]:
    P = _load_curve(args.p)
    Q = _load_curve(args.q)
    diagram = build_diagram(P, Q, args.eps)
    best = minimize_k(diagram, method=args.method)
    witness = None
    if best is not None:
        witness = approximate_k(diagram) if args.method == "approx" else decide_fpt(diagram, best)
    report = {
        "answer": best is not None,
        "k": best,
        "method": args.method,
        "selection": _selection_list(witness),
        "components": len(diagram.components),
        "z": diagram.z,
    }
    return best is not None, report


def _cmd_minimize_eps(args) -> tuple[bool, dict]:
    P = _load_curve(args.p)
    Q = _load_curve(args.q)
    if args.k < 1:
        raise CliError("--k must be >= 1")
    eps = minimize_epsilon(P, Q, args.k, args.tol, method=args.method)
    witness = decide_fpt(build_diagram(P, Q, eps), args.k)
    report = {
        "answer": True,
        "epsilon": eps,
        "k": args.k,
        "selection": _selection_list(witness),
        "tol": args.tol,
    }
    return True, report


def _cmd_svg(args) -> tuple[bool, dict]:
    P = _load_curve(args.p)
    Q = _load_curve(args.q)
    diagram = build_diagram(P, Q, args.eps)
    selected = None
    if args.select:
        try:
            ids = [int(t) for t in args.select.split(",") if t.strip() != ""]
        except ValueError as exc:
            raise CliError(f"bad --select list: {args.select!r}") from exc
        for cid in ids:
            if not 0 <= cid < len(diagram.components):
                raise CliError(f"--select: unknown component id {cid}")
        selected = ids
    text = render_diagram_svg(diagram, P, Q, selected=selected)
    try:
        Path(args.out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    report = {
        "answer": True,
        "components": len(diagram.components),
        "out": args.out,
        "z": diagram.z,
    }
    return True, report


def _cmd_boxgen(args) -> tuple[bool, dict]:
    try:
        text = Path(args.cnf).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {args.cnf}: {exc}") from exc
    try:
        formula = normalize_formula(parse_dimacs(text))
        instance = build_box_instance(formula)
    except FormulaError as exc:
        raise CliError(str(exc)) from exc
    payload = json.dumps(box_instance_to_json(instance), sort_keys=True, indent=2)
    try:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot write {args.out}: {exc}") from exc
    report = {
        "answer": True,
        "boxes": len(instance.boxes),
        "clauses": formula.num_clauses,
        "k": instance.k,
        "out": args.out,
        "vars": formula.num_vars,
    }
    return True, report


def _cmd_boxsolve(args) -> tuple[bool, dict]:
    try:
        obj = json.loads(Path(args.infile).read_text(encoding="utf-8"))
    except OSError as exc:
        raise CliError(f"cannot read {args.infile}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.infile}: invalid JSON: {exc}") from exc
    try:
        instance = box_instance_from_json(obj)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    picked = solve_box_bruteforce(instance)
    report = {
        "answer": picked is not None,
        "boxes": len(instance.boxes),
        "k": instance.k,
        "selection": None if picked is None else list(picked),
    }
    return picked is not None, report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kfrechet",
        description="Free space diagrams and k-piece matching decisions for polygonal curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curves(p):
        p.add_argument("--p", required=True, metavar="FILE", help="curve P (text or JSON)")
        p.add_argument("--q", required=True, metavar="FILE", help="curve Q (text or JSON)")

    p = sub.add_parser("decide", help="decide whether k components cover both axes at eps")
    add_curves(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--algo", default="fpt",
                   choices=["brute", "fpt", "approx", "weak", "hausdorff", "frechet"])
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("minimize-k", help="smallest covering budget at fixed eps")
    add_curves(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--method", default="exact", choices=["exact", "approx"])
    p.set_defaults(func=_cmd_minimize_k)

    p = sub.add_parser("minimize-eps", help="smallest eps admitting a k-cover")
    add_curves(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--method", default="bisect", choices=["bisect", "candidates"])
    p.set_defaults(func=_cmd_minimize_eps)

    p = sub.add_parser("freespace-svg", help="render the free space diagram to SVG")
    add_curves(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--select", default="", metavar="ID[,ID...]",
                   help="component ids to outline")
    p.set_defaults(func=_cmd_svg)

    p = sub.add_parser("boxgen", help="build a box-covering instance from DIMACS CNF")
    p.add_argument("--cnf", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_boxgen)

    p = sub.add_parser("boxsolve", help="solve a box-covering instance JSON")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_boxsolve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        answer, report = args.func(args)
        # allow_nan=False: a NaN or infinity would print as non-JSON
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except (CliError, CurveError, FormulaError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if answer else 1


if __name__ == "__main__":
    sys.exit(main())
