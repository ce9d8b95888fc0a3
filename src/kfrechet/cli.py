"""Command-line interface.

Machine-readable JSON goes to stdout (sorted keys, sorted id lists),
diagnostics to stderr. Exit status: 0 for a positive answer, 1 for a
negative one, 2 for any usage or input error. The KFRECHET_TOL
environment variable sets the one comparison tolerance; ``minimize-eps
--tol`` is the width of the eps search, not a comparison tolerance.

No layer is imported with this module: each command imports its own
when it runs. ``boxgen`` and ``boxsolve`` import the box workbench, which
runs without numpy; the curve commands (``decide``, ``minimize-k``,
``minimize-eps``, ``freespace-svg``) import the curve layers, and with them
numpy, but not the box workbench.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


class CliError(Exception):
    """Input or usage error; message goes to stderr, exit status 2."""


def _load_curve(path: str):
    from .curves import CurveError, parse_curve, parse_curve_json

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    from .approx import approximate_k
    from .decide import decide_fpt, decide_hausdorff, decide_strong_frechet
    from .freespace import build_diagram

    P = _load_curve(args.p)
    Q = _load_curve(args.q)
    diagram = build_diagram(P, Q, args.eps)
    selection: tuple | None = None
    if args.algo in ("fpt", "weak"):  # a weak matching is a cover by one component
        selection = decide_fpt(diagram, 1 if args.algo == "weak" else _require_k(args))
        answer = selection is not None
    elif args.algo == "approx":
        k = _require_k(args)
        selection = approximate_k(diagram)
        answer = selection is not None and len(selection) <= k
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
    from .approx import approximate_k
    from .decide import decide_fpt
    from .freespace import build_diagram

    P = _load_curve(args.p)
    Q = _load_curve(args.q)
    diagram = build_diagram(P, Q, args.eps)
    witness = approximate_k(diagram)
    if args.method != "approx" and witness is not None:
        witness = decide_fpt(diagram, len(witness))  # a minimum cover: minimize_k's search
    best = None if witness is None else len(witness)
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
    from .decide import decide_fpt
    from .freespace import build_diagram
    from .optimize import minimize_epsilon

    P = _load_curve(args.p)
    Q = _load_curve(args.q)
    if args.k < 1:
        raise CliError("--k must be >= 1")
    eps = minimize_epsilon(P, Q, args.k, args.tol)
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
    from .freespace import build_diagram
    from .svg import render_diagram_svg

    P = _load_curve(args.p)
    Q = _load_curve(args.q)
    diagram = build_diagram(P, Q, args.eps)
    selected = None
    if args.select:
        try:
            selected = [int(t) for t in args.select.split(",") if t.strip() != ""]
        except ValueError as exc:
            raise CliError(f"bad --select list: {args.select!r}") from exc
    try:
        text = render_diagram_svg(diagram, P, Q, selected=selected)
    except KeyError as exc:
        raise CliError(f"--select: {exc.args[0]}") from exc
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
    from .boxes import (FormulaError, box_instance_to_json, build_box_instance,
                        normalize_formula, parse_dimacs)

    try:
        text = Path(args.cnf).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
    from .boxes import box_instance_from_json, solve_box_bruteforce

    try:
        obj = json.loads(Path(args.infile).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {args.infile}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.infile}: invalid JSON: {exc}") from exc
    try:
        instance = box_instance_from_json(obj)
    except ValueError as exc:
        raise CliError(f"{args.infile}: {exc}") from exc
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
                   choices=["fpt", "approx", "weak", "hausdorff", "frechet"])
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
    except (CliError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return 0 if answer else 1


if __name__ == "__main__":
    sys.exit(main())
