"""The four benchmark workloads.

Each workload generates its inputs from the seed (:meth:`generate`),
optionally writes them to files (:meth:`prepare`), runs one query per
item through the public ``kfrechet`` API (:meth:`query`, the timed part)
and checks a query's answer afterwards (:meth:`check`, untimed). The
``kf`` argument is the imported ``kfrechet`` package, so a test can hand
in a stub.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EPS_TOL = 1e-4  # minimize_epsilon tolerance in eps-search


def child_env() -> dict:
    """Environment for child interpreters: sources on the path, default tolerance."""
    env = {k: v for k, v in os.environ.items() if k != "KFRECHET_TOL"}
    env["PYTHONPATH"] = str(SRC)
    return env


class Workload:
    name = ""
    pool = 0  # items generated per run; the timed loop cycles through them
    import_target = "kfrechet"  # module whose cold import counts as set-up
    warm_queries = 2
    tracer = None  # set by the traced run; needed where a query runs in another process

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, kf, items: list, workdir: Path) -> None:
        """Write input files; only the CLI workload needs any."""

    def query(self, kf, item):
        raise NotImplementedError

    def slim(self, answer):
        """Drop what the check pass does not need, outside the timed region."""
        return answer

    def check(self, kf, item, answer) -> list[str]:
        raise NotImplementedError

    def extras(self, kf, results: list) -> dict:
        """Per-layer counts taken from the answers, untimed (traced run only)."""
        return {}


# ---------------------------------------------------------------- match-decide

@dataclass(frozen=True)
class PairItem:
    p: str  # curve P as text
    q: str  # curve Q as text
    eps: float = 0.0
    k: int = 0


@dataclass(frozen=True)
class MatchAnswer:
    diagram: object
    hausdorff: bool
    weak: bool
    strong: bool
    approx: object
    kmin: int | None
    selection: object


class MatchDecide(Workload):
    """Parse, build one diagram, all decisions, approximate and exact k."""

    name = "match-decide"
    pool = 256  # about one run's worth: a faster program repeats inputs instead of holding more

    def generate(self, seed: int) -> list:
        rng = gen.rng_for(seed, 1)
        sizes = gen.blocks(rng, range(20, 41), self.pool)
        pieces = gen.blocks(rng, range(1, 7), self.pool)
        # one query in eight runs below the jitter, where Hausdorff mostly fails
        tight = gen.blocks(rng, [True] + [False] * 7, self.pool)
        items = []
        for n, r, below in zip(sizes, pieces, tight):
            P, Q = gen.piece_pair(rng, n, r)
            scale = rng.uniform(0.3, 1.5) if below else rng.uniform(8.0, 40.0)
            items.append(PairItem(gen.curve_text(P), gen.curve_text(Q),
                                  eps=round(gen.JITTER * scale, 6)))
        return items

    def query(self, kf, item):
        d = kf.build_diagram(kf.parse_curve(item.p), kf.parse_curve(item.q), item.eps)
        hausdorff = kf.decide_hausdorff(d)
        weak = kf.decide_weak_frechet(d)
        strong = kf.decide_strong_frechet(d)
        approx = kf.approximate_k(d)
        kmin = kf.minimize_k(d)
        selection = kf.decide_fpt(d, kmin) if kmin is not None else None
        return MatchAnswer(d, hausdorff, weak, strong, approx, kmin, selection)

    def slim(self, answer):
        # the checks read only the component projections, not the cells
        d = answer.diagram
        comps = tuple(dataclasses.replace(c, cells=frozenset()) for c in d.components)
        return dataclasses.replace(answer, diagram=dataclasses.replace(d, cells=(), components=comps))

    def check(self, kf, item, a) -> list[str]:
        bad = []
        if a.strong and not a.weak:
            bad.append("strong matching without weak matching")
        if a.weak and a.kmin != 1:
            bad.append(f"weak matching but kmin={a.kmin}")
        if (a.kmin is None) != (not a.hausdorff):
            bad.append(f"kmin={a.kmin} with hausdorff={a.hausdorff}")
        if a.kmin is None:
            if a.approx is not None:
                bad.append("approximate_k found a cover where Hausdorff fails")
            return bad
        d = a.diagram
        if a.selection is None or len(a.selection) > a.kmin or not kf.covers_both(d, a.selection):
            bad.append(f"decide_fpt selection {a.selection} does not cover with <= {a.kmin}")
        if a.kmin > 1 and kf.decide_fpt(d, a.kmin - 1) is not None:
            bad.append(f"a cover with kmin-1={a.kmin - 1} exists")
        if a.approx is None or not a.kmin <= len(a.approx) <= 2 * a.kmin:
            bad.append(f"approximate_k size outside [kmin, 2 kmin] for kmin={a.kmin}")
        return bad

    def extras(self, kf, results) -> dict:
        paths = []
        ratios = []
        for r in results:
            a = r.answer
            if a is None or a.kmin is None:
                continue
            paths.append(sum(kf.fpt_feasible_selections(a.diagram, axis, a.kmin)[1]
                             for axis in ("p", "q")))
            ratios.append(len(a.approx) / a.kmin)
        return {
            "decide.fpt_paths": sum(paths) / len(paths) if paths else 0.0,
            "approx.size_over_kmin": sum(ratios) / len(ratios) if ratios else 0.0,
        }


# ------------------------------------------------------------------ eps-search

class EpsSearch(Workload):
    """minimize_epsilon (bisect) on short pairs: many diagrams of one pair."""

    name = "eps-search"
    pool = 128
    warm_queries = 1

    def generate(self, seed: int) -> list:
        rng = gen.rng_for(seed, 2)
        sizes = gen.blocks(rng, range(10, 17), self.pool)
        budgets = gen.blocks(rng, (2, 3, 4), self.pool)
        pieces = gen.blocks(rng, range(1, 7), self.pool)
        items = []
        for n, k, r in zip(sizes, budgets, pieces):
            P, Q = gen.piece_pair(rng, n, r)
            items.append(PairItem(gen.curve_text(P), gen.curve_text(Q), k=k))
        return items

    def query(self, kf, item):
        return kf.minimize_epsilon(kf.parse_curve(item.p), kf.parse_curve(item.q),
                                   item.k, tol=EPS_TOL)

    def check(self, kf, item, eps) -> list[str]:
        P, Q = kf.parse_curve(item.p), kf.parse_curve(item.q)
        bad = []
        if kf.decide_fpt(kf.build_diagram(P, Q, eps), item.k) is None:
            bad.append(f"returned eps={eps} is infeasible for k={item.k}")
        below = eps - 2 * EPS_TOL
        if below >= 0 and kf.decide_fpt(kf.build_diagram(P, Q, below), item.k) is not None:
            bad.append(f"eps - 2 tol = {below} is already feasible for k={item.k}")
        return bad


# ------------------------------------------------------------------- sat-boxes

@dataclass(frozen=True)
class CnfItem:
    cnf: str  # DIMACS text


@dataclass(frozen=True)
class BoxAnswer:
    selection: tuple | None
    k: int
    boxes: int


class SatBoxes(Workload):
    """3-SAT formula -> box instance -> exact box cover; no curves at all."""

    name = "sat-boxes"
    pool = 8192
    warm_queries = 16
    variables = 4

    def generate(self, seed: int) -> list:
        rng = gen.rng_for(seed, 3)
        counts = gen.blocks(rng, range(3, 7), self.pool)
        # one unsatisfiable formula per block of 16, near the natural rate
        satisfiable = gen.blocks(rng, [False] + [True] * 15, self.pool)
        return [CnfItem(t) for t in gen.random_cnfs(rng, self.variables, counts, satisfiable)]

    def query(self, kf, item):
        instance = kf.build_box_instance(kf.normalize_formula(kf.parse_dimacs(item.cnf)))
        selection = kf.solve_box_bruteforce(instance)
        return BoxAnswer(selection, instance.k, len(instance.boxes))

    def check(self, kf, item, a) -> list[str]:
        formula = kf.normalize_formula(kf.parse_dimacs(item.cnf))
        instance = kf.build_box_instance(formula)
        occurrences = sum(len(c) for c in formula.clauses)
        n = formula.num_vars
        bad = []
        if (a.boxes, a.k) != (4 * n + 2 * occurrences, 2 * n + occurrences):
            bad.append(f"{a.boxes} boxes with k={a.k} break the closed form")
        if (kf.sat_bruteforce(formula) is None) != (a.selection is None):
            bad.append(f"box answer {a.selection is not None} disagrees with brute-force SAT")
        if a.selection is not None and (len(a.selection) > instance.k
                                        or not kf.covers_boundaries(instance, a.selection)):
            bad.append(f"selection of {len(a.selection)} boxes does not cover within k={instance.k}")
        return bad


# -------------------------------------------------------------------- cli-cold

COMMANDS = ("decide", "minimize-k", "freespace-svg", "boxgen", "boxsolve")
CLI_SETS = 10  # distinct input sets the commands rotate over


@dataclass(frozen=True)
class CliItem:
    command: str
    set_id: int
    p: str
    q: str
    eps: float
    cnf: str


@dataclass(frozen=True)
class CliAnswer:
    code: int
    stdout: str


class CliCold(Workload):
    """One ``python -m kfrechet.cli`` process per query, commands in rotation."""

    name = "cli-cold"
    pool = 400
    import_target = "kfrechet.cli"
    warm_queries = 1
    fpt_k = 2

    def __init__(self) -> None:
        self.workdir: Path | None = None
        self.env = child_env()

    def generate(self, seed: int) -> list:
        rng = gen.rng_for(seed, 4)
        sets = []
        for s in range(CLI_SETS):
            P, Q = gen.piece_pair(rng, int(rng.integers(8, 13)), int(rng.integers(1, 4)))
            cnf = gen.random_cnfs(rng, 4, [int(rng.integers(3, 7))], [s % 2 == 0])[0]
            sets.append((gen.curve_text(P), gen.curve_text(Q),
                         round(gen.JITTER * rng.uniform(8.0, 40.0), 6), cnf))
        items = []
        for i in range(self.pool):
            set_id = (i // len(COMMANDS)) % CLI_SETS
            items.append(CliItem(COMMANDS[i % len(COMMANDS)], set_id, *sets[set_id]))
        return items

    def prepare(self, kf, items, workdir: Path) -> None:
        self.workdir = workdir
        for item in {it.set_id: it for it in items}.values():
            s = item.set_id
            (workdir / f"p{s}.txt").write_text(item.p, encoding="utf-8")
            (workdir / f"q{s}.txt").write_text(item.q, encoding="utf-8")
            (workdir / f"f{s}.cnf").write_text(item.cnf, encoding="utf-8")
            instance = kf.build_box_instance(kf.normalize_formula(kf.parse_dimacs(item.cnf)))
            (workdir / f"inst{s}.json").write_text(
                json.dumps(kf.box_instance_to_json(instance)), encoding="utf-8")

    def argv(self, item) -> list[str]:
        s = item.set_id
        curves = ["--p", f"p{s}.txt", "--q", f"q{s}.txt"]
        return {
            "decide": ["decide", *curves, "--eps", repr(item.eps), "--k", str(self.fpt_k),
                       "--algo", "fpt"],
            "minimize-k": ["minimize-k", *curves, "--eps", repr(item.eps)],
            "freespace-svg": ["freespace-svg", *curves, "--eps", repr(item.eps),
                              "--out", f"out{s}.svg", "--select", "0"],
            "boxgen": ["boxgen", "--cnf", f"f{s}.cnf", "--out", f"gen{s}.json"],
            "boxsolve": ["boxsolve", "--in", f"inst{s}.json"],
        }[item.command]

    def query(self, kf, item):
        env = self.env
        traced = self.tracer is not None and self.tracer.on
        if traced:
            spans_file = self.workdir / "child-spans.json"
            env = {**env, "PERFBENCH_SPANS": str(spans_file)}
            cmd = [sys.executable, str(HERE / "cli_child.py"), *self.argv(item)]
        else:
            cmd = [sys.executable, "-m", "kfrechet.cli", *self.argv(item)]
        proc = subprocess.run(cmd, cwd=self.workdir, env=env, capture_output=True,
                              text=True, timeout=120)
        if traced:
            self.tracer.adopt(json.loads(spans_file.read_text(encoding="utf-8")),
                              parent=self.tracer.stack[-1])
            spans_file.unlink()
        return CliAnswer(proc.returncode, proc.stdout)

    def expected(self, kf, item) -> dict:
        """The answer computed in this process on the same input files."""
        s = item.set_id
        if item.command in ("decide", "minimize-k", "freespace-svg"):
            d = kf.build_diagram(kf.parse_curve((self.workdir / f"p{s}.txt").read_text()),
                                 kf.parse_curve((self.workdir / f"q{s}.txt").read_text()),
                                 item.eps)
            if item.command == "decide":
                sel = kf.decide_fpt(d, self.fpt_k)
                return {"answer": sel is not None, "selection": None if sel is None else list(sel)}
            if item.command == "minimize-k":
                kmin = kf.minimize_k(d)
                return {"answer": kmin is not None, "k": kmin}
            return {"answer": True, "components": len(d.components)}
        if item.command == "boxgen":
            inst = kf.build_box_instance(kf.normalize_formula(
                kf.parse_dimacs((self.workdir / f"f{s}.cnf").read_text())))
            return {"answer": True, "boxes": len(inst.boxes), "k": inst.k}
        inst = kf.box_instance_from_json(json.loads((self.workdir / f"inst{s}.json").read_text()))
        sel = kf.solve_box_bruteforce(inst)
        return {"answer": sel is not None, "selection": None if sel is None else list(sel)}

    def check(self, kf, item, a) -> list[str]:
        if a.code not in (0, 1):
            return [f"{item.command}: exit status {a.code}"]
        try:
            report = json.loads(a.stdout)
        except json.JSONDecodeError:
            return [f"{item.command}: stdout is not JSON: {a.stdout[:80]!r}"]
        want = self.expected(kf, item)
        bad = []
        if a.code != (0 if want["answer"] else 1):
            bad.append(f"{item.command}: exit status {a.code}, in-process answer {want['answer']}")
        for key, value in want.items():
            if report.get(key) != value:
                bad.append(f"{item.command}: {key}={report.get(key)!r}, in-process {value!r}")
        return bad


WORKLOADS = {w.name: w for w in (MatchDecide, EpsSearch, SatBoxes, CliCold)}
