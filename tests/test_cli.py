import json
import re
import subprocess
import sys

import pytest

import kfrechet as kf
from kfrechet.cli import main
from conftest import random_pair
import oracles


@pytest.fixture
def curve_files(tmp_path):
    p = tmp_path / "p.txt"
    q = tmp_path / "q.txt"
    p.write_text("0 0\n1 0\n")
    q.write_text("0 1\n1 1\n")
    return str(p), str(q)


OFF_GRID_BOXES = {"bound": [3, 2.5], "k": 2, "boxes": [{"x": 1, "y": 1, "w": 2, "label": 1},
                                                       {"x": 1, "y": 1.5, "w": 1, "label": -1}]}


def box_file(tmp_path, kind: str) -> str:
    """A box instance JSON on the integer grid (the gadget of (1 or -1)) or off it."""
    path = tmp_path / f"{kind}.json"
    obj = (kf.box_instance_to_json(kf.build_box_instance(kf.CnfFormula(1, ((1, -1),))))
           if kind == "grid" else OFF_GRID_BOXES)
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestDecide:
    def test_fpt_yes(self, capsys, curve_files):
        p, q = curve_files
        code, report, _ = run_cli(capsys, "decide", "--p", p, "--q", q,
                                  "--eps", "1.0", "--k", "1", "--algo", "fpt")
        assert code == 0
        assert report == {"answer": True, "components": 1, "selection": [0], "z": 1}

    def test_stdout_is_golden_stable(self, capsys, curve_files):
        # exact byte-level output: sorted keys, sorted ids
        p, q = curve_files
        code = main(["decide", "--p", p, "--q", q, "--eps", "1.0", "--k", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == '{"answer": true, "components": 1, "selection": [0], "z": 1}\n'

    def test_fpt_no(self, capsys, curve_files):
        p, q = curve_files
        code, report, _ = run_cli(capsys, "decide", "--p", p, "--q", q,
                                  "--eps", "0.5", "--k", "1", "--algo", "fpt")
        assert code == 1
        assert report["answer"] is False
        assert report["selection"] is None

    def test_all_algos_on_diagonal(self, capsys, curve_files):
        p, q = curve_files
        for algo in ("fpt", "approx", "weak", "hausdorff", "frechet"):
            code, report, _ = run_cli(capsys, "decide", "--p", p, "--q", q,
                                      "--eps", "1.0", "--k", "1", "--algo", algo)
            assert code == 0, algo
            assert report["answer"] is True

    def test_missing_k_for_brute(self, capsys, curve_files):
        p, q = curve_files
        code, report, err = run_cli(capsys, "decide", "--p", p, "--q", q,
                                    "--eps", "1.0", "--algo", "fpt")
        assert code == 2
        assert report is None
        assert "--k" in err

    def test_brute_algo_removed(self, capsys, curve_files):
        p, q = curve_files
        with pytest.raises(SystemExit) as exit_info:
            main(["decide", "--p", p, "--q", q, "--eps", "1.0", "--k", "1", "--algo", "brute"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--algo" in err and "invalid choice" in err and "brute" in err

    def test_negative_eps(self, capsys, curve_files):
        p, q = curve_files
        code, _, err = run_cli(capsys, "decide", "--p", p, "--q", q,
                               "--eps", "-1", "--k", "1")
        assert code == 2
        assert "eps" in err

    @pytest.mark.parametrize("command", ["decide", "minimize-k", "freespace-svg"])
    @pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
    def test_non_finite_eps(self, capsys, tmp_path, curve_files, command, eps):
        p, q = curve_files
        extra = {"decide": ["--k", "1"], "minimize-k": [],
                 "freespace-svg": ["--out", str(tmp_path / "x.svg")]}[command]
        code, report, err = run_cli(capsys, command, "--p", p, "--q", q, f"--eps={eps}", *extra)
        assert code == 2
        assert report is None
        assert "eps" in err

    def test_missing_file(self, capsys, tmp_path, curve_files):
        p, _ = curve_files
        code, _, err = run_cli(capsys, "decide", "--p", p, "--q",
                               str(tmp_path / "nope.txt"), "--eps", "1", "--k", "1")
        assert code == 2
        assert "cannot read" in err

    def test_json_curve_input(self, capsys, tmp_path, curve_files):
        _, q = curve_files
        j = tmp_path / "p.json"
        j.write_text('{"vertices": [[0, 0], [1, 0]]}')
        code, report, _ = run_cli(capsys, "decide", "--p", str(j), "--q", q,
                                  "--eps", "1.0", "--k", "1")
        assert code == 0 and report["answer"] is True

    @pytest.mark.parametrize("vertex", ['[0, {}]', '[0, "x"]', '[0, [1]]', '[true, false]',
                                        '[0, "1"]', '["0", 1]'])
    def test_non_numeric_json_vertex(self, capsys, tmp_path, curve_files, vertex):
        # an input error, exit 2 with the file named; not exit 1, the status for "no"
        _, q = curve_files
        j = tmp_path / "bad.json"
        j.write_text(f'{{"vertices": [{vertex}, [1, 1]]}}')
        code, report, err = run_cli(capsys, "decide", "--p", str(j), "--q", q,
                                    "--eps", "1.0", "--k", "1")
        assert code == 2 and report is None
        assert str(j) in err

    def test_underscore_in_number(self, capsys, tmp_path, curve_files):
        # "1_0" is no decimal number, though float() reads it as 10
        _, q = curve_files
        p = tmp_path / "under.txt"
        p.write_text("0 0\n1_0 0\n")
        code, report, err = run_cli(capsys, "decide", "--p", str(p), "--q", q,
                                    "--eps", "1.0", "--k", "1")
        assert code == 2 and report is None
        assert str(p) in err and "line 2" in err

    def test_non_utf8_file(self, capsys, tmp_path, curve_files):
        _, q = curve_files
        bad = tmp_path / "latin.txt"
        bad.write_bytes(b"\xff0 0\n1 1\n")
        code, report, err = run_cli(capsys, "decide", "--p", str(bad), "--q", q,
                                    "--eps", "1.0", "--k", "1")
        assert code == 2 and report is None
        assert f"cannot read curve file {bad}" in err

    def test_brute_fpt_agree_on_corpus(self, capsys, tmp_path, rng):
        for trial in range(5):
            P, Q = random_pair(rng, 4)
            p = tmp_path / f"p{trial}.txt"
            q = tmp_path / f"q{trial}.txt"
            p.write_text(kf.serialize_curve(P))
            q.write_text(kf.serialize_curve(Q))
            eps = str(float(rng.uniform(0.2, 0.9)))
            brute = [oracles.decide_bruteforce(kf.build_diagram(P, Q, float(eps)), k)
                     for k in (1, 2)]
            for k in ("1", "2"):
                args = ["--p", str(p), "--q", str(q), "--eps", eps, "--k", k]
                code_f, rep_f, _ = run_cli(capsys, "decide", *args, "--algo", "fpt")
                answer = brute[int(k) - 1] is not None
                assert code_f == (0 if answer else 1)
                assert rep_f["answer"] == answer


class TestMinimize:
    def test_minimize_k(self, capsys, curve_files):
        p, q = curve_files
        code, report, _ = run_cli(capsys, "minimize-k", "--p", p, "--q", q, "--eps", "1.0")
        assert code == 0
        assert report["k"] == 1
        assert report["selection"] == [0]

    def test_minimize_k_infeasible(self, capsys, curve_files):
        p, q = curve_files
        code, report, _ = run_cli(capsys, "minimize-k", "--p", p, "--q", q, "--eps", "0.5")
        assert code == 1
        assert report["k"] is None

    def test_minimize_k_out_of_float_range(self, capsys, tmp_path):
        # parallel segments 1e200 apart: their squared distance overflows
        p, q = tmp_path / "p.txt", tmp_path / "q.txt"
        p.write_text("0 0\n1 0\n")
        q.write_text("0 1e200\n1 1e200\n")
        code, report, err = run_cli(capsys, "minimize-k", "--p", str(p), "--q", str(q),
                                    "--eps", "1e201")
        assert code == 2
        assert report is None
        assert "out of range" in err

    def test_minimize_eps(self, capsys, curve_files):
        p, q = curve_files
        code, report, _ = run_cli(capsys, "minimize-eps", "--p", p, "--q", q,
                                  "--k", "1", "--tol", "1e-5")
        assert code == 0
        assert abs(report["epsilon"] - 1.0) < 1e-4
        assert report["selection"] == [0]

    def test_minimize_eps_tol_below_float_spacing(self, capsys, curve_files):
        p, q = curve_files
        code, report, _ = run_cli(capsys, "minimize-eps", "--p", p, "--q", q,
                                  "--k", "1", "--tol", "1e-30")
        assert code == 0
        assert report["epsilon"] == pytest.approx(1.0, abs=1e-9)

    def test_minimize_eps_nan_tol(self, capsys, curve_files):
        p, q = curve_files
        code, report, err = run_cli(capsys, "minimize-eps", "--p", p, "--q", q,
                                    "--k", "1", "--tol", "nan")
        assert code == 2 and report is None and "tol" in err

    def test_minimize_eps_infinite_tol(self, capsys, curve_files):
        p, q = curve_files
        code, report, err = run_cli(capsys, "minimize-eps", "--p", p, "--q", q,
                                    "--k", "1", "--tol", "inf")
        assert code == 2 and report is None and "tol" in err

    def test_minimize_eps_bad_k(self, capsys, curve_files):
        p, q = curve_files
        code, _, err = run_cli(capsys, "minimize-eps", "--p", p, "--q", q, "--k", "0")
        assert code == 2 and "--k" in err

    def test_minimize_eps_method_removed(self, capsys, curve_files):
        p, q = curve_files
        with pytest.raises(SystemExit) as exit_info:
            main(["minimize-eps", "--p", p, "--q", q, "--k", "1", "--method", "candidates"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --method candidates" in capsys.readouterr().err


class TestSvgCommand:
    def test_writes_svg(self, capsys, tmp_path, curve_files):
        p, q = curve_files
        out = tmp_path / "diagram.svg"
        code, report, _ = run_cli(capsys, "freespace-svg", "--p", p, "--q", q,
                                  "--eps", "1.0", "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.count('<g class="component"') == 1
        meta = json.loads(re.search(r"<metadata[^>]*>(.*?)</metadata>", text, re.S).group(1))
        assert meta["components"] == report["components"] == 1

    def test_empty_diagram_grid_only(self, capsys, tmp_path, curve_files):
        p, q = curve_files
        out = tmp_path / "empty.svg"
        code, report, _ = run_cli(capsys, "freespace-svg", "--p", p, "--q", q,
                                  "--eps", "0.5", "--out", str(out))
        assert code == 0 and report["components"] == 0
        text = out.read_text()
        assert '<g class="component"' not in text
        assert '<g class="grid"' in text

    def test_select_outlines(self, capsys, tmp_path, curve_files):
        p, q = curve_files
        out = tmp_path / "sel.svg"
        code, _, _ = run_cli(capsys, "freespace-svg", "--p", p, "--q", q,
                             "--eps", "1.0", "--out", str(out), "--select", "0")
        assert code == 0
        assert 'class="component selected"' in out.read_text()

    def test_select_unknown_id(self, capsys, tmp_path, curve_files):
        p, q = curve_files
        code, _, err = run_cli(capsys, "freespace-svg", "--p", p, "--q", q,
                               "--eps", "1.0", "--out", str(tmp_path / "x.svg"),
                               "--select", "7")
        assert code == 2 and "unknown component id" in err

    def test_unwritable_output(self, capsys, tmp_path, curve_files):
        p, q = curve_files
        code, _, err = run_cli(capsys, "freespace-svg", "--p", p, "--q", q,
                               "--eps", "1.0", "--out", str(tmp_path / "no" / "dir.svg"))
        assert code == 2 and "cannot write" in err


class TestBoxCommands:
    def test_boxgen_boxsolve_sat(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 1\n1 -1 0\n")
        out = tmp_path / "inst.json"
        code, report, _ = run_cli(capsys, "boxgen", "--cnf", str(cnf), "--out", str(out))
        assert code == 0
        assert report["boxes"] == 8 and report["k"] == 4
        code, report, _ = run_cli(capsys, "boxsolve", "--in", str(out))
        assert code == 0
        assert report["answer"] is True
        assert len(report["selection"]) == 4

    def test_boxsolve_unsat(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        out = tmp_path / "inst.json"
        assert run_cli(capsys, "boxgen", "--cnf", str(cnf), "--out", str(out))[0] == 0
        code, report, _ = run_cli(capsys, "boxsolve", "--in", str(out))
        assert code == 1
        assert report["answer"] is False and report["selection"] is None

    def test_boxgen_bad_dimacs(self, capsys, tmp_path):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text("hello world\n")
        code, _, err = run_cli(capsys, "boxgen", "--cnf", str(cnf),
                               "--out", str(tmp_path / "x.json"))
        assert code == 2 and "bad clause line" in err

    @pytest.mark.parametrize("header", ["p cnf x 1", "p cnf 1 x"])
    def test_boxgen_non_integer_header(self, capsys, tmp_path, header):
        cnf = tmp_path / "bad.cnf"
        cnf.write_text(header + "\n1 0\n")
        code, _, err = run_cli(capsys, "boxgen", "--cnf", str(cnf),
                               "--out", str(tmp_path / "x.json"))
        assert code == 2 and "bad problem line" in err

    @pytest.mark.parametrize("text", ["p cnf 1_0 1\n1 0\n", "p cnf 12 1\n1_0 0\n"])
    def test_boxgen_underscore_in_number(self, capsys, tmp_path, text):
        # int() reads "1_0" as 10: the header would make a 10-variable formula
        cnf = tmp_path / "under.cnf"
        cnf.write_text(text)
        code, report, err = run_cli(capsys, "boxgen", "--cnf", str(cnf),
                                    "--out", str(tmp_path / "x.json"))
        assert code == 2 and report is None
        assert "1_0" in err and not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("bad", ['"x": NaN', '"w": Infinity', '"y": NaN'])
    def test_boxsolve_non_finite_box(self, capsys, tmp_path, bad):
        box = {"x": "1", "y": "1", "w": "1"}
        key = bad.split(":")[0].strip('"')
        fields = ", ".join(bad if k == key else f'"{k}": {v}' for k, v in box.items())
        path = tmp_path / "nan.json"
        path.write_text('{"bound": [3, 3], "k": 2, "boxes": [{%s, "label": 1}]}' % fields)
        code, report, err = run_cli(capsys, "boxsolve", "--in", str(path))
        assert code == 2 and report is None
        assert "finite" in err

    @pytest.mark.parametrize("k, label, message", [("5.9", "1", "k must be an integer"),
                                                    ("2", "-0.3", "label must be a nonzero integer"),
                                                    ("2", "0", "label must be a nonzero integer")])
    def test_boxsolve_fractional_budget_or_label(self, capsys, tmp_path, k, label, message):
        path = tmp_path / "frac.json"
        path.write_text('{"bound": [3, 3], "k": %s, "boxes": [{"x": 1, "y": 1, "w": 1, "label": %s}]}'
                        % (k, label))
        code, report, err = run_cli(capsys, "boxsolve", "--in", str(path))
        assert code == 2 and report is None
        assert message in err

    @pytest.mark.parametrize("k, x", [("true", "1"), ("2", "true")])
    def test_boxsolve_boolean_field(self, capsys, tmp_path, k, x):
        path = tmp_path / "bool.json"
        path.write_text('{"bound": [3, 3], "k": %s, "boxes": [{"x": %s, "y": 1, "w": 1, "label": 1}]}'
                        % (k, x))
        code, report, err = run_cli(capsys, "boxsolve", "--in", str(path))
        assert code == 2 and report is None
        assert "must be a number, got true" in err

    @pytest.mark.parametrize("field", ["bound", "k", "x", "w", "label"])
    def test_boxsolve_string_field(self, capsys, tmp_path, field):
        # a JSON string is no number, even one that spells a number
        obj = {"bound": [3, 3], "k": 2, "boxes": [{"x": 1, "y": 1, "w": 2, "label": 1}]}
        if field == "bound":
            obj["bound"][0] = "3"
        elif field == "k":
            obj["k"] = "2"
        else:
            obj["boxes"][0][field] = str(obj["boxes"][0][field])
        path = tmp_path / "strings.json"
        path.write_text(json.dumps(obj))
        code, report, err = run_cli(capsys, "boxsolve", "--in", str(path))
        assert code == 2 and report is None
        assert str(path) in err and f"{field} must be a number, got \"" in err

    def test_boxsolve_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'\xff{"bound": [3, 3], "k": 0, "boxes": []}')
        code, report, err = run_cli(capsys, "boxsolve", "--in", str(path))
        assert code == 2 and report is None
        assert f"cannot read {path}" in err

    def test_boxgen_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "latin.cnf"
        path.write_bytes(b"\xffp cnf 1 1\n1 0\n")
        code, report, err = run_cli(capsys, "boxgen", "--cnf", str(path),
                                    "--out", str(tmp_path / "out.json"))
        assert code == 2 and report is None
        assert f"cannot read {path}" in err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("field", ["bound", "x", "w"])
    def test_boxsolve_beyond_float_range(self, capsys, tmp_path, field):
        # a 401-digit integer: exit 2 (bad input), not 1 (no cover)
        obj = {"bound": [3, 3], "k": 2, "boxes": [{"x": 1, "y": 1, "w": 1, "label": 1}]}
        if field == "bound":
            obj["bound"][1] = 10**400
        else:
            obj["boxes"][0][field] = 10**400
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(obj))
        code, report, err = run_cli(capsys, "boxsolve", "--in", str(path))
        assert code == 2 and report is None
        assert "malformed box instance JSON" in err

    @pytest.mark.parametrize("bound", ["[0.5, 0.5]", "[0, 0]", "[1, 3]"])
    def test_boxsolve_bound_of_one_or_less(self, capsys, tmp_path, bound):
        path = tmp_path / "flat.json"
        path.write_text('{"bound": %s, "k": 0, "boxes": []}' % bound)
        code, report, err = run_cli(capsys, "boxsolve", "--in", str(path))
        assert code == 2 and report is None
        assert "greater than 1" in err

    @pytest.mark.parametrize("extra", [{"x": 13, "y": 1, "w": 3, "label": 1},  # past the right end
                                       {"x": 1, "y": 14, "w": 1, "label": 1}])  # above the left edge
    def test_boxsolve_box_outside_an_edge(self, capsys, tmp_path, extra):
        # 27 integral boxes: the row search answers; the subset search took at most 22
        inst = kf.build_box_instance(kf.normalize_formula(
            kf.CnfFormula(3, ((1, 2, 3), (-1, -2), (2, -3)))))
        assert (inst.x_max, inst.y_max, len(inst.boxes)) == (14.0, 14.0, 26)
        obj = kf.box_instance_to_json(inst)
        obj["boxes"].append(extra)
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(obj))
        code, report, _ = run_cli(capsys, "boxsolve", "--in", str(path))
        assert code == 0 and report["boxes"] == 27
        assert kf.covers_boundaries(kf.box_instance_from_json(obj), report["selection"])

    @pytest.mark.parametrize("last_x, code", [(1500, 0), (1499, 1)])
    def test_boxsolve_deep_instance(self, tmp_path, last_x, code):
        # 1,500 unit rows, past the recursion limit a recursive search hit,
        # where the RecursionError's traceback exited 1 as if there were no cover
        boxes = [{"x": 1 + r, "y": 1 + r, "w": 1, "label": r + 1} for r in range(1500)]
        boxes[-1]["x"] = last_x  # at 1499 the last column is open: no cover
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"bound": [1501, 1501], "k": 1500, "boxes": boxes}))
        proc = subprocess.run([sys.executable, "-m", "kfrechet.cli", "boxsolve", "--in", str(path)],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (code, "")
        report = json.loads(proc.stdout)
        assert report["boxes"] == 1500
        assert report["selection"] == (list(range(1500)) if code == 0 else None)

    def test_boxsolve_bad_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "boxsolve", "--in", str(bad))
        assert code == 2 and "invalid JSON" in err


class TestToleranceEnv:
    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv("KFRECHET_TOL", "1e-6")
        assert kf.default_tol() == 1e-6
        monkeypatch.delenv("KFRECHET_TOL")
        assert kf.default_tol() == kf.DEFAULT_TOL

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("KFRECHET_TOL", "-1")
        with pytest.raises(ValueError):
            kf.default_tol()

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_env_value(self, monkeypatch, raw):
        monkeypatch.setenv("KFRECHET_TOL", raw)
        with pytest.raises(ValueError):
            kf.default_tol()

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 1.0, 2.0])
    def test_bad_tol_argument(self, tol, kfrechet_tol):
        kfrechet_tol(tol)
        with pytest.raises(ValueError, match="KFRECHET_TOL"):
            kf.default_tol()

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    def test_non_finite_env_exits_2(self, capsys, monkeypatch, curve_files, raw):
        # nothing is free at eps 0.5; a non-finite tolerance used to report one component
        p, q = curve_files
        monkeypatch.setenv("KFRECHET_TOL", raw)
        code, report, err = run_cli(capsys, "decide", "--p", p, "--q", q,
                                    "--eps", "0.5", "--k", "1")
        assert code == 2 and report is None and "KFRECHET_TOL" in err

    @pytest.mark.parametrize("raw", ["1", "1.5"])
    def test_cell_wide_env_value_exits_2(self, capsys, monkeypatch, curve_files, raw):
        # nothing is free at eps 0.5; a tolerance one cell wide let the empty selection cover
        p, q = curve_files
        monkeypatch.setenv("KFRECHET_TOL", raw)
        code, report, err = run_cli(capsys, "decide", "--p", p, "--q", q,
                                    "--eps", "0.5", "--k", "1")
        assert code == 2 and report is None and "KFRECHET_TOL must be a finite number" in err

    @pytest.mark.parametrize("raw", ["abc", ""])
    def test_unparsable_env_value(self, capsys, monkeypatch, curve_files, raw):
        monkeypatch.setenv("KFRECHET_TOL", raw)
        with pytest.raises(ValueError, match=f"KFRECHET_TOL .*got '{raw}'"):
            kf.default_tol()
        p, q = curve_files
        code, report, err = run_cli(capsys, "decide", "--p", p, "--q", q,
                                    "--eps", "1.0", "--k", "1")
        assert code == 2 and report is None and "KFRECHET_TOL must be a finite number" in err
        assert repr(raw) in err

    @pytest.mark.parametrize("kind", ["grid", "off-grid"])
    @pytest.mark.parametrize("raw", ["abc", "nan", "-1", "1.5"])
    def test_boxsolve_env_value_exits_2(self, capsys, monkeypatch, tmp_path, kind, raw):
        path = box_file(tmp_path, kind)
        monkeypatch.setenv("KFRECHET_TOL", raw)
        code, report, err = run_cli(capsys, "boxsolve", "--in", path)
        assert code == 2 and report is None and "KFRECHET_TOL must be a finite number" in err


def test_module_entry_point(curve_files):
    p, q = curve_files
    golden = {
        "1.0": (0, '{"answer": true, "components": 1, "selection": [0], "z": 1}\n'),
        "0.5": (1, '{"answer": false, "components": 0, "selection": null, "z": 0}\n'),
    }
    for eps, expected in golden.items():
        proc = subprocess.run(
            [sys.executable, "-m", "kfrechet.cli", "decide", "--p", p, "--q", q,
             "--eps", eps, "--k", "1"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == expected, proc.stderr


def test_cli_import_leaves_scipy_unloaded():
    code = ("import sys, kfrechet.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_box_commands_leave_numpy_unloaded(curve_files, tmp_path):
    # the box path imports no curve layer; a curve command loads them when it runs
    p, q = curve_files
    cnf, boxes = tmp_path / "f.cnf", tmp_path / "boxes.json"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 2 0\n")
    off_grid = box_file(tmp_path, "off-grid")  # answered by the joint-cover search
    code = f"""
import sys
import kfrechet, kfrechet.cli
assert "numpy" not in sys.modules, "import"
statuses = [kfrechet.cli.main(["boxgen", "--cnf", {str(cnf)!r}, "--out", {str(boxes)!r}]),
            kfrechet.cli.main(["boxsolve", "--in", {str(boxes)!r}]),
            kfrechet.cli.main(["boxsolve", "--in", {off_grid!r}])]
assert statuses == [0, 0, 0] and "numpy" not in sys.modules, statuses
print("decide", kfrechet.cli.main(["decide", "--p", {p!r}, "--q", {q!r}, "--eps", "1.0", "--k", "1"]))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        '{"answer": true, "components": 1, "selection": [0], "z": 1}', "decide 0"]


def test_curve_commands_leave_the_box_workbench_unloaded(curve_files, tmp_path):
    p, q = curve_files
    svg = tmp_path / "d.svg"
    code = f"""
import sys
import kfrechet.cli
curves = ["--p", {p!r}, "--q", {q!r}]
statuses = [kfrechet.cli.main(["decide", *curves, "--eps", "1.0", "--k", "1"]),
            kfrechet.cli.main(["minimize-k", *curves, "--eps", "1.0"]),
            kfrechet.cli.main(["minimize-eps", *curves, "--k", "1"]),
            kfrechet.cli.main(["freespace-svg", *curves, "--eps", "1.0", "--out", {str(svg)!r}])]
assert statuses == [0, 0, 0, 0], statuses
print("kfrechet.boxes" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("eps", ["1e154", "1e200", "1e308"])
def test_huge_finite_eps_is_silent(tmp_path, eps):
    # with warnings as errors an overflow warning would exit 1 with a traceback
    p, q = tmp_path / "p.txt", tmp_path / "q.txt"
    p.write_text("0 0\n3 0\n")  # d·d = 9: (w·w - eps²)*d·d overflows at 1e154
    q.write_text("0 1\n1 3\n0.5 3.1\n")
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "kfrechet.cli", "minimize-k",
                           "--p", p, "--q", q, "--eps", eps], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["k"] == 1
