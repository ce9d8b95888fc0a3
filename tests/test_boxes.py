import dataclasses
import itertools
import json
import math
import pickle
import time

import numpy as np
import pytest

import kfrechet as kf
from kfrechet.boxes import _solve_rowwise
from conftest import clause_size_counts, reference_union_covers


def formula(n, *clauses):
    return kf.CnfFormula(n, tuple(tuple(c) for c in clauses))


def random_formula(rng, n_vars, n_clauses, max_size=3):
    clauses = []
    for _ in range(n_clauses):
        size = int(rng.integers(1, min(max_size, n_vars) + 1))
        lits = rng.choice(np.arange(1, n_vars + 1), size=size, replace=False)
        signs = rng.choice([-1, 1], size=size)
        clauses.append(tuple(int(v * s) for v, s in zip(lits, signs)))
    return formula(n_vars, *clauses)


def box_spans(boxes):
    """The x intervals and the y intervals of unit-height boxes."""
    return [(b.x, b.x + b.w) for b in boxes], [(b.y, b.y + 1.0) for b in boxes]


def reference_subsets(instance, tol):
    """The first selection, by size and then lexicographically, of at most k
    boxes covering both boundaries under the reference sweep: the subset
    enumeration that answered off-grid instances before the joint-cover
    search did, kept as its reference."""
    boxes = instance.boxes
    bottom = (1.0, float(instance.x_max))
    left = (1.0, float(instance.y_max))
    for size in range(min(instance.k, len(boxes)) + 1):
        for combo in itertools.combinations(range(len(boxes)), size):
            xs, ys = box_spans([boxes[i] for i in combo])
            if reference_union_covers(xs, bottom, tol) and reference_union_covers(ys, left, tol):
                return combo
    return None


def off_grid_instance(rng, tol):
    """At most 12 boxes on half-unit coordinates in a box with x_max off the
    grid; some corners sit 0.5 or 1.5 tol past a half unit, so that gaps of
    either width open between boxes."""
    x_max = float(rng.integers(2, 6)) + 0.5
    y_max = float(rng.integers(2, 5)) + float(rng.integers(0, 2)) / 2
    boxes = []
    for _ in range(int(rng.integers(1, 13))):
        x, y = (float(rng.integers(1, 2 * end)) / 2 + float(rng.choice([0, 0, 0.5, 1.5])) * tol
                for end in (x_max, y_max))
        boxes.append(kf.LabeledBox(x, y, float(rng.integers(2, 7)) / 2, int(rng.choice([-1, 1]))))
    return kf.BoxInstance(x_max, y_max, int(rng.integers(0, len(boxes) + 1)), tuple(boxes))


def reference_rowwise(instance):
    """The row-wise solver with one bit per unit column of the bottom edge,
    as it was before columns were cut at the box ends; kept as the
    reference the compressed columns must reproduce selection for selection."""
    boxes = instance.boxes
    n_rows = int(instance.y_max) - 1
    n_cols = int(instance.x_max) - 1
    if n_rows < 1 or n_cols < 1:
        return None
    rows = [[] for _ in range(n_rows)]
    col_masks = []
    for idx, b in enumerate(boxes):
        rows[int(b.y) - 1].append(idx)
        mask = 0
        for c in range(int(b.x), int(b.x + b.w)):
            mask |= 1 << (c - 1)
        col_masks.append(mask)
    if any(not opts for opts in rows) or instance.k < n_rows:
        return None
    budget = instance.k - n_rows
    target = (1 << n_cols) - 1
    union = 0
    for mask in col_masks:
        union |= mask
    if target & ~union:
        return None
    suffix = [0] * (n_rows + 1)
    for r in range(n_rows - 1, -1, -1):
        suffix[r] = suffix[r + 1]
        for i in rows[r]:
            suffix[r] |= col_masks[i]
    chosen = []

    def patch_gaps(covered):
        missing = target & ~covered
        if not missing:
            return tuple(sorted(chosen))
        if budget == 0:
            return None
        taken = set(chosen)
        pool = [i for i in range(len(boxes)) if i not in taken and col_masks[i] & missing]
        for r in range(1, budget + 1):
            for extra in itertools.combinations(pool, r):
                mask = covered
                for i in extra:
                    mask |= col_masks[i]
                if not (target & ~mask):
                    return tuple(sorted((*chosen, *extra)))
        return None

    def descend(r, covered):
        if r == n_rows:
            return patch_gaps(covered)
        if budget == 0 and (target & ~covered) & ~suffix[r]:
            return None
        for idx in rows[r]:
            chosen.append(idx)
            result = descend(r + 1, covered | col_masks[idx])
            if result is not None:
                return result
            chosen.pop()
        return None

    return descend(0, 0)


def sat_boxes_formula(rng, n_vars, n_clauses):
    """A random formula shaped like the sat-boxes benchmark's: clauses of 1, 2
    and 3 distinct variables drawn 20/30/50%, with random signs."""
    clauses = []
    for _ in range(n_clauses):
        size = int(rng.choice([1, 2, 3], p=[0.2, 0.3, 0.5]))
        lits = rng.choice(np.arange(1, n_vars + 1), size=size, replace=False)
        clauses.append(tuple(int(v * s) for v, s in zip(lits, rng.choice([-1, 1], size=size))))
    return formula(n_vars, *clauses)


def reference_compressed_rowwise(instance):
    """The row-wise solver on compressed columns as it was before rows were
    forced: it skips a choice only when the columns no later row covers need
    more than the spare budget, and remembers the failed (row, missing columns)
    states. Kept as the reference the forcing search must reproduce selection
    for selection; integer instances only."""
    x_max, boxes = instance.x_max, instance.boxes
    lefts = [b.x if b.x < x_max else x_max for b in boxes]
    rights = [b.x + b.w if b.x + b.w < x_max else x_max for b in boxes]
    n_rows = int(instance.y_max) - 1
    if n_rows > len(boxes):
        return None
    column = {cut: k for k, cut in enumerate(sorted({1, int(x_max), *lefts, *rights}))}
    col_masks = [(1 << column[hi]) - (1 << column[lo]) for lo, hi in zip(lefts, rights)]
    rows = [[] for _ in range(n_rows)]
    covers = [0] * n_rows
    outside = 0
    for idx, (b, mask) in enumerate(zip(boxes, col_masks)):
        if b.y > n_rows:
            outside |= mask
            continue
        rows[int(b.y) - 1].append((idx, ~mask))
        covers[int(b.y) - 1] |= mask
    if not all(rows) or instance.k < n_rows:
        return None
    budget = instance.k - n_rows
    beyond = [0] * n_rows
    later = 0
    for r in range(n_rows - 1, -1, -1):
        beyond[r] = ~later
        later |= covers[r]
    target = (1 << (len(column) - 1)) - 1
    if target & ~(later | outside):
        return None
    farthest = [(0, None)] * (len(column) - 1)
    for idx, mask in enumerate(col_masks):
        for c in range((mask & -mask).bit_length() - 1, mask.bit_length()):
            if mask.bit_length() > farthest[c][0]:
                farthest[c] = (mask.bit_length(), idx)

    def patch(missing):
        extra = []
        while missing:
            if len(extra) == budget:
                return None
            idx = farthest[(missing & -missing).bit_length() - 1][1]
            extra.append(idx)
            missing &= ~col_masks[idx]
        return extra

    failed = [set() for _ in range(n_rows)]

    def descend(r, missing):
        if r == n_rows:
            return patch(missing)
        seen, out = failed[r], beyond[r]
        for idx, keep in rows[r]:
            left = missing & keep
            if left in seen or left & out and (not budget or patch(left & out) is None):
                continue
            found = descend(r + 1, left)
            if found is not None:
                return (idx, *found)
            seen.add(left)
        return None

    found = descend(0, target)
    return None if found is None else tuple(sorted(found))


class TestFormula:
    def test_validation(self):
        with pytest.raises(kf.FormulaError):
            formula(1, (1, 2))  # variable out of range
        with pytest.raises(kf.FormulaError):
            formula(2, (1, 0))  # zero literal
        with pytest.raises(kf.FormulaError):
            formula(2, (1, 2, -1, -2))  # clause too big
        with pytest.raises(kf.FormulaError):
            formula(2, ())  # empty clause

    @pytest.mark.parametrize("num_vars, clauses, message", [
        (1.5, ((1,),), "num_vars must be an integer, got 1.5"),
        (2.0, ((1,),), "num_vars must be an integer, got 2.0"),
        ("3", ((1,),), "num_vars must be an integer, got '3'"),
        (None, ((1,),), "num_vars must be an integer, got None"),
        (2, ((1.7,),), "clause 0: literal must be an integer, got 1.7"),
        (2, ((1, 1.0),), "clause 0: literal must be an integer, got 1.0"),
        (2, ((1,), ("1",)), "clause 1: literal must be an integer, got '1'"),
        (2, ((np.float64(1.0),),), f"clause 0: literal must be an integer, got {np.float64(1.0)!r}"),
    ])
    def test_num_vars_and_literals_must_be_integers(self, num_vars, clauses, message):
        # int() truncated 1.7 to 1 and read "1" as 1; a float num_vars reached
        # normalize_formula, and a string one the range check, as TypeError
        with pytest.raises(kf.FormulaError) as exc:
            kf.CnfFormula(num_vars, clauses)
        assert str(exc.value) == message

    def test_numpy_integers_stored_as_int(self):
        f = kf.CnfFormula(np.int64(2), [np.array([1, -2]), (np.int32(2), True)])
        assert f == kf.CnfFormula(2, ((1, -2), (2, 1)))
        assert type(f.num_vars) is int
        assert {type(lit) for clause in f.clauses for lit in clause} == {int}
        assert type(f.clauses) is tuple and all(type(c) is tuple for c in f.clauses)

    def test_normalize_adds_missing_polarities(self):
        f = kf.normalize_formula(formula(2, (1, 2)))
        assert f.clauses == ((1, 2), (1, -1), (2, -2))

    def test_normalize_keeps_balanced_formula(self):
        f = kf.normalize_formula(formula(1, (1, -1)))
        assert f.clauses == ((1, -1),)

    def test_normalize_dedupes_literals(self):
        f = kf.normalize_formula(formula(2, (1, 1, 2)))
        assert f.clauses[0] == (1, 2)

    def test_clause_size_counts(self):
        f = formula(3, (1,), (1, 2), (-1, 2, 3), (1, -2, 3))
        assert clause_size_counts(f) == (1, 1, 2)


class TestBuildBoxInstance:
    def test_tautology_worked_example(self):
        # single clause (v or not v): boxes derived by hand from the
        # placement formulas
        inst = kf.build_box_instance(formula(1, (1, -1)))
        got = [(b.x, b.y, b.w, b.label) for b in inst.boxes]
        assert sorted(got) == sorted([
            (1, 1, 1, -1), (1, 3, 1, 1),
            (2, 1, 1, 1), (2, 2, 1, -1),
            (3, 3, 1, -1), (3, 4, 1, 1),
            (4, 2, 1, 1), (4, 4, 1, -1),
        ])
        assert inst.k == 4
        assert (inst.x_max, inst.y_max) == (5.0, 5.0)

    def test_contradiction_counts(self):
        inst = kf.build_box_instance(kf.normalize_formula(formula(1, (1,), (-1,))))
        assert len(inst.boxes) == 8
        assert inst.k == 4

    def test_requires_normalized(self):
        with pytest.raises(kf.FormulaError):
            kf.build_box_instance(formula(2, (1, 2)))

    def test_closed_form_counts(self, rng):
        for _ in range(40):
            f = kf.normalize_formula(random_formula(rng, int(rng.integers(1, 5)),
                                                    int(rng.integers(1, 5))))
            inst = kf.build_box_instance(f)
            m1, m2, m3 = clause_size_counts(f)
            occ = m1 + 2 * m2 + 3 * m3
            assert len(inst.boxes) == 4 * f.num_vars + 2 * occ
            assert inst.k == 2 * f.num_vars + occ

    def test_unit_rows_have_two_opposite_boxes(self, rng):
        for _ in range(25):
            f = kf.normalize_formula(random_formula(rng, int(rng.integers(1, 5)),
                                                    int(rng.integers(1, 5))))
            inst = kf.build_box_instance(f)
            rows = {}
            for b in inst.boxes:
                rows.setdefault(int(b.y), []).append(b.label)
            assert sorted(rows) == list(range(1, int(inst.y_max)))
            for labels in rows.values():
                assert len(labels) == 2
                assert labels[0] == -labels[1]


class TestSolver:
    def test_tautology_solvable(self):
        inst = kf.build_box_instance(formula(1, (1, -1)))
        sel = kf.solve_box_bruteforce(inst)
        assert sel is not None and len(sel) == 4
        assert kf.covers_boundaries(inst, sel)
        labels = {inst.boxes[i].label for i in sel}
        assert labels in ({1}, {-1})  # a consistent assignment

    def test_contradiction_unsolvable(self):
        inst = kf.build_box_instance(kf.normalize_formula(formula(1, (1,), (-1,))))
        assert kf.solve_box_bruteforce(inst) is None

    def test_budget_equal_to_box_count(self):
        base = kf.build_box_instance(formula(1, (1, -1)))
        inst = kf.BoxInstance(base.x_max, base.y_max, len(base.boxes), base.boxes)
        sel = kf.solve_box_bruteforce(inst)
        assert sel is not None
        assert kf.covers_boundaries(inst, sel)

    def test_budget_below_rows_unsolvable(self):
        base = kf.build_box_instance(formula(1, (1, -1)))
        inst = kf.BoxInstance(base.x_max, base.y_max, base.k - 1, base.boxes)
        assert kf.solve_box_bruteforce(inst) is None

    def test_rowwise_matches_subset_enumeration(self):
        # single-variable formulas keep the instances small enough for
        # raw subset enumeration
        cases = [
            formula(1, (1, -1)),
            kf.normalize_formula(formula(1, (1,))),
            kf.normalize_formula(formula(1, (1,), (-1,))),
            kf.normalize_formula(formula(1, (-1,), (-1, 1))),
        ]
        for f in cases:
            inst = kf.build_box_instance(f)
            assert len(inst.boxes) <= 14
            row = _solve_rowwise(inst)
            sub = reference_subsets(inst, 1e-9)
            assert (row is None) == (sub is None)
            if row is not None:
                assert kf.covers_boundaries(inst, row)
                assert kf.covers_boundaries(inst, sub)

    def test_budget_above_rows_spends_extras_on_bottom(self):
        # one unit row, two boxes: either alone covers the row but only
        # half the bottom, so the spare budget must pick up the second
        boxes = (kf.LabeledBox(1, 1, 1, 1), kf.LabeledBox(2, 1, 1, -1))
        inst = kf.BoxInstance(3.0, 2.0, 2, boxes)
        assert kf.solve_box_bruteforce(inst) == (0, 1)
        tight = kf.BoxInstance(3.0, 2.0, 1, boxes)
        assert kf.solve_box_bruteforce(tight) is None
        # boxes 1 and 2 reach as far right over column 2, and box 2 starts
        # further left: the patch takes box 1, the lowest index
        boxes = (kf.LabeledBox(1, 1, 1, 1), kf.LabeledBox(2, 2, 2, 1), kf.LabeledBox(1, 2, 3, 1))
        assert kf.solve_box_bruteforce(kf.BoxInstance(4.0, 2.0, 2, boxes)) == (0, 1)
        # spare budget 1, columns 1..3: row 1 holds a box over column 1 and one
        # past x_max, row 2 one over column 2 and one over column 3, and one box
        # above the left edge covers each column. Column 1 could take the patch,
        # but counting it against the budget would force row 2 to column 2 and
        # leave column 3 to patch as well; the cover takes row 1's box instead
        boxes = (kf.LabeledBox(1, 1, 1, 1), kf.LabeledBox(4, 1, 1, 1), kf.LabeledBox(2, 2, 1, 1),
                 kf.LabeledBox(3, 2, 1, 1), *(kf.LabeledBox(c, 3, 1, 1) for c in (1, 2, 3)))
        assert kf.solve_box_bruteforce(kf.BoxInstance(4.0, 3.0, 3, boxes)) == (0, 2, 3)

    def test_selections_equal_the_unit_column_solver(self):
        # 4-variable formulas of 3..6 clauses as in the sat-boxes benchmark, at
        # the gadget budget and one below; with spare budget 1-2, which patches
        # bottom gaps, a valid selection whenever the gadget budget has one (the
        # reference takes seconds there); 1- and 3-variable ones also with
        # spare budget, against the reference
        rng = np.random.default_rng(2026)
        found = 0
        for _ in range(150):
            f = kf.normalize_formula(random_formula(rng, 4, int(rng.integers(3, 7))))
            base = kf.build_box_instance(f)
            for k in (base.k, base.k - 1):
                inst = kf.BoxInstance(base.x_max, base.y_max, k, base.boxes)
                got = _solve_rowwise(inst)
                assert got == reference_rowwise(inst)
                found += got is not None
            at_gadget = _solve_rowwise(base)
            for k in (base.k + 1, base.k + 2):
                got = _solve_rowwise(kf.BoxInstance(base.x_max, base.y_max, k, base.boxes))
                assert (got is None) <= (at_gadget is None)
                assert got is None or (len(got) <= k and kf.covers_boundaries(base, got))
        assert found > 50
        for _ in range(40):
            base = kf.build_box_instance(kf.normalize_formula(random_formula(rng, 1, 2)))
            for k in range(base.k - 1, base.k + 3):
                inst = kf.BoxInstance(base.x_max, base.y_max, k, base.boxes[:-1])
                assert _solve_rowwise(inst) == reference_rowwise(inst)
        spare = 0
        for _ in range(30):
            f = kf.normalize_formula(random_formula(rng, 3, int(rng.integers(3, 5))))
            base = kf.build_box_instance(f)
            for k in (base.k + 1, base.k + 2):
                for boxes in (base.boxes, base.boxes[:-1]):
                    inst = kf.BoxInstance(base.x_max, base.y_max, k, boxes)
                    got = _solve_rowwise(inst)
                    assert got == reference_rowwise(inst)
                    spare += got is not None and len(got) > base.k
        assert spare > 0  # some selections spend the spare budget

    def test_selections_equal_the_compressed_row_search(self):
        # forcing rows only prunes: on 2,000 4-variable gadgets of 3..6 clauses
        # drawn like the sat-boxes benchmark's, each also with one box dropped
        # (a row of one box, or a column fewer boxes cover), and on 5-variable
        # formulas, the first cover is the one the search without forcing
        # finds, at the gadget budget and with spare budget 1 and 2
        rng = np.random.default_rng(23)
        unsat = spare = 0
        for n_vars, count, clauses in ((4, 2000, (3, 7)), (5, 60, (5, 13))):
            for _ in range(count):
                f = kf.normalize_formula(sat_boxes_formula(rng, n_vars, int(rng.integers(*clauses))))
                base = kf.build_box_instance(f)
                got = _solve_rowwise(base)
                assert (got is None) == (kf.sat_bruteforce(f) is None)
                unsat += n_vars == 4 and got is None
                drop = int(rng.integers(len(base.boxes)))
                for boxes in (base.boxes, base.boxes[:drop] + base.boxes[drop + 1:]):
                    for k in (base.k, base.k + 1, base.k + 2):
                        inst = kf.BoxInstance(base.x_max, base.y_max, k, boxes)
                        got = _solve_rowwise(inst)
                        assert got == reference_compressed_rowwise(inst)
                        spare += got is not None and len(got) > base.k
        assert 60 <= unsat <= 250  # about one in 16, as in the benchmark
        assert spare > 0  # some selections spend the spare budget

    def test_six_variable_gadget_answers_at_once(self):
        # 6 variables, 24 three-literal clauses: 168 boxes and k = 84; the
        # search without forcing took 1.7 s to 21 s on each of these, and
        # the search that forced rows at spare budget 0 only took up to 9 s
        # at k + 1; here each answers at k to k + 3
        for s in range(4):
            rng = np.random.default_rng(s)
            clauses = []
            for _ in range(24):
                lits = rng.choice(np.arange(1, 7), 3, replace=False)
                clauses.append(tuple(int(v * sign) for v, sign in zip(lits, rng.choice([-1, 1], 3))))
            f = kf.normalize_formula(formula(6, *clauses))
            base = kf.build_box_instance(f)
            sat = kf.sat_bruteforce(f) is not None
            for k in range(base.k, base.k + 4):
                inst = kf.BoxInstance(base.x_max, base.y_max, k, base.boxes)
                start = time.perf_counter()
                got = kf.solve_box_bruteforce(inst)
                assert time.perf_counter() - start < 1.0, (s, k - base.k)
                if k == base.k:
                    assert (got is not None) == sat
                assert got is not None or not sat  # a cover within the gadget budget fits in k
                assert got is None or (len(got) <= k and kf.covers_boundaries(inst, got))

    def test_random_small_instances_match_subset_enumeration(self):
        # boxes above the left edge, boxes past x_max and every budget at once:
        # the row search finds a cover exactly when one of at most k boxes exists
        rng = np.random.default_rng(24)
        found = spare = 0
        for _ in range(4000):
            x_max, y_max = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            boxes = tuple(kf.LabeledBox(int(rng.integers(1, x_max + 1)),
                                        int(rng.integers(1, y_max + 1)),  # y_max: above the edge
                                        int(rng.integers(1, x_max + 1)), 1)
                          for _ in range(int(rng.integers(1, 8))))
            inst = kf.BoxInstance(float(x_max), float(y_max), int(rng.integers(0, len(boxes) + 1)),
                                  boxes)
            got = kf.solve_box_bruteforce(inst)
            assert (got is None) == (reference_subsets(inst, 1e-9) is None), inst
            if got is not None:
                assert len(got) <= inst.k and kf.covers_boundaries(inst, got)
                found += 1
                spare += len(got) > y_max - 1
        assert found > 600 and spare > 400

    def test_spare_budget_answers_at_once(self):
        # the first 4-variable formula drawn above (25 unit rows) at one more
        # than the gadget budget: every choice of one box per row used to be
        # walked, for more than 8 s
        rng = np.random.default_rng(2026)
        base = kf.build_box_instance(
            kf.normalize_formula(random_formula(rng, 4, int(rng.integers(3, 7)))))
        assert base.y_max - 1 == 25
        inst = kf.BoxInstance(base.x_max, base.y_max, base.k + 1, base.boxes)
        start = time.perf_counter()
        got = kf.solve_box_bruteforce(inst)
        assert time.perf_counter() - start < 1.0
        assert got is not None and kf.covers_boundaries(inst, got)
        # six rows of one-column boxes over all eight columns: no column is
        # out of reach of the later rows, so only remembering failed states
        # stops the walk; seven boxes cannot cover eight columns
        boxes = tuple(kf.LabeledBox(c, y, 1, 1) for y in range(1, 7) for c in range(1, 9))
        start = time.perf_counter()
        assert kf.solve_box_bruteforce(kf.BoxInstance(9.0, 7.0, 7, boxes)) is None
        assert time.perf_counter() - start < 1.0
        # one row over column 1, and 24 boxes above the left edge over columns
        # 2..25, one each: the spare budget of 24 patches them all; trying the
        # combinations of fewer boxes first took 15 s
        boxes = (kf.LabeledBox(1, 1, 1, 1),) + tuple(kf.LabeledBox(c, 5, 1, -1) for c in range(2, 26))
        start = time.perf_counter()
        assert kf.solve_box_bruteforce(kf.BoxInstance(26.0, 2.0, 25, boxes)) == tuple(range(25))
        assert time.perf_counter() - start < 1.0

    def test_unsatisfiable_rows_answer_at_once(self):
        # rows 1..21 hold two boxes over the same column each, row 22 one box
        # over column 22 and one over column 23; at budget 0 one box per row
        # leaves column 22 or 23 open, which only the last row finds out, so
        # the walk used to try all 2**21 paths (2.5 s); both boxes of a row
        # leave the same columns missing, and that state is remembered
        boxes = tuple(kf.LabeledBox(r, r, 1, label) for r in range(1, 22) for label in (1, -1))
        boxes += (kf.LabeledBox(22, 22, 1, 1), kf.LabeledBox(23, 22, 1, -1))
        start = time.perf_counter()
        assert kf.solve_box_bruteforce(kf.BoxInstance(24.0, 23.0, 22, boxes)) is None
        assert time.perf_counter() - start < 1.0

    def test_deep_instance_past_the_recursion_limit(self):
        # 1,500 unit rows, one diagonal unit box each: the search holds one
        # row per level of its stack, which a recursive search could not at
        # the interpreter's default limit of 1,000 frames
        boxes = [kf.LabeledBox(1 + r, 1 + r, 1, r + 1) for r in range(1500)]
        assert kf.solve_box_bruteforce(kf.BoxInstance(1501, 1501, 1500, boxes)) == tuple(range(1500))
        boxes[-1] = kf.LabeledBox(1499, 1500, 1, 1500)  # leaves the last column open
        assert kf.solve_box_bruteforce(kf.BoxInstance(1501, 1501, 1500, boxes)) is None

    def test_huge_integer_bounds_answer_at_once(self):
        # one column per box end, not per unit of the bound
        boxes = (kf.LabeledBox(1, 1, 1e9 - 1, 1), kf.LabeledBox(1, 2, 1e9 - 1, -1))
        assert kf.solve_box_bruteforce(kf.BoxInstance(1e9, 3.0, 2, boxes)) == (0, 1)
        short = (kf.LabeledBox(1, 1, 5, 1), kf.LabeledBox(1, 2, 5, -1))
        assert kf.solve_box_bruteforce(kf.BoxInstance(1e9, 3.0, 2, short)) is None
        # more unit rows than boxes: some row is empty, no rows are listed
        assert kf.solve_box_bruteforce(kf.BoxInstance(1e9, 1e9, 2, boxes)) is None

    def test_non_integral_fallback(self):
        boxes = (
            kf.LabeledBox(1.0, 1.5, 2.0, 1),
            kf.LabeledBox(1.5, 1.0, 1.0, -1),
            kf.LabeledBox(2.0, 2.0, 1.0, 1),
        )
        inst = kf.BoxInstance(3.0, 3.0, 3, boxes)
        sel = kf.solve_box_bruteforce(inst)
        assert sel is not None
        assert kf.covers_boundaries(inst, sel)

    def test_non_integral_too_large(self):
        # every box lies on y in [1.5, 2.5]: the left edge [1, 3] has no cover,
        # which the per-axis covers show without the search the cap bounds
        boxes = tuple(kf.LabeledBox(1.0 + 0.5 * i, 1.5, 1.0, 1) for i in range(23))
        inst = kf.BoxInstance(14.0, 3.0, 23, boxes)
        assert kf.solve_box_bruteforce(inst) is None

    def test_non_integral_search_past_the_cap_raises(self):
        # 23 off-grid boxes whose per-axis covers fit in k: only the search
        # over subsets can answer, and it takes at most 22 boxes
        boxes = tuple(kf.LabeledBox(1.0 + 0.5 * i, 1.0 + 0.5 * (i % 2), 1.0, 1)
                      for i in range(23))
        with pytest.raises(ValueError, match="at most 22"):
            kf.solve_box_bruteforce(kf.BoxInstance(12.5, 2.5, 23, boxes))
        # at k = 5 the bottom edge alone needs more boxes: None, without the search
        assert kf.solve_box_bruteforce(kf.BoxInstance(12.5, 2.5, 5, boxes)) is None

    def test_certified_cover_past_the_cap(self, monkeypatch):
        # 23 off-grid boxes whose per-axis minimum covers settle the answer:
        # the bottom edge needs every other box, and any one box covers the
        # left edge, so the union of the two is a minimum cover and the cap,
        # which bounds only the tree walk, does not apply
        from kfrechet import intervals
        monkeypatch.setattr(intervals, "_axis_selections", None)  # the walk would fail
        boxes = tuple(kf.LabeledBox(1 + 0.5 * i, 1, 1, 1) for i in range(23))
        inst = kf.BoxInstance(12.5, 2.0, 23, boxes)
        assert kf.solve_box_bruteforce(inst) == tuple(range(0, 23, 2))
        assert kf.covers_boundaries(inst, tuple(range(0, 23, 2)))

    @pytest.mark.parametrize("tol", [1e-9, 1e-3])
    def test_off_grid_matches_subset_enumeration(self, tol, kfrechet_tol):
        # the joint-cover search returns a minimum cover, the reference the
        # first one by size: the same size, not always the same boxes
        kfrechet_tol(tol)
        rng = np.random.default_rng(18)
        covered = 0
        for _ in range(300):
            inst = off_grid_instance(rng, tol)
            got, want = kf.solve_box_bruteforce(inst), reference_subsets(inst, tol)
            assert (got is None) == (want is None), inst
            if got is not None:
                assert len(got) == len(want) and got == tuple(sorted(set(got)))
                chosen = [inst.boxes[i] for i in got]
                for ivs, end in zip(box_spans(chosen), (inst.x_max, inst.y_max)):
                    assert reference_union_covers(ivs, (1.0, end), tol)
                assert kf.covers_boundaries(inst, got)
                covered += 1
        assert 60 <= covered <= 240  # both answers are common

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 5.0, 1.0, -1.0])
    def test_tolerance_checked_on_every_path(self, tol, kfrechet_tol):
        grid = kf.build_box_instance(formula(1, (1, -1)))
        off_grid = kf.BoxInstance(3.0, 2.5, 2, (kf.LabeledBox(1.0, 1.0, 2.0, 1),
                                                 kf.LabeledBox(1.0, 1.5, 1.0, -1)))
        assert kf.solve_box_bruteforce(grid) is not None
        assert kf.solve_box_bruteforce(off_grid) == (0, 1)
        kfrechet_tol(tol)
        for inst in (grid, off_grid):
            with pytest.raises(ValueError, match="KFRECHET_TOL must be a finite number"):
                kf.solve_box_bruteforce(inst)

    @pytest.mark.parametrize("extra", ["past the right end", "above the left edge"])
    def test_box_outside_an_edge_stays_on_the_grid(self, extra):
        # 26 gadget boxes and one more: the subset search took at most 22
        f = kf.normalize_formula(formula(3, (1, 2, 3), (-1, -2), (2, -3)))
        base = kf.build_box_instance(f)
        x_max, y_max = int(base.x_max), int(base.y_max)
        box = (kf.LabeledBox(x_max - 1, 1, 3, 1) if extra == "past the right end"
               else kf.LabeledBox(1, y_max, 1, 1))
        inst = kf.BoxInstance(base.x_max, base.y_max, base.k, base.boxes + (box,))
        assert len(inst.boxes) == 27 and kf.sat_bruteforce(f) is not None
        sel = kf.solve_box_bruteforce(inst)
        assert sel is not None and len(sel) <= inst.k and kf.covers_boundaries(inst, sel)


    def test_float_grid_boxes_match_int_boxes(self, rng):
        # box_instance_from_json stores every coordinate as a float
        for _ in range(20):
            inst = kf.build_box_instance(kf.normalize_formula(random_formula(rng, 3, 4)))
            floats = kf.box_instance_from_json(kf.box_instance_to_json(inst))
            assert all(type(b.x) is float for b in floats.boxes)
            assert kf.solve_box_bruteforce(floats) == kf.solve_box_bruteforce(inst)


class TestSatBruteforce:
    def test_tautology(self):
        assert kf.sat_bruteforce(formula(1, (1, -1))) is not None

    def test_contradiction(self):
        assert kf.sat_bruteforce(formula(1, (1,), (-1,))) is None

    def test_too_many_vars(self):
        with pytest.raises(ValueError):
            kf.sat_bruteforce(formula(21, (1, 2)))

    def test_matches_truth_table(self, rng):
        for _ in range(40):
            f = random_formula(rng, 3, int(rng.integers(1, 6)))
            table = False
            for bits in itertools.product([False, True], repeat=3):
                assign = {1: bits[0], 2: bits[1], 3: bits[2]}
                if all(any(assign[abs(l)] == (l > 0) for l in c) for c in f.clauses):
                    table = True
                    break
            got = kf.sat_bruteforce(f)
            assert (got is not None) == table
            if got is not None:
                assert all(any(got[abs(l)] == (l > 0) for l in c) for c in f.clauses)


class TestReductionEquivalence:
    def test_assignment_maps_to_covering_selection(self, rng):
        for _ in range(25):
            f = kf.normalize_formula(random_formula(rng, int(rng.integers(1, 4)),
                                                    int(rng.integers(1, 4))))
            assignment = kf.sat_bruteforce(f)
            if assignment is None:
                continue
            inst = kf.build_box_instance(f)
            sel = kf.selection_from_assignment(inst, assignment)
            assert len(sel) == inst.k
            assert kf.covers_boundaries(inst, sel)

    def test_equivalence_on_random_formulas(self, rng):
        for _ in range(30):
            f = random_formula(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
            norm = kf.normalize_formula(f)
            sat = kf.sat_bruteforce(norm) is not None
            boxed = kf.solve_box_bruteforce(kf.build_box_instance(norm)) is not None
            assert sat == boxed
            # normalization preserves satisfiability
            assert sat == (kf.sat_bruteforce(f) is not None)


class TestSelectionChecks:
    @pytest.mark.parametrize("index", [-1, 2, 0.0, "1", None])
    def test_covers_boundaries_rejects_unknown_indices(self, index):
        # -1 once checked the last box, and box 1 alone covers
        inst = kf.BoxInstance(2.0, 2.0, 1, (kf.LabeledBox(1, 2, 1, 1), kf.LabeledBox(1, 1, 1, -1)))
        assert kf.covers_boundaries(inst, (1,)) and kf.covers_boundaries(inst, (np.int64(1),))
        with pytest.raises(KeyError, match="unknown box index"):
            kf.covers_boundaries(inst, (index,))

    def test_selection_from_assignment_names_the_missing_variable(self):
        inst = kf.build_box_instance(kf.normalize_formula(formula(2, (1, -2))))
        assert len(kf.selection_from_assignment(inst, {1: True, 2: False})) == inst.k
        with pytest.raises(ValueError, match="variable 2"):
            kf.selection_from_assignment(inst, {1: True})


class TestIo:
    def test_dimacs_round_trip(self, rng):
        f = random_formula(rng, 4, 5)
        again = kf.parse_dimacs(kf.write_dimacs(f))
        assert again == f

    def test_dimacs_comments_and_split_lines(self):
        text = "c example\np cnf 2 2\n1 -2 0\n2\n0\n"
        f = kf.parse_dimacs(text)
        assert f.num_vars == 2
        assert f.clauses == ((1, -2), (2,))

    def test_dimacs_errors(self):
        with pytest.raises(kf.FormulaError):
            kf.parse_dimacs("1 2 0\n")  # missing header
        with pytest.raises(kf.FormulaError):
            kf.parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause
        with pytest.raises(kf.FormulaError):
            kf.parse_dimacs("p cnf 2 5\n1 0\n")  # wrong clause count

    @pytest.mark.parametrize("header", ["p cnf x 1", "p cnf 1 x"])
    def test_dimacs_non_integer_header(self, header):
        with pytest.raises(kf.FormulaError, match="bad problem line"):
            kf.parse_dimacs(header + "\n1 0\n")

    @pytest.mark.parametrize("text, message", [
        ("p cnf 1_0 1\n1 0\n", "bad problem line: 'p cnf 1_0 1'"),
        ("p cnf 12 1\n1_0 0\n", "bad clause line: '1_0 0'"),
    ])
    def test_dimacs_underscore_rejected(self, text, message):
        # int() reads "1_0" as 10; a comment may hold an underscore
        with pytest.raises(kf.FormulaError, match=message):
            kf.parse_dimacs(text)
        assert kf.parse_dimacs("c my_formula\np cnf 1 1\n1 0\n").num_vars == 1

    def test_box_json_round_trip(self):
        inst = kf.build_box_instance(formula(1, (1, -1)))
        obj = kf.box_instance_to_json(inst)
        again = kf.box_instance_from_json(json.loads(json.dumps(obj)))
        assert again == inst

    def test_box_json_schema(self):
        inst = kf.build_box_instance(formula(1, (1, -1)))
        obj = kf.box_instance_to_json(inst)
        assert set(obj) == {"bound", "k", "boxes"}
        assert obj["bound"] == [5.0, 5.0]
        assert all(set(b) == {"x", "y", "w", "label"} for b in obj["boxes"])

    @pytest.mark.parametrize("field, value", [("x", math.nan), ("y", math.nan), ("w", math.nan),
                                              ("x", math.inf), ("y", math.inf), ("w", math.inf)])
    def test_non_finite_box_rejected(self, field, value):
        values = {"x": 1.0, "y": 1.0, "w": 1.0, **{field: value}}
        with pytest.raises(ValueError):
            kf.LabeledBox(values["x"], values["y"], values["w"], 1)

    @pytest.mark.parametrize("bound", [(math.nan, 3.0), (3.0, math.inf), (-math.inf, 3.0)])
    def test_non_finite_bound_rejected(self, bound):
        with pytest.raises(ValueError):
            kf.BoxInstance(*bound, 1, (kf.LabeledBox(1, 1, 1, 1),))

    @pytest.mark.parametrize("k", [1.5, 5.9, 2.0, -1, math.nan, "2", None])
    def test_budget_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="k must be"):
            kf.BoxInstance(3.0, 3.0, k, (kf.LabeledBox(1, 1, 1, 1),))

    @pytest.mark.parametrize("label", [0, -0.3, 1.0, math.nan, "1", None])
    def test_label_must_be_a_nonzero_integer(self, label):
        with pytest.raises(ValueError, match="label must be a nonzero integer"):
            kf.LabeledBox(1, 1, 1, label)

    def test_numpy_budget_and_label_accepted(self):
        inst = kf.BoxInstance(3.0, 2.0, np.int64(2), (kf.LabeledBox(1, 1, 1, np.int32(-1)),))
        assert inst.k == 2 and inst.boxes[0].label == -1
        # stored as Python ints, so the instance exports to JSON
        assert type(inst.k) is int and type(inst.boxes[0].label) is int
        obj = json.loads(json.dumps(kf.box_instance_to_json(inst)))
        assert (obj["k"], obj["boxes"][0]["label"]) == (2, -1)
        assert kf.box_instance_from_json(obj) == inst
        # numpy coordinates, widths and bounds are stored as Python numbers too
        box = kf.LabeledBox(np.int64(1), np.float64(1.0), np.int32(2), 1)
        inst = kf.BoxInstance(np.float64(4.0), np.int64(2), 1, (box,))
        assert [type(v) for v in (box.x, box.y, box.w, inst.x_max, inst.y_max)] == \
            [int, float, int, float, int]
        obj = json.loads(json.dumps(kf.box_instance_to_json(inst)))
        assert obj == {"bound": [4.0, 2], "k": 1,
                       "boxes": [{"x": 1, "y": 1.0, "w": 2, "label": 1}]}
        assert kf.box_instance_from_json(obj) == inst
        assert json.dumps(kf.box_instance_to_json(
            kf.BoxInstance(3.0, 2.0, 1, (kf.LabeledBox(np.int64(1), 1, 1, 1),))))

    @pytest.mark.parametrize("args", [(10**400, 1, 1), (1, 10**400, 1), (1, 1, 10**400),
                                      (2**1023, 1, 2**1023), (1e308, 1, 1e308),
                                      (10**400, 1, 1.0), (1.0, 1, 10**400), (1.5, 10**400, 1)])
    def test_box_beyond_float_range_rejected(self, args):
        # an int too large for a float, or a box ending past the largest float
        with pytest.raises(ValueError, match="finite"):
            kf.LabeledBox(*args, 1)

    @pytest.mark.parametrize("bound", [(10**400, 3), (3, 10**400)])
    def test_bound_beyond_float_range_rejected(self, bound):
        with pytest.raises(ValueError, match="finite"):
            kf.BoxInstance(*bound, 1, (kf.LabeledBox(1, 1, 1, 1),))

    @pytest.mark.parametrize("field", ["bound", "x", "y", "w"])
    def test_box_json_beyond_float_range(self, field):
        obj = {"bound": [3, 3], "k": 2, "boxes": [{"x": 1, "y": 1, "w": 1, "label": 1}]}
        if field == "bound":
            obj["bound"][0] = 10**400
        else:
            obj["boxes"][0][field] = 10**400
        with pytest.raises(ValueError, match="malformed box instance JSON"):
            kf.box_instance_from_json(obj)

    @pytest.mark.parametrize("bound", [(0.0, 0.0), (0.5, 0.5), (0.5, 3.0), (3.0, 0.5),
                                       (1.0, 3.0), (3.0, 1.0), (-2.0, 3.0)])
    def test_bound_of_one_or_less_rejected(self, bound):
        # the row-wise search answered None on (0.0, 0.0) and the subset search
        # () on (0.5, 0.5), both with no box to pick
        with pytest.raises(ValueError, match="greater than 1"):
            kf.BoxInstance(*bound, 0, ())

    @pytest.mark.parametrize("args", [("1", 1, 1), (1, "1", 1), (1, 1, "1"), (1, 1.5, None)])
    def test_box_of_non_numbers_rejected(self, args):
        # a string once reached the range checks and raised TypeError there
        with pytest.raises(ValueError, match="must be a number"):
            kf.LabeledBox(*args, 1)

    @pytest.mark.parametrize("bound", [("3", 3.0), (3.0, "3"), (None, 3)])
    def test_bound_of_non_numbers_rejected(self, bound):
        with pytest.raises(ValueError, match="must be a number"):
            kf.BoxInstance(*bound, 1, (kf.LabeledBox(1, 1, 1, 1),))

    @pytest.mark.parametrize("field", ["bound", "k", "x", "y", "w", "label"])
    @pytest.mark.parametrize("value", [True, False])
    def test_box_json_rejects_booleans(self, field, value):
        # Python reads JSON true as 1 and false as 0; neither is a number here
        obj = {"bound": [3, 3], "k": 2, "boxes": [{"x": 1, "y": 1, "w": 1, "label": 1}]}
        if field == "bound":
            obj["bound"][0] = value
        elif field == "k":
            obj["k"] = value
        else:
            obj["boxes"][0][field] = value
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            kf.box_instance_from_json(obj)

    @pytest.mark.parametrize("field", ["bound", "k", "x", "y", "w", "label"])
    @pytest.mark.parametrize("value", ["2", "1e0", "nan", None])
    def test_box_json_rejects_non_numbers(self, field, value):
        # float() would parse "2" as 2.0: a JSON string or null is no number
        obj = {"bound": [3, 3], "k": 2, "boxes": [{"x": 1, "y": 1, "w": 1, "label": 1}]}
        if field == "bound":
            obj["bound"][1] = value
        elif field == "k":
            obj["k"] = value
        else:
            obj["boxes"][0][field] = value
        with pytest.raises(ValueError, match=f"{field} must be a number, got {json.dumps(value)}"):
            kf.box_instance_from_json(obj)

    def test_box_json_malformed(self):
        with pytest.raises(ValueError):
            kf.box_instance_from_json({"bound": [5, 5]})


class TestValueTypes:
    """The three validating constructors keep the dataclass behaviour."""

    BOX = kf.LabeledBox(1, 2.5, 3, -1)
    INSTANCE = kf.BoxInstance(4.0, 3, 2, (BOX, kf.LabeledBox(2, 1, 1, 1)))
    FORMULA = kf.CnfFormula(2, ((1, -2), (2,)))
    CASES = [(BOX, (1, 2.5, 3, -1), "LabeledBox(x=1, y=2.5, w=3, label=-1)"),
             (INSTANCE, (4.0, 3, 2, INSTANCE.boxes),
              "BoxInstance(x_max=4.0, y_max=3, k=2, boxes=(LabeledBox(x=1, y=2.5, w=3, "
              "label=-1), LabeledBox(x=2, y=1, w=1, label=1)))"),
             (FORMULA, (2, ((1, -2), (2,))), "CnfFormula(num_vars=2, clauses=((1, -2), (2,)))")]

    @pytest.mark.parametrize("obj, fields, text", CASES)
    def test_fields_equality_hash_and_repr(self, obj, fields, text):
        assert dataclasses.astuple(obj) == dataclasses.astuple(type(obj)(*fields))
        assert obj == type(obj)(*fields) and hash(obj) == hash(type(obj)(*fields))
        assert hash(obj) == hash(fields)  # the hash of the field tuple, as before
        assert repr(obj) == text
        assert obj != dataclasses.replace(obj, **{dataclasses.fields(obj)[0].name: 5})

    @pytest.mark.parametrize("obj, fields, text", CASES)
    def test_replace_pickle_and_frozen(self, obj, fields, text):
        assert dataclasses.replace(obj) == obj
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            again = pickle.loads(pickle.dumps(obj, protocol))
            assert again == obj and hash(again) == hash(obj) and repr(again) == text
        name = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        assert getattr(obj, name) == fields[0]

    def test_replace_validates(self):
        assert dataclasses.replace(self.BOX, w=2).w == 2
        with pytest.raises(ValueError, match="box width"):
            dataclasses.replace(self.BOX, w=0.5)
        with pytest.raises(ValueError, match="k must be >= 0"):
            dataclasses.replace(self.INSTANCE, k=-1)
        with pytest.raises(kf.FormulaError, match="literal 3 out of range"):
            dataclasses.replace(self.FORMULA, clauses=((3,),))
        # numpy scalars given to replace are stored as Python numbers too
        box = dataclasses.replace(self.BOX, x=np.int64(2), y=np.float32(1.5), label=np.int8(4))
        assert [type(v) for v in dataclasses.astuple(box)] == [int, float, int, int]
        inst = dataclasses.replace(self.INSTANCE, x_max=np.float64(5.0), k=np.int16(1))
        assert [type(v) for v in (inst.x_max, inst.y_max, inst.k)] == [float, int, int]

    @pytest.mark.parametrize("make, message", [
        (lambda: kf.LabeledBox(1, 1, 0.5, 1), "box width must be a finite number >= 1, got 0.5"),
        (lambda: kf.LabeledBox(0, 1, 1, 1), "box coordinates must be finite and positive, and "
         "the box must end within the float range, got (0, 1) wide 1"),
        (lambda: kf.LabeledBox(1, 1, 1, 0), "box label must be a nonzero integer, got 0"),
        (lambda: kf.LabeledBox(1, 1, 1, 1.0), "box label must be a nonzero integer, got 1.0"),
        (lambda: kf.LabeledBox("1", 1, 1, 1), "x must be a number, got '1'"),
        (lambda: kf.LabeledBox(1, None, 1, 1), "y must be a number, got None"),
        (lambda: kf.BoxInstance(1.0, 3.0, 1, ()), "box bounds must be finite and greater than 1, "
         "got (1.0, 3.0)"),
        (lambda: kf.BoxInstance(3, "3", 1, ()), "y_max must be a number, got '3'"),
        (lambda: kf.BoxInstance(3, 3, 1.5, ()), "k must be an integer, got 1.5"),
        (lambda: kf.BoxInstance(3, 3, -1, ()), "k must be >= 0, got -1"),
        (lambda: kf.CnfFormula(0, ()), "formula needs at least one variable"),
        (lambda: kf.BoxInstance(3, 3, 2, (1, 2)), "box 0 must be a LabeledBox, got 1"),
        (lambda: kf.BoxInstance(3, 3, 2, [kf.LabeledBox(1, 1, 1, 1), None]),
         "box 1 must be a LabeledBox, got None"),
        (lambda: kf.BoxInstance(3, 3, 2, None), "boxes must be an iterable of LabeledBox, got None"),
        (lambda: kf.CnfFormula(2, None), "clauses must be an iterable of clauses, got None"),
        (lambda: kf.CnfFormula(2, (1, 2)), "clause 0 must be an iterable of literals, got 1"),
        (lambda: kf.CnfFormula(2, ((1,), 2)), "clause 1 must be an iterable of literals, got 2"),
        (lambda: kf.CnfFormula(2, ((1, 2, -1, -2),)), "clause 0 has size 4, expected 1..3"),
        (lambda: kf.CnfFormula(2, ((1,), ())), "clause 1 has size 0, expected 1..3"),
        (lambda: kf.CnfFormula(2, ((1, 3),)), "clause 0: literal 3 out of range"),
        (lambda: kf.CnfFormula(2, ((0,),)), "clause 0: literal 0 out of range"),
    ])
    def test_error_messages(self, make, message):
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == message

    def test_boxes_stored_as_a_tuple(self):
        # a list was stored as given, so the instance did not hash
        box = kf.LabeledBox(1, 1, 1, 1)
        inst = kf.BoxInstance(3, 3, 1, [box])
        assert inst.boxes == (box,) and type(inst.boxes) is tuple
        assert inst == kf.BoxInstance(3, 3, 1, (box,))
        assert hash(inst) == hash(kf.BoxInstance(3, 3, 1, iter([box])))
