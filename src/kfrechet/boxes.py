"""3-SAT to box-covering reduction workbench.

A formula is turned into a rectangle B filled with labelled unit-height
boxes such that B's bottom and left boundaries can be covered by at most
k of the boxes exactly when the formula is satisfiable. Construction at
a glance: per variable two boxes in the variable columns (one per
polarity), per literal occurrence a wide/unit box pair in the split
columns, and per occurrence one box over its clause column. Every unit
row of the left boundary ends up with exactly two boxes of opposite
labels, and k is half the box count, so a covering selection must pick
exactly one box per row; that choice is the variable assignment.

Literals are signed integers: +v / -v for variable v in 1..n.

:class:`CnfFormula`, :class:`LabeledBox` and :class:`BoxInstance` are
frozen dataclasses whose one ``__init__`` each checks and converts its
arguments first (a numpy scalar is stored as a Python int or float) and
then writes each field once into the instance ``__dict__``. Equality,
hashing, ``repr`` and pickling stay the dataclass's own, and
``dataclasses.replace`` goes through the same ``__init__``. A query of the
reduction builds a formula twice and a few dozen boxes, so the constructors
are a fair share of its time.

Only :mod:`kfrechet.intervals` and :mod:`kfrechet.config` are imported,
neither of which needs numpy, so the box commands start without the curve
layers. Off the integer grid the box question is the curve decider's own
joint-cover question on the boxes' projections, and it is answered by the
same search, :func:`kfrechet.intervals._min_joint_cover`.
"""

from __future__ import annotations

import json
import operator
import sys
from dataclasses import dataclass

from .config import _budget, default_tol
from .intervals import _axes_covered, _min_joint_cover

_MAX = sys.float_info.max  # compares exactly with ints, so one too large for a float fails


def _real(value, name: str):
    """``value`` as a Python number: a numpy integer, say, as an int, and
    another real number as a float. A value that is neither, such as a
    string, raises ``ValueError``."""
    if type(value) is int or type(value) is float:
        return value
    if hasattr(type(value), "__index__"):
        return operator.index(value)
    if hasattr(type(value), "__float__"):
        return float(value)
    raise ValueError(f"{name} must be a number, got {value!r}")


class FormulaError(ValueError):
    """Raised for malformed CNF input."""


def _integer(value, name: str) -> int:
    """``value`` as a Python int, read with ``operator.index``: a float, even
    an integral one, or a string such as ``"1"`` raises ``FormulaError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise FormulaError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, init=False)
class CnfFormula:
    """``num_vars`` >= 1 variables and a tuple of clauses, each a tuple of 1 to 3
    nonzero literals within ``-num_vars..num_vars``, all Python ints."""

    num_vars: int
    clauses: tuple

    def __init__(self, num_vars, clauses):
        if type(num_vars) is not int:
            num_vars = _integer(num_vars, "num_vars")
        if num_vars < 1:
            raise FormulaError("formula needs at least one variable")
        norm = []
        try:
            numbered = enumerate(clauses)
        except TypeError:
            raise FormulaError(f"clauses must be an iterable of clauses, got {clauses!r}") from None
        for idx, clause in numbered:
            try:  # a generator expression calls iter(clause) where it is made
                lits = (lit if type(lit) is int else _integer(lit, f"clause {idx}: literal")
                        for lit in clause)
            except TypeError:
                raise FormulaError(f"clause {idx} must be an iterable of literals, "
                                   f"got {clause!r}") from None
            lits = tuple(lits)
            if not 1 <= len(lits) <= 3:
                raise FormulaError(f"clause {idx} has size {len(lits)}, expected 1..3")
            for lit in lits:
                if lit == 0 or abs(lit) > num_vars:
                    raise FormulaError(f"clause {idx}: literal {lit} out of range")
            norm.append(lits)
        fields = self.__dict__
        fields["num_vars"] = num_vars
        fields["clauses"] = tuple(norm)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


@dataclass(frozen=True, init=False)
class LabeledBox:
    """Axis-aligned unit-height box with bottom-left corner (x, y); label: a nonzero int.

    Numbers are stored as Python ints and floats, and the box must end
    within the float range."""

    x: float
    y: float
    w: float
    label: int

    def __init__(self, x, y, w, label):
        # plain ints, as build_box_instance gives, skip the conversion
        if not type(x) is type(y) is type(w) is type(label) is int:
            x, y, w = _real(x, "x"), _real(y, "y"), _real(w, "w")
            if hasattr(type(label), "__index__"):  # others fail the label check below
                label = operator.index(label)
        # a comparison with NaN is False, so NaN fails these checks too; both
        # ends of the box must be at most _MAX, so the corner and width are too
        try:
            inside = 1 <= w and 0 < x and 0 < y and x + w <= _MAX and y + 1 <= _MAX
        except OverflowError:  # an int past the float range plus a float
            inside = False
        if not inside:
            if not 1.0 <= w <= _MAX:
                raise ValueError(f"box width must be a finite number >= 1, got {w}")
            raise ValueError("box coordinates must be finite and positive, and the box "
                             f"must end within the float range, got ({x}, {y}) wide {w}")
        if not isinstance(label, int) or label == 0:
            raise ValueError(f"box label must be a nonzero integer, got {label!r}")
        fields = self.__dict__
        fields["x"] = x
        fields["y"] = y
        fields["w"] = w
        fields["label"] = label


@dataclass(frozen=True, init=False)
class BoxInstance:
    """Bounding rectangle spanning (1, 1)..(x_max, y_max), both bounds > 1, plus boxes
    and budget k >= 0. ``boxes`` is stored as a tuple of :class:`LabeledBox`."""

    x_max: float
    y_max: float
    k: int
    boxes: tuple

    def __init__(self, x_max, y_max, k, boxes):
        x_max, y_max = _real(x_max, "x_max"), _real(y_max, "y_max")
        # B's two boundaries need a length: on a bound of 1 or less the row-wise
        # search and the cover search of solve_box_bruteforce would disagree
        if not (1.0 < x_max <= _MAX and 1.0 < y_max <= _MAX):
            raise ValueError("box bounds must be finite and greater than 1, "
                             f"got ({x_max}, {y_max})")
        if type(boxes) is not tuple:  # a list, say: stored as a tuple, so the instance hashes
            try:
                boxes = tuple(boxes)
            except TypeError:
                raise ValueError(f"boxes must be an iterable of LabeledBox, got {boxes!r}") from None
        for box in boxes:  # a plain loop: cheaper than all(map(isinstance, ...))
            if not isinstance(box, LabeledBox):
                idx = next(i for i, b in enumerate(boxes) if b is box)
                raise ValueError(f"box {idx} must be a LabeledBox, got {box!r}")
        fields = self.__dict__
        fields["x_max"] = x_max
        fields["y_max"] = y_max
        fields["k"] = _budget(k)
        fields["boxes"] = boxes


def normalize_formula(formula: CnfFormula) -> CnfFormula:
    """Drop duplicate literals per clause; give every variable both polarities.

    For a variable that never occurs positive (or never negated) the
    always-true clause (v or not v) is appended, leaving satisfiability
    unchanged.
    """
    clauses = []
    for idx, clause in enumerate(formula.clauses):
        seen = []
        for lit in clause:
            if lit not in seen:
                seen.append(lit)
        if not seen:
            raise FormulaError(f"clause {idx} empty after deduplication")
        clauses.append(tuple(seen))
    polarity = {v: [False, False] for v in range(1, formula.num_vars + 1)}
    for clause in clauses:
        for lit in clause:
            polarity[abs(lit)][0 if lit > 0 else 1] = True
    for v in range(1, formula.num_vars + 1):
        pos, neg = polarity[v]
        if not (pos and neg):
            clauses.append((v, -v))
    return CnfFormula(formula.num_vars, tuple(clauses))


def build_box_instance(formula: CnfFormula) -> BoxInstance:
    """Place the gadget boxes for a normalized formula.

    Requires every variable to occur in both polarities (run
    :func:`normalize_formula` first). The resulting instance has
    4n + 2*(m1 + 2*m2 + 3*m3) boxes and budget k = 2n + m1 + 2*m2 + 3*m3.
    """
    n = formula.num_vars
    # per variable, the clauses (1-based, in order) where it occurs positive, and negated
    pos = [[] for _ in range(n + 1)]
    neg = [[] for _ in range(n + 1)]
    occ = 0
    for h, clause in enumerate(formula.clauses, start=1):
        occ += len(clause)
        for lit in clause:
            (pos[lit] if lit > 0 else neg[-lit]).append(h)
    sp_n = sum(map(len, pos))  # the positive occurrences
    clause_col = n + occ  # past the variable and split columns: clause h's is clause_col + h

    boxes = []
    for i in range(1, n + 1):
        if not pos[i] or not neg[i]:
            raise FormulaError(f"variable {i} misses a polarity; normalize first")
        boxes.append(LabeledBox(i, i, 1, -i))
        boxes.append(LabeledBox(i, i + n + sp_n, 1, i))
    # Per variable and polarity a wide box, then per occurrence a unit box on
    # the diagonal of the split columns and, in its row, a box over the
    # occurrence's clause column; the clause boxes go last, positive ones first.
    clause_boxes = []
    split = n  # the last split column (and its row) placed so far
    for i in range(1, n + 1):
        boxes.append(LabeledBox(1 + split, i, len(pos[i]), i))
        for h in pos[i]:
            split += 1
            boxes.append(LabeledBox(split, split, 1, -i))
            clause_boxes.append(LabeledBox(clause_col + h, split, 1, i))
    for i in range(1, n + 1):
        boxes.append(LabeledBox(1 + split, n + sp_n + i, len(neg[i]), -i))
        for h in neg[i]:
            split += 1
            boxes.append(LabeledBox(split, n + split, 1, i))
            clause_boxes.append(LabeledBox(clause_col + h, n + split, 1, -i))
    boxes += clause_boxes

    if len(boxes) != 4 * n + 2 * occ:
        raise RuntimeError("box count does not match the closed form")
    return BoxInstance(
        x_max=float(1 + clause_col + formula.num_clauses),
        y_max=float(1 + 2 * n + occ),
        k=2 * n + occ,
        boxes=tuple(boxes),
    )


_OFF_GRID = object()  # _solve_rowwise's answer for an instance off the integer grid


def _axes(instance: BoxInstance, boxes) -> tuple:
    """The (id, lo, hi) x and y projections of ``boxes``, ids by position, and
    the ends of B's bottom and left edge."""
    return ([(i, b.x, b.x + b.w) for i, b in enumerate(boxes)],
            [(i, b.y, b.y + 1.0) for i, b in enumerate(boxes)],
            (1.0, float(instance.x_max)), (1.0, float(instance.y_max)))


def solve_box_bruteforce(instance: BoxInstance):
    """A selection of at most k boxes covering both target boundaries, or None.

    Covering means: the x-projections of the selected boxes cover B's
    bottom edge [1, x_max] and their y-projections cover the left edge
    [1, y_max], with gaps of at most the tolerance (``KFRECHET_TOL``, see
    :mod:`kfrechet.config`) forgiven. Returns a sorted tuple of box
    indices. For B boxes:

    - On the integer grid (integral bounds, corners and widths) each of the
      R unit rows of the left edge needs a box of its own, so the row-wise
      search picks one box per row, rows and boxes in order, and returns the
      first cover it meets; the spare budget b = k - R patches the C bottom
      columns the rows leave (the pieces between box ends, at most 2B + 1).
      It forces rows: a choice drops the other boxes of its row, and each
      missing column that lost a box is rechecked. One that no allowed box
      covers must be patched, and prunes the choice when the columns to
      patch would need more than b boxes; one with a single allowed box
      forces that box's row to it when patching it too would. At b = 0, as
      in every :func:`build_box_instance` gadget, both happen at once. Only
      choices that hold no cover are pruned, so the first cover is the
      plain row search's. The patch is one O(C) greedy pass: the box over
      the lowest column to patch that reaches farthest right, again and
      again; a box above the rows may patch. Each state (allowed boxes,
      missing columns, columns to patch) found to hold no cover is
      remembered; at every budget the states per row are at most the
      product of the earlier row sizes. The search is one loop over an
      explicit stack of the rows on its path, so its depth is bounded by
      memory, not by the interpreter's recursion limit, and what it builds
      is freed by reference counting when it returns, with no cyclic
      garbage left for the collector.
    - Off the grid, the curve decider's joint-cover search
      :func:`kfrechet.intervals._min_joint_cover`, walking x, returns a
      minimum cover. Its certificate (the per-axis minimum covers) answers
      without the tree where it can; each tree path is a distinct subset of
      at most k boxes, so the tree walks at most 2**22 paths, and B > 22
      raises ValueError where it would run (the search's ``cap``).
    """
    tol = default_tol()
    selection = _solve_rowwise(instance)
    if selection is not _OFF_GRID:
        return selection
    return _min_joint_cover(*_axes(instance, instance.boxes), instance.k, tol, cap=22)


def _solve_rowwise(instance: BoxInstance):
    x_max, y_max, boxes = instance.x_max, instance.y_max, instance.boxes
    if not (float(x_max).is_integer() and float(y_max).is_integer()):
        return _OFF_GRID
    end = int(x_max)  # the grid's bounds as ints, so all the setup compares ints
    n_rows = int(y_max) - 1
    lefts, rights, rows_of = [], [], []
    for b in boxes:
        x, y, w = b.x, b.y, b.w
        # an int is on the grid: LabeledBox keeps it within the float range
        if not type(x) is type(y) is type(w) is int:
            if not (float(x).is_integer() and float(y).is_integer() and float(w).is_integer()):
                return _OFF_GRID
            x, y, w = int(x), int(y), int(w)
        right = x + w  # x >= 1: the box's columns inside [1, x_max] end at x_max
        lefts.append(x if x < end else end)
        rights.append(right if right < end else end)
        rows_of.append(y - 1)
    budget = instance.k - n_rows
    if n_rows > len(boxes) or budget < 0:  # a row is empty, or k is short of a box per row
        return None

    # Columns are the pieces of the bottom edge between consecutive box ends:
    # a box covers a piece whole or not at all, so covering every piece covers
    # the edge, with at most 2*boxes + 1 columns whatever the bound.
    cuts = sorted({1, end, *lefts, *rights})
    column = dict(zip(cuts, range(len(cuts))))
    col_masks = []
    rows = [[] for _ in range(n_rows)]  # per row, (box, the columns it leaves)
    covers = [0] * n_rows  # per row, the columns its boxes cover
    row_bits = [0] * n_rows  # per row, its boxes as bits of their indices
    over = [0] * (len(cuts) - 1)  # per column, the row boxes covering it, as bits
    once = shared = 0  # the columns under at least one row box, and under two
    for idx, (row, lo, hi) in enumerate(zip(rows_of, map(column.__getitem__, lefts),
                                            map(column.__getitem__, rights))):
        mask = (1 << hi) - (1 << lo)
        col_masks.append(mask)
        if row >= n_rows:  # above the left edge (y >= 1 on the grid): in no row, but may patch
            continue
        rows[row].append((idx, ~mask))
        covers[row] |= mask
        bit = 1 << idx
        row_bits[row] |= bit
        if hi - lo == 1:  # most boxes: the loop below costs more
            over[lo] |= bit
        else:
            for c in range(lo, hi):
                over[c] |= bit
        shared |= once & mask
        once |= mask
    if not all(rows):
        return None

    farthest = []  # per column, (reach, -box) of the box over it reaching farthest right

    def force(allowed: int, missing: int, must: int, spare: tuple, check: int):
        """Recheck the missing columns ``check`` and return the state after
        forcing: the allowed boxes, the missing columns, ``must`` (the columns
        no allowed box covers, no longer missing) and ``spare`` (their patch,
        at most the spare budget of boxes). A column with at most one allowed
        box needs it or the patch. While the patch of ``must`` and the column
        fits, one with no box joins ``must`` and one with a box waits (it fits
        while the patch has room, so every missing column is rechecked when it
        fills). Otherwise one with no box answers None, and one with a box
        forces that box's row to it, whose dropped boxes are rechecked too."""
        check &= missing
        while check:
            low = check & -check
            check ^= low
            if not missing & low:  # covered by a row forced since, or patched
                continue
            left = over[low.bit_length() - 1] & allowed
            if left & (left - 1):
                continue
            if left and len(spare) < budget:  # one more patch box, such as that box
                continue
            # The patch: box masks are runs of columns, so covering the lowest
            # column by the box reaching farthest right, again and again,
            # takes fewest boxes. Each box of the patch of ``must`` covers a
            # column of it, which no allowed box covers, so no row picks it.
            patched, extra = must | low, ()
            while patched and len(extra) < budget:
                if not farthest:  # one sweep, on the first patch that needs it
                    starts = [(0, 0)] * len(over)  # per column, the best box starting there
                    for idx, mask in enumerate(col_masks):
                        # (0, -idx) of a box past x_max, which covers no column, never wins
                        lo, here = (mask & -mask).bit_length() - 1, (mask.bit_length(), -idx)
                        if here > starts[lo]:
                            starts[lo] = here
                    best = (0, 0)  # ties go to the lowest box index
                    for here in starts:
                        if here > best:
                            best = here
                        farthest.append(best)
                c = (patched & -patched).bit_length() - 1
                reach, idx = farthest[c]
                if reach <= c:  # no box over column c
                    break
                extra += (-idx,)
                patched &= ~col_masks[-idx]
            if not patched:
                if not left:
                    missing ^= low
                    must |= low
                    spare = extra
                    if len(spare) == budget:  # a column with one box may not fit now
                        check |= missing
                continue
            if not left:
                return None
            idx = left.bit_length() - 1
            row = rows_of[idx]
            allowed &= ~row_bits[row] | left
            missing &= ~col_masks[idx]
            check |= covers[row] & missing
        return allowed, missing, must, spare

    # A state is what force returns. The boxes of the rows not yet reached stay
    # allowed until a choice forces their row, and a choice drops the other
    # boxes of its row, so the allowed boxes also name the row. Whether a state
    # holds a cover depends on nothing else, so the states found to hold none
    # are remembered. After the last row no row box is allowed, so every column
    # is covered or patched.
    target = (1 << (len(cuts) - 1)) - 1
    state = force((1 << len(boxes)) - 1, target, 0, (), target & ~shared)
    if state is None:
        return None
    # A depth-first search over the rows as one loop, so that no function
    # refers to itself (a reference cycle) and the depth is not bounded by the
    # recursion limit: the locals hold row r's start and the position in it of
    # the next box to try, and ``path`` holds the same for each row above r,
    # with the box it chose and the state that box left. A row whose boxes run
    # out is popped, and the state its parent's choice left holds no cover.
    failed = set()
    path = []
    r = pos = 0
    while True:
        if not pos:  # entering row r with the state the row above left
            allowed, missing, must, spare = state
            mine = allowed & row_bits[r]
            rest = allowed ^ mine
            # a choice drops the row's other boxes; a forced row has dropped them
            lost = covers[r] if mine == row_bits[r] else 0
        row = rows[r]
        for pos in range(pos, len(row)):
            idx, keep = row[pos]
            if not mine >> idx & 1:  # dropped when the row was forced
                continue
            state = force(rest, missing & keep, must, spare, lost)
            if state is not None and state not in failed:
                break
        else:
            if not path:
                return None
            r -= 1
            pos, idx, state, mine, rest, missing, must, spare, lost = path.pop()
            failed.add(state)
            continue
        path.append((pos + 1, idx, state, mine, rest, missing, must, spare, lost))
        r += 1
        if r == n_rows:
            return tuple(sorted([frame[1] for frame in path] + list(state[3])))
        pos = 0


def sat_bruteforce(formula: CnfFormula):
    """Exhaustive satisfying assignment search, or None. Needs n <= 20."""
    n = formula.num_vars
    if n > 20:
        raise ValueError(f"too many variables for brute force: {n} > 20")
    for mask in range(1 << n):
        assignment = {v: bool(mask >> (v - 1) & 1) for v in range(1, n + 1)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in formula.clauses
        ):
            return assignment
    return None


def selection_from_assignment(instance: BoxInstance, assignment: dict) -> tuple:
    """Box indices implied by a truth assignment.

    Picks every box labelled v with v true and every box labelled -v with
    v false; for a satisfying assignment of the source formula this
    selection has size exactly k and covers both boundaries. A variable
    that a box label names and the assignment lacks raises ``ValueError``.
    """
    lacking = {abs(b.label) for b in instance.boxes}.difference(assignment)
    if lacking:
        raise ValueError(f"the assignment has no value for variable {min(lacking)}")
    return tuple(
        idx for idx, b in enumerate(instance.boxes)
        if assignment[abs(b.label)] == (b.label > 0)
    )


def covers_boundaries(instance: BoxInstance, indices) -> bool:
    """Whether the given boxes cover B's bottom and left boundary. An index
    that is no box's, such as one that is no integer, raises KeyError."""
    tol = default_tol()
    picked = []
    for i in indices:
        if not (hasattr(type(i), "__index__") and 0 <= i < len(instance.boxes)):
            raise KeyError(f"unknown box index {i!r}")
        picked.append(instance.boxes[i])
    return _axes_covered(*_axes(instance, picked), tol)


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF (``p cnf <vars> <clauses>`` header, 0-terminated clauses)."""
    num_vars = None
    declared = None
    tokens: list[int] = []
    underscores = "_" in text  # int() reads "1_0" as 10
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("c") or stripped.startswith("%"):
            continue
        if underscores and "_" in stripped:
            raise FormulaError(f"bad {'problem' if stripped.startswith('p') else 'clause'} "
                               f"line: {stripped!r}")
        if stripped.startswith("p"):
            parts = stripped.split()
            try:
                num_vars, declared = map(int, parts[2:]) if parts[1:2] == ["cnf"] else ()
            except ValueError:  # not "cnf", not two counts, or a count not an integer
                raise FormulaError(f"bad problem line: {stripped!r}") from None
            continue
        try:
            tokens.extend(int(t) for t in stripped.split())
        except ValueError as exc:
            raise FormulaError(f"bad clause line: {stripped!r}") from exc
    if num_vars is None:
        raise FormulaError("missing 'p cnf' header")
    clauses = []
    current: list[int] = []
    for tok in tokens:
        if tok == 0:
            if current:
                clauses.append(tuple(current))
                current = []
        else:
            current.append(tok)
    if current:
        raise FormulaError("last clause not terminated by 0")
    if declared is not None and declared != len(clauses):
        raise FormulaError(f"header declares {declared} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def write_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    lines.extend(" ".join(str(l) for l in clause) + " 0" for clause in formula.clauses)
    return "\n".join(lines) + "\n"


def box_instance_to_json(instance: BoxInstance) -> dict:
    return {
        "bound": [instance.x_max, instance.y_max],
        "k": instance.k,
        "boxes": [
            {"x": b.x, "y": b.y, "w": b.w, "label": b.label}
            for b in instance.boxes
        ],
    }


def _number(value, name: str):
    """``value`` if it is a JSON number: not true or false, which Python reads as
    1 or 0, nor a string, which ``float`` would parse as the number it spells."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {json.dumps(value, default=repr)}")
    return value


def box_instance_from_json(obj: dict) -> BoxInstance:
    try:
        x_max, y_max = (float(_number(v, "bound")) for v in obj["bound"])
        boxes = tuple(
            LabeledBox(*(float(_number(b[key], key)) for key in "xyw"), _number(b["label"], "label"))
            for b in obj["boxes"]
        )
        return BoxInstance(x_max=x_max, y_max=y_max, k=_number(obj["k"], "k"), boxes=boxes)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:  # Overflow: float(10**400)
        raise ValueError(f"malformed box instance JSON: {exc}") from exc
