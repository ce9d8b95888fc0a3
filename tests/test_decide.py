import dataclasses
from pathlib import Path

import numpy as np
import pytest

import kfrechet as kf
from kfrechet import intervals
from kfrechet.freespace import FreeSpaceGrid
from conftest import (SIX_COMPONENT_PAIR, axis_cover, axis_intervals, epsilon_probes,
                      exhaustive_decide, exhaustive_min_selection_size, random_pair, stub_diagram)
import oracles


def diagonal_diagram(eps=1.0):
    P = kf.PolyCurve([(0, 0), (1, 0)])
    Q = kf.PolyCurve([(0, 1), (1, 1)])
    return kf.build_diagram(P, Q, eps)


FREE, SHUT = (0.0, 1.0), (np.inf, -np.inf)  # a wholly free and an empty edge


def edge_diagram(vert, horiz):
    """A diagram holding only hand-set cell edges: ``vert`` (n+1, m) and
    ``horiz`` (n, m+1) nested lists of (lo, hi), as in :class:`FreeSpaceGrid`."""
    vert, horiz = np.array(vert, dtype=float), np.array(horiz, dtype=float)
    n, m = horiz.shape[0], vert.shape[1]
    shut = np.full((n, m, 2), SHUT)
    grid = FreeSpaceGrid(vert=vert, horiz=horiz, s_proj=shut, t_proj=shut)
    return kf.FreeSpaceDiagram(epsilon=1.0, n=n, m=m, cells=grid, components=(), z=0)


def strong_both_ways(vert, horiz):
    """The strong decision on the edge diagram and on its transpose (P and Q
    swapped), which must agree."""
    d = edge_diagram(vert, horiz)
    flipped = edge_diagram(d.cells.horiz.transpose(1, 0, 2), d.cells.vert.transpose(1, 0, 2))
    answer = kf.decide_strong_frechet(d)
    assert kf.decide_strong_frechet(flipped) == answer
    return answer


def six_component_diagram():
    pv, qv, eps = SIX_COMPONENT_PAIR
    return kf.build_diagram(kf.PolyCurve(pv), kf.PolyCurve(qv), eps)


class TestCoversBoth:
    def test_diagonal(self):
        d = diagonal_diagram()
        assert kf.covers_both(d, (0,))

    def test_empty_selection(self):
        d = diagonal_diagram()
        assert not kf.covers_both(d, ())

    def test_unknown_id(self):
        d = diagonal_diagram()
        with pytest.raises(KeyError):
            kf.covers_both(d, (5,))
        for cid in ("0", None, 0.0):  # not an integer: unknown, not a TypeError
            with pytest.raises(KeyError, match="unknown component id"):
                kf.covers_both(d, [cid])

    def test_two_half_covers_combine(self):
        # each component covers one axis fully and half of the other
        d = stub_diagram(1, 1, [((0.0, 1.0), (0.0, 0.5)), ((0.2, 0.6), (0.0, 1.0))])
        assert not kf.covers_both(d, (0,))
        assert not kf.covers_both(d, (1,))
        assert kf.covers_both(d, (0, 1))


class TestPreprocess:
    def test_single_component_is_necessary(self):
        d = diagonal_diagram()
        pre = oracles.preprocess(d)
        assert pre.necessary == (0,)
        assert pre.kept == (0,)
        assert pre.dropped == ()

    def test_contained_box_pruned(self):
        d = stub_diagram(1, 1, [((0.0, 1.0), (0.0, 1.0)), ((0.2, 0.5), (0.3, 0.4))])
        pre = oracles.preprocess(d)
        assert 1 in pre.dropped
        assert 0 in pre.kept

    def test_identical_boxes_keep_smaller_id(self):
        d = stub_diagram(1, 1, [((0.0, 0.6), (0.0, 0.6)), ((0.0, 0.6), (0.0, 0.6))])
        pre = oracles.preprocess(d)
        assert pre.dropped == (1,)
        assert pre.kept == (0,)
        # neither uniquely covers anything
        assert len(pre.necessary) == 0

    def test_necessary_is_exact_at_tolerance_scale(self):
        # gaps and overlaps of 0.45e-9 and 0.9e-9 around the 1e-9 tolerance
        d = stub_diagram(1, 1, [
            ((0.5000000009, 0.99999999955), (-9e-10, 0.24999999955)),
            ((0.2499999991, 0.75), (0.74999999955, 0.9999999991)),
            ((0.25000000045, 0.75), (0.5, 1.0000000009)),
            ((4.5e-10, 0.24999999955), (0.2499999991, 0.5)),
            ((0.25000000045, 0.50000000045), (-4.5e-10, 0.9999999991)),
            ((0.0, 0.2499999991), (0.2500000009, 0.5))])
        without = oracles.decide_bruteforce(d, 3, use_preprocess=False)
        assert without is not None and kf.covers_both(d, without)
        assert oracles.decide_bruteforce(d, 3) == without
        necessary = oracles.preprocess(d).necessary
        assert set(necessary) <= set(without)
        everyone = range(len(d.components))
        for cid in everyone:
            others = [o for o in everyone if o != cid]
            assert (cid in necessary) == (not kf.covers_both(d, others))
        assert exhaustive_min_selection_size(d) == kf.minimize_k(d) == 3

    def test_necessary_disjoint_from_dropped(self, rng):
        for _ in range(30):
            P, Q = random_pair(rng, 5)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.2, 0.9)))
            pre = oracles.preprocess(d)
            assert not set(pre.necessary) & set(pre.dropped)

    def test_decisions_unchanged_by_preprocess(self, rng):
        checked = 0
        for _ in range(40):
            P, Q = random_pair(rng, 5)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.2, 0.9)))
            if len(d.components) > 8:
                continue
            for k in range(0, 4):
                with_pre = oracles.decide_bruteforce(d, k, use_preprocess=True)
                without = oracles.decide_bruteforce(d, k, use_preprocess=False)
                assert (with_pre is None) == (without is None)
                if with_pre is not None:
                    assert kf.covers_both(d, with_pre)
                    assert kf.covers_both(d, without)
            checked += 1
        assert checked >= 15

    def test_necessary_in_every_covering_selection(self, rng):
        import itertools
        seen = 0
        for _ in range(30):
            P, Q = random_pair(rng, 4)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.3, 0.9)))
            if not (1 <= len(d.components) <= 7):
                continue
            pre = oracles.preprocess(d)
            ids = [c.id for c in d.components]
            for size in range(len(ids) + 1):
                for combo in itertools.combinations(ids, size):
                    if kf.covers_both(d, combo):
                        assert set(pre.necessary) <= set(combo)
                        seen += 1
        assert seen > 0


class TestBruteforce:
    def test_diagonal_k1(self):
        d = diagonal_diagram()
        assert oracles.decide_bruteforce(d, 1) == (0,)

    def test_no_cover_at_any_k(self):
        d = diagonal_diagram(0.5)  # empty free space
        for k in range(4):
            assert oracles.decide_bruteforce(d, k) is None

    def test_six_component_fixture(self):
        d = six_component_diagram()
        assert len(d.components) == 6
        assert oracles.decide_bruteforce(d, 1) is None
        sel = oracles.decide_bruteforce(d, 2)
        assert sel == (0, 4)  # deterministic first-found
        assert kf.covers_both(d, sel)
        # independent exhaustive-subset oracle
        assert exhaustive_min_selection_size(d) == 2

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            oracles.decide_bruteforce(diagonal_diagram(), -1)


class TestFpt:
    def test_diagonal_k1(self):
        d = diagonal_diagram()
        assert kf.decide_fpt(d, 1) == (0,)

    def test_k0_is_none(self):
        assert kf.decide_fpt(diagonal_diagram(), 0) is None

    def test_matches_bruteforce_on_random_corpus(self, rng):
        checked = 0
        for _ in range(60):
            P, Q = random_pair(rng)
            for eps in epsilon_probes(rng, P, Q, count=2):
                d = kf.build_diagram(P, Q, eps)
                if len(d.components) > 10:
                    continue
                for k in range(0, 4):
                    brute = oracles.decide_bruteforce(d, k)
                    fpt = kf.decide_fpt(d, k)
                    assert (brute is None) == (fpt is None), (P.vertices, Q.vertices, eps, k)
                    if fpt is not None:
                        assert len(fpt) <= k
                        assert kf.covers_both(d, fpt)
                        assert kf.covers_both(d, brute)
                checked += 1
        assert checked >= 40

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(25):
            P, Q = random_pair(rng, 4)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.2, 0.9)))
            if len(d.components) > 8:
                continue
            for k in (1, 2, 3):
                oracle = exhaustive_decide(d, k)
                assert (kf.decide_fpt(d, k) is None) == (oracle is None)

    @pytest.mark.parametrize("projections, minimum", [
        # path (0,) needs two more components on q, so the best has 3 when
        # path (1,) comes: it needs one more, (3,), and that cover wins
        ([((0, 1), (0, .3)), ((0, 1), (0, .6)), ((.4, .5), (.3, .7)), ((.4, .5), (.6, 1))],
         (1, 3)),
        # path (0,) needs one more, (2,); path (1,) covers q alone and wins
        ([((0, 1), (0, .5)), ((0, 1), (0, 1)), ((.4, .5), (.5, 1))], (1,)),
    ])
    def test_later_path_with_a_cheaper_completion_wins(self, projections, minimum):
        d = stub_diagram(1, 1, projections)
        assert exhaustive_min_selection_size(d) == len(minimum)
        for k in (len(minimum), len(projections)):
            assert kf.decide_fpt(d, k) == minimum
        assert kf.decide_fpt(d, len(minimum) - 1) is None
        assert kf.minimize_k(d) == len(minimum)

    def test_feasible_paths_respect_depth(self):
        d = six_component_diagram()
        for k in (1, 2, 3, 4):
            sels, count = kf.fpt_feasible_selections(d, "p", k)
            assert all(len(s) <= k for s in sels)
            assert count >= len(sels)

    def test_k2_paths_within_z_plus_z_squared(self, monkeypatch):
        """The paper's polynomial case k = 2: on each axis the search tree
        holds at most z + z² covering paths, on the benchmark's match-decide
        diagrams (seeds 1-3) whose projection ends lie more than tol apart."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        tol, checked = kf.default_tol(), 0
        for seed in (1, 2, 3):
            for item in workloads.MatchDecide().generate(seed):
                d = kf.build_diagram(kf.parse_curve(item.p), kf.parse_curve(item.q), item.eps)
                ends = [np.sort([e for c in d.components for e in c.proj_p]),
                        np.sort([e for c in d.components for e in c.proj_q])]
                if any((np.diff(e) <= tol).any() for e in ends):
                    continue
                for axis in ("p", "q"):
                    assert kf.fpt_feasible_selections(d, axis, 2)[1] <= d.z + d.z ** 2, (seed, item)
                checked += 1
        assert checked >= 400


def snapped_stub(rng) -> kf.FreeSpaceDiagram:
    """A stub of 1-7 components whose projection ends lie on a quarter grid,
    moved by up to two steps of 0.45e-9: gaps and overlaps on both sides of
    the 1e-9 tolerance."""
    n, m = (int(x) for x in rng.integers(1, 3, size=2))

    def end_pair(length):
        lo, hi = np.sort(rng.integers(0, 4 * length + 1, size=2)) / 4.0
        return tuple(float(x + rng.integers(-2, 3) * 0.45e-9) for x in (lo, hi))

    return stub_diagram(n, m, [(end_pair(n), end_pair(m)) for _ in range(int(rng.integers(1, 8)))])


def forty_component_stub() -> kf.FreeSpaceDiagram:
    """40 components, width-4 projections on 20 x 20 axes; the first two
    reach the opposite ends of both axes, so a cover exists."""
    rng = np.random.default_rng(0)
    lo = rng.uniform(0.0, 16.0, size=(40, 2))
    lo[:2] = [[0.0, 16.0], [16.0, 0.0]]
    return stub_diagram(20, 20, [((p, p + 4.0), (q, q + 4.0)) for p, q in lo])


class TestToleranceScale:
    """One rule, that of :mod:`kfrechet.intervals`: an interval joins a chain
    when it starts within tol of the frontier and moves it; the axis is
    covered once the frontier is within tol of its end."""

    def test_gap_within_tolerance_is_forgiven(self):
        d = stub_diagram(1, 1, [((0, .5), (0, 1)), ((.3, .5 + .5e-9), (0, 1)),
                                ((.5 + 1.2e-9, 1), (0, 1))])
        assert kf.decide_hausdorff(d)
        assert oracles.decide_bruteforce(d, 3) == (0, 1, 2)
        assert kf.decide_fpt(d, 3) == (0, 1, 2)
        assert kf.decide_fpt(d, 2) is None
        assert kf.approximate_k(d) == (0, 1, 2)
        assert kf.minimize_k(d) == exhaustive_min_selection_size(d) == 3

    def test_cover_survives_a_growing_interval(self):
        def diagram(first_hi):
            return stub_diagram(2, 1, [((0, first_hi), (0, 1)), ((0.5, 1.5), (0, 1)),
                                       ((1.5 + 0.9e-9, 2), (0, 1))])

        for first_hi in (1.0, 1.5 - 0.5e-9):
            d = diagram(first_hi)
            assert kf.fpt_feasible_selections(d, "p", 3)[0] == [(0, 1, 2)]
            assert kf.decide_fpt(d, 3) == (0, 1, 2)
            assert kf.minimize_k(d) == 3

    def test_tolerance_as_wide_as_the_axes(self, kfrechet_tol):
        # a tolerance one cell wide would let the empty selection cover: rejected
        d = stub_diagram(1, 1, [((0.2, 0.8), (0.2, 0.8))])
        for tol in (1.0, 1.5):
            kfrechet_tol(tol)
            for call in (lambda: kf.covers_both(d, ()),
                         lambda: kf.fpt_feasible_selections(d, "p", 0),
                         lambda: kf.decide_fpt(d, 0),
                         lambda: kf.minimize_k(d),
                         lambda: kf.approximate_k(d)):
                with pytest.raises(ValueError, match="KFRECHET_TOL must be .* < 1"):
                    call()
        kfrechet_tol(np.nextafter(1.0, 0.0))
        assert kf.decide_fpt(d, 1) == (0,)

    def test_matches_exhaustive_oracle_on_snapped_stubs(self):
        rng = np.random.default_rng(20261018)
        for trial in range(3000):
            d = snapped_stub(rng)
            kmin = exhaustive_min_selection_size(d)
            assert kf.minimize_k(d) == kmin, trial
            for k in range(len(d.components) + 1):
                sel = kf.decide_fpt(d, k)
                assert (sel is None) == (exhaustive_decide(d, k) is None), (trial, k)
                assert sel is None or (len(sel) == kmin and kf.covers_both(d, sel)), (trial, k)

    def test_forty_components_at_k7(self):
        d = forty_component_stub()
        sel = kf.decide_fpt(d, 7)
        assert sel is not None and len(sel) <= 7 and kf.covers_both(d, sel)
        assert kf.decide_fpt(d, len(sel) - 1) is None
        assert kf.minimize_k(d) == len(sel)


NOT_INTEGERS = [float("nan"), float("inf"), -float("inf"), 1.5, 2.0, "2", None]


class TestBudget:
    """k must be an integer: NaN or inf never meets the search's depth bound."""

    @pytest.mark.parametrize("k", NOT_INTEGERS)
    def test_decide_fpt_rejects(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            kf.decide_fpt(diagonal_diagram(), k)

    @pytest.mark.parametrize("k", NOT_INTEGERS)
    def test_fpt_feasible_selections_rejects(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            kf.fpt_feasible_selections(diagonal_diagram(), "p", k)

    @pytest.mark.parametrize("k", NOT_INTEGERS)
    def test_decide_bruteforce_rejects(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            oracles.decide_bruteforce(diagonal_diagram(), k)

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2), True])
    def test_numpy_and_bool_integers_accepted(self, k):
        d = six_component_diagram()
        assert kf.decide_fpt(d, k) == kf.decide_fpt(d, int(k))
        assert kf.fpt_feasible_selections(d, "q", k) == kf.fpt_feasible_selections(d, "q", int(k))
        assert oracles.decide_bruteforce(d, k) == oracles.decide_bruteforce(d, int(k))


# one minimum cover on each axis, (0,) on p and (1,) on q, and no component
# covering both: the union has two ids, more than either cover
SPLIT_COVERS = [((0, 1), (0, .5)), ((0, .5), (0, 1)), ((.5, 1), (.5, 1))]


def gadget_diagram(formula) -> kf.FreeSpaceDiagram:
    """The box gadget of a formula as a projection-only diagram: box (x, y, w)
    is the component [x - 1, x + w - 1] x [y - 1, y]."""
    inst = kf.build_box_instance(formula)
    return stub_diagram(int(inst.x_max) - 1, int(inst.y_max) - 1,
                        [((b.x - 1, b.x + b.w - 1), (b.y - 1, b.y)) for b in inst.boxes])


class TestCertificate:
    """decide_fpt first takes a minimum cover a of p and b of q: None when an
    axis has none or max(|a|, |b|) > k, the union of a and b when it has
    max(|a|, |b|) ids; only otherwise does it walk the search tree."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """The calls of the search tree walk."""
        calls, walk = [], intervals._axis_selections

        def recorded(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(intervals, "_axis_selections", recorded)
        return calls

    @pytest.mark.parametrize("projections, k, want, walked", [
        ([((0, .4), (0, 1)), ((.6, 1), (0, 1))], 5, None, False),  # a gap on p
        ([((0, .5), (0, 1)), ((.5, 1), (0, 1))], 1, None, False),  # p needs two
        ([((0, .5), (0, .5)), ((.5, 1), (0, 1))], 2, (0, 1), False),  # union = p's cover
        (SPLIT_COVERS, 1, None, True),
        (SPLIT_COVERS, 2, (0, 2), True),
    ])
    def test_one_stub_per_branch(self, walks, projections, k, want, walked):
        d = stub_diagram(1, 1, projections)
        assert kf.decide_fpt(d, k) == want
        assert bool(walks) == walked
        assert (exhaustive_decide(d, k) is None) == (want is None)

    def test_every_k_up_to_kmin_matches_bruteforce(self, rng):
        checked = 0
        for _ in range(40):
            P, Q = random_pair(rng, 5)
            for eps in epsilon_probes(rng, P, Q, count=2):
                d = kf.build_diagram(P, Q, eps)
                kmin = kf.minimize_k(d)
                if kmin is None or len(d.components) > 10:
                    continue
                for k in range(1, kmin + 1):
                    sel, brute = kf.decide_fpt(d, k), oracles.decide_bruteforce(d, k)
                    assert (sel is None) == (brute is None) == (k < kmin), (eps, k)
                    assert sel is None or (len(sel) == len(brute) and kf.covers_both(d, sel))
                checked += 1
        assert checked >= 30

    @pytest.mark.parametrize("clauses", [((1, 2, 3), (-1, -2), (2, -3)),  # satisfiable
                                         ((1, 2), (-1, 2), (-2, 3), (-3,))])  # not
    def test_sat_gadget_goes_to_the_search(self, walks, clauses):
        # the q cover takes one box per row, so the union is larger than either cover
        formula = kf.normalize_formula(kf.CnfFormula(3, clauses))
        d, k = gadget_diagram(formula), kf.build_box_instance(formula).k
        covers = [axis_cover(axis, (0.0, float(length)))
                  for axis, length in zip(axis_intervals(d), (d.n, d.m))]
        assert max(map(len, covers)) <= k < len(set(covers[0]) | set(covers[1]))
        sel = kf.decide_fpt(d, k)
        assert walks
        assert (sel is None) == (kf.sat_bruteforce(formula) is None)
        assert sel is None or (len(sel) <= k and kf.covers_both(d, sel))


def cold_decisions(d, tol: float) -> dict:
    """Every decision on d from the (id, lo, hi) axes, with no stored cover pair."""
    p, q = axis_intervals(d)
    ends_p, ends_q = (0.0, float(d.n)), (0.0, float(d.m))
    a, b = intervals._axis_cover(p, ends_p, tol), intervals._axis_cover(q, ends_q, tol)
    fpt = [intervals._min_joint_cover(p, q, ends_p, ends_q, k, tol)
           for k in range(max(len(d.components), 1) + 1)]
    return {"hausdorff": a is not None and b is not None,
            "approx": None if a is None or b is None else tuple(sorted({*a, *b})),
            "weak": fpt[1] is not None,
            "kmin": None if fpt[-1] is None else len(fpt[-1]), "fpt": fpt}


def stored_decisions(d) -> dict:
    """Every decision on d through the public calls, Hausdorff first (as in
    ``perfbench``'s match-decide), so the others read the stored pair and the
    stored axes, which are built once."""
    hausdorff = kf.decide_hausdorff(d)
    axes = d._covers[1]
    assert axes[:2] == axis_intervals(d) and axes[2:] == ((0.0, d.n), (0.0, d.m))
    got = {"hausdorff": hausdorff, "approx": kf.approximate_k(d),
           "weak": kf.decide_weak_frechet(d), "kmin": kf.minimize_k(d),
           "fpt": [kf.decide_fpt(d, k) for k in range(max(len(d.components), 1) + 1)]}
    kf.fpt_feasible_selections(d, "q", 1)
    assert d._covers[1] is axes
    return got


class TestCoverPair:
    """A diagram keeps its per-axis minimum covers (a, b) once a decision has
    computed them at a tolerance; the decisions after that must be the cold ones."""

    def test_built_diagrams_near_critical_eps(self, rng):
        checked = 0
        for _ in range(60):
            P, Q = random_pair(rng, 6)
            cands = rng.choice(kf.distance_candidates(P, Q), size=3).tolist()
            probes = [*epsilon_probes(rng, P, Q, count=2),
                      *(np.nextafter(c, side) for c in cands for side in (0.0, np.inf)), *cands]
            for eps in probes:
                d = kf.build_diagram(P, Q, float(eps))
                assert d._covers is None
                got, want = stored_decisions(d), cold_decisions(d, kf.DEFAULT_TOL)
                assert got == want, eps
                checked += 1
        assert checked == 60 * 11

    def test_stubs_around_the_tolerance(self, rng):
        opened = 0
        for _ in range(600):
            d = snapped_stub(rng)
            want = cold_decisions(d, kf.DEFAULT_TOL)
            assert stored_decisions(d) == want
            opened += want["approx"] is not None and len(want["approx"]) > want["kmin"]
        assert opened >= 10  # the certificate left the tree walk to answer (27 of 600)

    def test_a_new_tolerance_gives_its_own_answers(self, kfrechet_tol):
        # a 1e-6 gap on p: covered at tol 1e-3, not at the default 1e-9
        d = stub_diagram(1, 1, [((0.0, 0.5), (0.0, 1.0)), ((0.5 + 1e-6, 1.0), (0.0, 1.0))])
        for tol, covered in ((1e-9, False), (1e-3, True), (1e-9, False)):
            kfrechet_tol(tol)
            assert kf.decide_hausdorff(d) == covered
            assert d._covers[0] == tol
            assert stored_decisions(d) == cold_decisions(d, tol)
            want = (2, (0, 1)) if covered else (None, None)
            assert (kf.minimize_k(d), kf.approximate_k(d)) == want

    def test_replace_starts_with_nothing_stored(self, rng):
        P, Q = random_pair(rng, 6)
        d = kf.build_diagram(P, Q, epsilon_probes(rng, P, Q, count=1)[0])
        kf.decide_hausdorff(d)
        assert dataclasses.replace(d)._covers is None
        # a copy with other components answers for its own components
        emptied = dataclasses.replace(d, components=())
        assert emptied._covers is None
        assert not kf.decide_hausdorff(emptied) and kf.approximate_k(emptied) is None

    def test_equality_and_hash_ignore_the_pair(self, rng):
        P, Q = random_pair(rng, 6)
        eps = epsilon_probes(rng, P, Q, count=1)[0]
        d, twin = kf.build_diagram(P, Q, eps), kf.build_diagram(P, Q, eps)
        before, text = hash(d), repr(d)
        stored_decisions(d)
        assert d._covers is not None and twin._covers is None
        assert d == twin and hash(d) == hash(twin) == before and repr(d) == text


class TestClassicDecisions:
    def test_weak_diagonal(self):
        assert kf.decide_weak_frechet(diagonal_diagram())
        assert not kf.decide_weak_frechet(diagonal_diagram(0.5))

    def test_weak_reversed_segment(self):
        P = kf.PolyCurve([(0, 0), (1, 0)])
        Q = kf.PolyCurve([(1, 0.1), (0, 0.1)])
        d = kf.build_diagram(P, Q, 0.2)
        assert kf.decide_weak_frechet(d)
        assert not kf.decide_strong_frechet(d)
        pix = oracles.pixel_freespace(P, Q, 0.2, res=256)
        assert pix.weak_ok()

    def test_hausdorff_diagonal(self):
        assert kf.decide_hausdorff(diagonal_diagram())
        assert not kf.decide_hausdorff(diagonal_diagram(0.5))

    def test_hausdorff_vs_sampled(self, rng):
        for _ in range(20):
            P, Q = random_pair(rng, 5)
            value = oracles.sampled_hausdorff(P, Q, 400)
            band = oracles.sampled_hausdorff_bound(P, Q, 400) + 1e-8
            assert kf.decide_hausdorff(kf.build_diagram(P, Q, value + band))
            low = value - band
            if low > 0:
                assert not kf.decide_hausdorff(kf.build_diagram(P, Q, low))

    def test_strong_identical_curves(self, rng):
        for _ in range(5):
            P, _ = random_pair(rng, 4)
            for eps in (0.0, 0.1, 1.0):
                assert kf.decide_strong_frechet(kf.build_diagram(P, P, eps))

    def test_strong_diagonal_threshold(self):
        assert kf.decide_strong_frechet(diagonal_diagram(1.0))
        assert not kf.decide_strong_frechet(diagonal_diagram(0.99))

    def test_strong_needs_cell_geometry(self):
        d = stub_diagram(1, 1, [((0.0, 1.0), (0.0, 1.0))])
        assert kf.decide_weak_frechet(d)  # the projections alone answer the others
        with pytest.raises(ValueError, match="cell geometry"):
            kf.decide_strong_frechet(d)


class TestStrongEdgeRules:
    """The strong decision on hand-set edges, each case in both orientations."""

    TOLS = (1e-6, 0.125)

    @pytest.mark.parametrize("tol", TOLS)
    def test_first_boundary_edge_starts_within_tol(self, tol, kfrechet_tol):
        # 1x1, entered only through the left edge, left by the right edge
        kfrechet_tol(tol)
        for lo, reached in ((tol, True), (2 * tol, False)):
            assert strong_both_ways([[(lo, 1.0)], [FREE]], [[SHUT, FREE]]) == reached

    @pytest.mark.parametrize("tol", TOLS)
    def test_later_boundary_edge_starts_within_tol(self, tol, kfrechet_tol):
        # 1x2: cell (0, 1) is entered only through its left boundary edge
        kfrechet_tol(tol)
        for lo, reached in ((tol, True), (2 * tol, False)):
            vert = [[FREE, (lo, 1.0)], [SHUT, FREE]]
            assert strong_both_ways(vert, [[SHUT, SHUT, FREE]]) == reached

    @pytest.mark.parametrize("tol", TOLS)
    def test_boundary_edge_before_ends_within_tol(self, tol, kfrechet_tol):
        kfrechet_tol(tol)
        for hi, reached in ((1.0 - tol, True), (np.nextafter(1.0 - tol, 0.0), False)):
            vert = [[(0.0, hi), FREE], [SHUT, FREE]]
            assert strong_both_ways(vert, [[SHUT, SHUT, FREE]]) == reached

    @pytest.mark.parametrize("tol", TOLS)
    def test_corner_through_the_last_top_edge(self, tol, kfrechet_tol):
        # 3x1 with the last right edge shut: only the top edge of the last cell ends at the corner
        kfrechet_tol(tol)
        for hi, reached in ((1.0, True), (1.0 - tol, True), (1.0 - 2 * tol, False)):
            vert = [[FREE], [FREE], [FREE], [SHUT]]
            horiz = [[FREE, FREE], [FREE, FREE], [FREE, (0.0, hi)]]
            assert strong_both_ways(vert, horiz) == reached

    @pytest.mark.parametrize("tol", TOLS)
    def test_corner_through_the_last_right_edge(self, tol, kfrechet_tol):
        # 1x3 with the last top edge shut: only the right edge of the last cell ends at the corner
        kfrechet_tol(tol)
        for hi, reached in ((1.0, True), (1.0 - tol, True), (1.0 - 2 * tol, False)):
            vert = [[FREE, FREE, FREE], [FREE, FREE, (0.0, hi)]]
            horiz = [[FREE, FREE, FREE, SHUT]]
            assert strong_both_ways(vert, horiz) == reached

    def test_entry_start_carries_into_the_next_cell(self, kfrechet_tol):
        # 3x1, every top edge shut: cell (1, 0) is entered from the left only, at
        # t >= 0.5, so it reaches its right edge only where that reaches 0.5
        kfrechet_tol(0.0)
        for hi, reached in ((0.5, True), (0.6, True), (np.nextafter(0.5, 0.0), False)):
            vert = [[FREE], [(0.5, 1.0)], [(0.0, hi)], [FREE]]
            horiz = [[FREE, SHUT], [SHUT, SHUT], [SHUT, SHUT]]
            assert strong_both_ways(vert, horiz) == reached


class TestStructuralProperties:
    def test_sandwich_chain(self, rng):
        checked = 0
        for _ in range(40):
            P, Q = random_pair(rng)
            for eps in epsilon_probes(rng, P, Q, count=2):
                d = kf.build_diagram(P, Q, eps)
                strong = kf.decide_strong_frechet(d)
                weak = kf.decide_weak_frechet(d)
                fpt1 = kf.decide_fpt(d, 1) is not None
                fpt2 = kf.decide_fpt(d, 2) is not None
                haus = kf.decide_hausdorff(d)
                if strong:
                    assert weak
                if weak:
                    assert fpt1 and fpt2
                if fpt1 or fpt2:
                    assert haus
                checked += 1
        assert checked >= 60

    def test_k1_equivalent_to_weak(self, rng):
        for _ in range(30):
            P, Q = random_pair(rng)
            eps = epsilon_probes(rng, P, Q, count=1)[0]
            d = kf.build_diagram(P, Q, eps)
            assert (kf.decide_fpt(d, 1) is not None) == kf.decide_weak_frechet(d)

    def test_saturation_equivalent_to_hausdorff(self, rng):
        for _ in range(30):
            P, Q = random_pair(rng, 4)
            eps = epsilon_probes(rng, P, Q, count=1)[0]
            d = kf.build_diagram(P, Q, eps)
            k = len(d.components)
            assert (kf.decide_fpt(d, k) is not None) == kf.decide_hausdorff(d)

    def test_monotone_in_k(self, rng):
        for _ in range(20):
            P, Q = random_pair(rng, 4)
            eps = epsilon_probes(rng, P, Q, count=1)[0]
            d = kf.build_diagram(P, Q, eps)
            prev = False
            for k in range(0, len(d.components) + 1):
                now = kf.decide_fpt(d, k) is not None
                if prev:
                    assert now
                prev = now

    def test_monotone_in_eps(self, rng):
        for _ in range(15):
            P, Q = random_pair(rng, 4)
            e1, e2 = sorted(epsilon_probes(rng, P, Q, count=2))
            if e2 - e1 < 1e-6:
                continue
            for k in (1, 2):
                if kf.decide_fpt(kf.build_diagram(P, Q, e1), k) is not None:
                    assert kf.decide_fpt(kf.build_diagram(P, Q, e2), k) is not None
