import math

import numpy as np
import pytest

import kfrechet as kf
from kfrechet import freespace, optimize
from conftest import exhaustive_min_selection_size, random_pair, touched_sides
import oracles


def diagonal_pair():
    return kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 1), (1, 1)])


class TestMinimizeK:
    def test_diagonal(self):
        P, Q = diagonal_pair()
        assert kf.minimize_k(kf.build_diagram(P, Q, 1.0)) == 1

    def test_empty_free_space(self):
        P, Q = diagonal_pair()
        assert kf.minimize_k(kf.build_diagram(P, Q, 0.5)) is None
        assert kf.approximate_k(kf.build_diagram(P, Q, 0.5)) is None

    def test_exact_matches_exhaustive_oracle(self, rng):
        checked = 0
        for _ in range(40):
            P, Q = random_pair(rng, 5)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.25, 0.9)))
            if len(d.components) > 9:
                continue
            exact = kf.minimize_k(d)
            oracle = exhaustive_min_selection_size(d)
            assert exact == oracle
            approx = kf.approximate_k(d)
            if exact is None:
                assert approx is None
            else:
                assert exact <= len(approx) <= 2 * exact
            checked += 1
        assert checked >= 15


class TestMinimizeEpsilon:
    def test_identical_curves(self, rng):
        P, _ = random_pair(rng, 3)
        assert kf.minimize_epsilon(P, P, 1, tol=1e-4) == 0.0

    def test_parallel_segments(self):
        P, Q = diagonal_pair()
        eps = kf.minimize_epsilon(P, Q, 1, tol=1e-5)
        assert eps == pytest.approx(1.0, abs=1e-4)

    def test_tol_below_float_spacing_terminates(self):
        # the bisection stops once lo and hi are adjacent floats
        P, Q = diagonal_pair()
        eps = kf.minimize_epsilon(P, Q, 1, tol=1e-30)
        assert eps == pytest.approx(1.0, abs=1e-9)  # the decider forgives tangencies within tol
        assert kf.decide_fpt(kf.build_diagram(P, Q, eps), 1) is not None
        assert kf.decide_fpt(kf.build_diagram(P, Q, float(np.nextafter(eps, 0.0))), 1) is None

    def test_validation(self):
        P, Q = diagonal_pair()
        with pytest.raises(ValueError):
            kf.minimize_epsilon(P, Q, 0, tol=1e-4)
        with pytest.raises(ValueError):
            kf.minimize_epsilon(P, Q, 1, tol=0.0)
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError):
                kf.minimize_epsilon(P, Q, 1, tol=float(bad))

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), 1.5, 2.0, "2", None])
    def test_non_integer_k_rejected(self, k):
        # with k=nan the search used to return the upper end of the bisection
        P = kf.PolyCurve([(0, 0), (1, 0), (2, 0), (3, 0)])
        Q = kf.PolyCurve([(0, 0.1), (1, 0.1), (2, 0.1), (3, 0.1)])
        with pytest.raises(ValueError, match="k must be an integer"):
            kf.minimize_epsilon(P, Q, k, tol=1e-3)

    def test_numpy_integer_k_accepted(self, rng):
        P, Q = random_pair(rng, 4)
        assert kf.minimize_epsilon(P, Q, np.int64(2), tol=1e-4) == kf.minimize_epsilon(P, Q, 2, tol=1e-4)

    @pytest.mark.parametrize("feasible_at_zero", [True, False])
    def test_one_preparation_per_search(self, rng, monkeypatch, feasible_at_zero):
        # the eps = 0 build, through the alias that tracing wraps, prepares
        # the pair; every later probe re-solves that build's pair
        prepared, built = [], []
        prepare = freespace._PairGeometry.__init__

        def counted(self, *args):
            prepared.append(args)
            prepare(self, *args)

        def build(*args, **kwargs):
            built.append(args[2])
            return freespace.build_diagram(*args, **kwargs)

        monkeypatch.setattr(freespace._PairGeometry, "__init__", counted)
        monkeypatch.setattr(optimize, "build_diagram", build)
        P, Q = random_pair(rng, 5)
        eps = kf.minimize_epsilon(P, P if feasible_at_zero else Q, 2, tol=1e-5)
        assert (eps == 0.0) == feasible_at_zero
        assert len(prepared) == 1 and built == [0.0]

    def test_returned_eps_is_tight(self, rng):
        # feasible at the result, infeasible two tolerances below it
        tol = 1e-4
        for _ in range(8):
            P, Q = random_pair(rng, 5)
            for k in (1, 2, 3):
                eps = kf.minimize_epsilon(P, Q, k, tol=tol)
                assert kf.decide_fpt(kf.build_diagram(P, Q, eps), k) is not None
                if eps - 2 * tol >= 0.0:
                    assert kf.decide_fpt(kf.build_diagram(P, Q, eps - 2 * tol), k) is None

    def test_matches_grid_scan(self, rng):
        for _ in range(6):
            P, Q = random_pair(rng, 4)
            k = 2
            tol = 1e-4
            result = kf.minimize_epsilon(P, Q, k, tol=tol)
            hi = kf.pairwise_vertex_max(P, Q)
            coarse = np.linspace(0.0, hi, 400)
            feasible = [e for e in coarse
                        if kf.decide_fpt(kf.build_diagram(P, Q, float(e)), k) is not None]
            grid_first = min(feasible)
            step = coarse[1] - coarse[0]
            assert result <= grid_first + tol
            assert result >= grid_first - step - tol

    def test_non_increasing_in_k(self, rng):
        for _ in range(6):
            P, Q = random_pair(rng, 4)
            tol = 1e-4
            values = [kf.minimize_epsilon(P, Q, k, tol=tol) for k in (1, 2, 3)]
            for a, b in zip(values, values[1:]):
                assert b <= a + 2 * tol

    def test_decision_true_at_result(self, rng):
        for _ in range(5):
            P, Q = random_pair(rng, 3)
            for k in (1, 2):
                eps = kf.minimize_epsilon(P, Q, k, tol=1e-5)
                assert kf.decide_fpt(kf.build_diagram(P, Q, eps), k) is not None

    def test_value_level_sandwich(self, rng):
        # hausdorff value <= piecewise-matching value <= weak value
        tol = 1e-4
        for _ in range(6):
            P, Q = random_pair(rng, 3)
            weak_value = kf.minimize_epsilon(P, Q, 1, tol=tol)
            mid_value = kf.minimize_epsilon(P, Q, 2, tol=tol)
            haus_value = oracles.sampled_hausdorff(P, Q, 2000)
            band = oracles.sampled_hausdorff_bound(P, Q, 2000)
            assert mid_value <= weak_value + 2 * tol
            assert mid_value >= haus_value - band - 2 * tol

    def test_large_budget_approaches_hausdorff(self, rng):
        tol = 1e-4
        for _ in range(5):
            P, Q = random_pair(rng, 3)
            value = kf.minimize_epsilon(P, Q, 25, tol=tol)
            haus = oracles.sampled_hausdorff(P, Q, 2000)
            band = oracles.sampled_hausdorff_bound(P, Q, 2000)
            assert abs(value - haus) <= band + 2 * tol


class TestHelpers:
    def test_pairwise_vertex_max(self):
        P = kf.PolyCurve([(0, 0), (1, 0)])
        Q = kf.PolyCurve([(0, 3), (4, 0)])
        assert kf.pairwise_vertex_max(P, Q) == pytest.approx(4.0)
        # whole diagram free at that eps
        d = kf.build_diagram(P, Q, kf.pairwise_vertex_max(P, Q))
        assert len(d.components) == 1
        assert touched_sides(d.components[0], d.n, d.m) == "LRBT"

    def test_huge_coordinates_rejected(self):
        # vertices near 1e200: their squared distances overflow, and
        # build_diagram rejects the same pair
        P = kf.PolyCurve([(0.0, 0.0), (1e200, 0.0), (2e200, 1e200)])
        Q = kf.PolyCurve([(0.0, 1e200), (1e200, 1e200)])
        for call in (kf.pairwise_vertex_max, kf.distance_candidates,
                     lambda P, Q: kf.build_diagram(P, Q, 1.0)):
            with pytest.raises(ValueError, match="curve coordinates out of range"):
                call(P, Q)

    def test_overflowing_segment_length_rejected(self):
        # every vertex-vertex square is finite, the square of P's one segment not
        P = kf.PolyCurve([(-1e154, 0.0), (1e154, 0.0)])
        Q = kf.PolyCurve([(0.0, 1.0), (1.0, 1.0)])
        for call in (kf.pairwise_vertex_max, kf.distance_candidates,
                     lambda P, Q: kf.build_diagram(P, Q, 1.0)):
            with pytest.raises(ValueError, match="curve coordinates out of range"):
                call(P, Q)

    def test_underflowing_squares_rejected(self):
        # the squared length of a 1e-170 segment underflows to 0, so the
        # vertex distances would read 0; build_diagram rejects the same pair,
        # and the pair with a far curve too, whose distances do not underflow
        P = kf.PolyCurve([(0.0, 0.0), (1e-170, 0.0)])
        far = kf.PolyCurve([(5.0, 0.0), (6.0, 0.0)])
        for call, Q in ((kf.pairwise_vertex_max, P), (kf.pairwise_vertex_max, far),
                        (kf.distance_candidates, P), (kf.distance_candidates, far),
                        (lambda P, Q: kf.build_diagram(P, Q, 1.0), P)):
            with pytest.raises(ValueError, match="curve coordinates out of range"):
                call(P, Q)
        # a 1e-150 segment squares to 1e-300, a normal float, and still answers
        P = kf.PolyCurve([(0.0, 0.0), (1e-150, 0.0)])
        assert kf.pairwise_vertex_max(P, P) == 1e-150
        assert kf.distance_candidates(P, P) == [0.0, 1e-150]
        assert len(kf.build_diagram(P, P, 1e-150).components) == 1
        # a vertex shared by both curves is at distance 0, which is no underflow
        P, Q = kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 0), (0, 1)])
        assert kf.pairwise_vertex_max(P, Q) == pytest.approx(math.sqrt(2))
        assert kf.distance_candidates(P, Q)[0] == 0.0
        # nor is a square that underflows between vertices of different
        # curves: build_diagram accepts the pair, and so do the three below
        P, Q = kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(1e-170, 0), (1, 1)])
        assert len(kf.build_diagram(P, Q, 1.0).components) >= 1
        assert kf.pairwise_vertex_max(P, Q) == math.sqrt(2)
        assert kf.distance_candidates(P, Q)[0] == 0.0
        assert 0.0 < kf.minimize_epsilon(P, Q, k=1) <= math.sqrt(2)

    def test_distance_candidates_raise_where_build_diagram_does(self):
        # the candidates and the vertex maximum are read off the pair that
        # build_diagram prepares, so all three reject the same pairs: one pair
        # at every scale 2^j, and the out-of-range pairs above
        P = kf.PolyCurve([(0.0, 0.0), (1.0, 0.3), (2.0, -0.4), (2.5, 1.0)])
        Q = kf.PolyCurve([(0.2, 1.0), (1.4, 0.8), (2.6, 1.5)])
        pairs = [(kf.PolyCurve(P.vertices * 2.0 ** j), kf.PolyCurve(Q.vertices * 2.0 ** j))
                 for j in range(-560, 521)]
        tiny = kf.PolyCurve([(0.0, 0.0), (1e-170, 0.0)])
        pairs += [(kf.PolyCurve([(0.0, 0.0), (1e200, 0.0), (2e200, 1e200)]),
                   kf.PolyCurve([(0.0, 1e200), (1e200, 1e200)])),
                  (kf.PolyCurve([(-1e154, 0.0), (1e154, 0.0)]), kf.PolyCurve([(0.0, 1.0), (1.0, 1.0)])),
                  (tiny, tiny), (tiny, kf.PolyCurve([(5.0, 0.0), (6.0, 0.0)])),
                  # every disk and strip term is finite (the segments are orthogonal
                  # and share a vertex), but the square of the far ends overflows
                  (kf.PolyCurve([(0.0, 0.0), (1.3e154, 0.0)]),
                   kf.PolyCurve([(0.0, 0.0), (0.0, 1.3e154)]))]
        rejected = []
        for P, Q in pairs:
            try:
                kf.build_diagram(P, Q, 1.0)
            except ValueError:
                rejected.append(True)
                for call in (kf.distance_candidates, kf.pairwise_vertex_max):
                    with pytest.raises(ValueError, match="curve coordinates out of range"):
                        call(P, Q)
            else:
                rejected.append(False)
                assert all(map(math.isfinite, kf.distance_candidates(P, Q)))
                assert 0.0 < kf.pairwise_vertex_max(P, Q) < math.inf
        assert rejected[-5:] == [True] * 5
        assert 0 < sum(rejected[:-5]) < len(rejected) - 5

    def test_distance_candidates_contains_key_values(self):
        P, Q = kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 1), (1, 1)])
        cands = kf.distance_candidates(P, Q)
        assert 0.0 in cands
        assert any(abs(c - 1.0) < 1e-12 for c in cands)
        assert any(abs(c - np.sqrt(2)) < 1e-12 for c in cands)
        assert cands == sorted(cands)
