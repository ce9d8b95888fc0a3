import numpy as np
import pytest

import kfrechet as kf
from kfrechet import oracles
from conftest import exhaustive_min_selection_size, random_pair, touched_sides


def diagonal_pair():
    return kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 1), (1, 1)])


class TestMinimizeK:
    def test_diagonal(self):
        P, Q = diagonal_pair()
        assert kf.minimize_k(kf.build_diagram(P, Q, 1.0)) == 1

    def test_empty_free_space(self):
        P, Q = diagonal_pair()
        assert kf.minimize_k(kf.build_diagram(P, Q, 0.5)) is None
        assert kf.minimize_k(kf.build_diagram(P, Q, 0.5), method="approx") is None

    def test_bad_method(self):
        P, Q = diagonal_pair()
        with pytest.raises(ValueError):
            kf.minimize_k(kf.build_diagram(P, Q, 1.0), method="magic")

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
            approx = kf.minimize_k(d, method="approx")
            if exact is None:
                assert approx is None
            else:
                assert exact <= approx <= 2 * exact
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

    def test_candidates_mode_exact_value(self):
        P, Q = diagonal_pair()
        assert kf.minimize_epsilon(P, Q, 1, tol=1e-5, method="candidates") == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        P, Q = diagonal_pair()
        with pytest.raises(ValueError):
            kf.minimize_epsilon(P, Q, 0, tol=1e-4)
        with pytest.raises(ValueError):
            kf.minimize_epsilon(P, Q, 1, tol=0.0)
        for bad in ("nan", "inf"):
            with pytest.raises(ValueError):
                kf.minimize_epsilon(P, Q, 1, tol=float(bad))
        with pytest.raises(ValueError):
            kf.minimize_epsilon(P, Q, 1, tol=1e-4, method="magic")

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

    def test_distance_candidates_contains_key_values(self):
        P, Q = kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 1), (1, 1)])
        cands = kf.distance_candidates(P, Q)
        assert 0.0 in cands
        assert any(abs(c - 1.0) < 1e-12 for c in cands)
        assert any(abs(c - np.sqrt(2)) < 1e-12 for c in cands)
        assert cands == sorted(cands)
