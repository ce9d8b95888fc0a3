import numpy as np
import pytest

import kfrechet as kf
from conftest import random_pair
import oracles


def diagonal_pair():
    return kf.PolyCurve([(0, 0), (1, 0)]), kf.PolyCurve([(0, 1), (1, 1)])


def test_explicit_import_outside_package_namespace():
    # the oracles need scipy, so `import kfrechet` leaves them out
    assert "pixel_freespace" not in kf.__all__ and not hasattr(kf, "pixel_freespace")
    assert oracles.pixel_freespace(*diagonal_pair(), 1.001, res=64).component_count == 1


class TestPixelFreespace:
    def test_diagonal_single_component(self):
        # eps nudged above the tangency so the free band is wider than a
        # pixel; at exactly-critical eps the zero-width diagonal falls
        # apart under 4-connected labelling (see test below)
        P, Q = diagonal_pair()
        pix = oracles.pixel_freespace(P, Q, 1.001, res=256)
        assert pix.component_count == 1
        assert pix.weak_ok()
        assert pix.covers_both()

    def test_exactly_critical_eps_fragments(self):
        # documented raster limitation: a measure-zero free set is not
        # 4-connected on the grid, so the oracle only binds away from
        # critical values
        P, Q = diagonal_pair()
        pix = oracles.pixel_freespace(P, Q, 1.0, res=64)
        assert pix.component_count == 64

    def test_empty(self):
        P, Q = diagonal_pair()
        pix = oracles.pixel_freespace(P, Q, 0.5, res=64)
        assert pix.component_count == 0
        assert not pix.covers_both()

    def test_res_guard(self):
        P, Q = diagonal_pair()
        with pytest.raises(ValueError):
            oracles.pixel_freespace(P, Q, 1.0, res=8)

    def test_mask_matches_distance_predicate(self, rng):
        P, Q = random_pair(rng, 3)
        eps = 0.4
        pix = oracles.pixel_freespace(P, Q, eps, res=32)
        for i in (0, 7, 31):
            for j in (0, 13, 31):
                p, q = oracles.points_at(P, [pix.s_values[i]]), oracles.points_at(Q, [pix.t_values[j]])
                d = np.linalg.norm(p - q)
                assert pix.mask[i, j] == (d <= eps)

    def test_agreement_with_diagram_away_from_critical(self, rng):
        from conftest import raster_stable
        agree = 0
        for _ in range(30):
            P, Q = random_pair(rng, 4)
            eps = float(rng.uniform(0.2, 0.9))
            if not raster_stable(P, Q, eps, 512):
                continue
            d = kf.build_diagram(P, Q, eps)
            pix = oracles.pixel_freespace(P, Q, eps, res=512)
            assert pix.component_count == len(d.components)
            assert pix.weak_ok() == kf.decide_weak_frechet(d)
            agree += 1
        assert agree >= 10


class TestExhaustiveMinCover:
    def test_single(self):
        assert oracles.exhaustive_min_cover([(0.0, 1.0)], (0.0, 1.0)) == 1

    def test_gap(self):
        assert oracles.exhaustive_min_cover([(0.0, 0.4), (0.6, 1.0)], (0.0, 1.0)) is None

    def test_prefers_fewer(self):
        spans = [(0.0, 0.5), (0.45, 1.0), (0.0, 1.0)]
        assert oracles.exhaustive_min_cover(spans, (0.0, 1.0)) == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            oracles.exhaustive_min_cover([(0, 1)] * 21, (0, 1))


class TestSampledHausdorff:
    def test_identical(self, rng):
        P, _ = random_pair(rng, 4)
        assert oracles.sampled_hausdorff(P, P, 200) == pytest.approx(0.0, abs=1e-12)

    def test_parallel_segments(self):
        P, Q = diagonal_pair()
        value = oracles.sampled_hausdorff(P, Q, 500)
        assert value == pytest.approx(1.0, abs=oracles.sampled_hausdorff_bound(P, Q, 500))

    def test_samples_guard(self):
        P, Q = diagonal_pair()
        with pytest.raises(ValueError):
            oracles.sampled_hausdorff(P, Q, 50)

    def test_consistent_with_diagram_decision(self, rng):
        for _ in range(15):
            P, Q = random_pair(rng, 4)
            value = oracles.sampled_hausdorff(P, Q, 600)
            band = oracles.sampled_hausdorff_bound(P, Q, 600) + 1e-9
            assert kf.decide_hausdorff(kf.build_diagram(P, Q, value + band))
            if value - band > 0:
                assert not kf.decide_hausdorff(kf.build_diagram(P, Q, value - band))
