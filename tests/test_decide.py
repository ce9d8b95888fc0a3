import numpy as np
import pytest

import kfrechet as kf
from kfrechet import oracles
from conftest import (SIX_COMPONENT_PAIR, epsilon_probes, exhaustive_decide,
                      exhaustive_min_selection_size, random_pair, stub_diagram)


def diagonal_diagram(eps=1.0):
    P = kf.PolyCurve([(0, 0), (1, 0)])
    Q = kf.PolyCurve([(0, 1), (1, 1)])
    return kf.build_diagram(P, Q, eps)


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

    def test_two_half_covers_combine(self):
        # each component covers one axis fully and half of the other
        d = stub_diagram(1, 1, [((0.0, 1.0), (0.0, 0.5)), ((0.2, 0.6), (0.0, 1.0))])
        assert not kf.covers_both(d, (0,))
        assert not kf.covers_both(d, (1,))
        assert kf.covers_both(d, (0, 1))


class TestPreprocess:
    def test_single_component_is_necessary(self):
        d = diagonal_diagram()
        pre = kf.preprocess(d)
        assert pre.necessary == (0,)
        assert pre.kept == (0,)
        assert pre.dropped == ()

    def test_contained_box_pruned(self):
        d = stub_diagram(1, 1, [((0.0, 1.0), (0.0, 1.0)), ((0.2, 0.5), (0.3, 0.4))])
        pre = kf.preprocess(d)
        assert 1 in pre.dropped
        assert 0 in pre.kept

    def test_identical_boxes_keep_smaller_id(self):
        d = stub_diagram(1, 1, [((0.0, 0.6), (0.0, 0.6)), ((0.0, 0.6), (0.0, 0.6))])
        pre = kf.preprocess(d)
        assert pre.dropped == (1,)
        assert pre.kept == (0,)
        # neither uniquely covers anything
        assert len(pre.necessary) == 0

    def test_necessary_disjoint_from_dropped(self, rng):
        for _ in range(30):
            P, Q = random_pair(rng, 5)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.2, 0.9)))
            pre = kf.preprocess(d)
            assert not set(pre.necessary) & set(pre.dropped)

    def test_decisions_unchanged_by_preprocess(self, rng):
        checked = 0
        for _ in range(40):
            P, Q = random_pair(rng, 5)
            d = kf.build_diagram(P, Q, float(rng.uniform(0.2, 0.9)))
            if len(d.components) > 8:
                continue
            for k in range(0, 4):
                with_pre = kf.decide_bruteforce(d, k, use_preprocess=True)
                without = kf.decide_bruteforce(d, k, use_preprocess=False)
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
            pre = kf.preprocess(d)
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
        assert kf.decide_bruteforce(d, 1) == (0,)

    def test_no_cover_at_any_k(self):
        d = diagonal_diagram(0.5)  # empty free space
        for k in range(4):
            assert kf.decide_bruteforce(d, k) is None

    def test_six_component_fixture(self):
        d = six_component_diagram()
        assert len(d.components) == 6
        assert kf.decide_bruteforce(d, 1) is None
        sel = kf.decide_bruteforce(d, 2)
        assert sel == (0, 4)  # deterministic first-found
        assert kf.covers_both(d, sel)
        # independent exhaustive-subset oracle
        assert exhaustive_min_selection_size(d) == 2

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            kf.decide_bruteforce(diagonal_diagram(), -1)


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
                    brute = kf.decide_bruteforce(d, k)
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

    def test_feasible_paths_respect_depth(self):
        d = six_component_diagram()
        for k in (1, 2, 3, 4):
            sels, count = kf.fpt_feasible_selections(d, "p", k)
            assert all(len(s) <= k for s in sels)
            assert count >= len(sels)


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
            kf.decide_bruteforce(diagonal_diagram(), k)

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2), True])
    def test_numpy_and_bool_integers_accepted(self, k):
        d = six_component_diagram()
        assert kf.decide_fpt(d, k) == kf.decide_fpt(d, int(k))
        assert kf.fpt_feasible_selections(d, "q", k) == kf.fpt_feasible_selections(d, "q", int(k))
        assert kf.decide_bruteforce(d, k) == kf.decide_bruteforce(d, int(k))


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
