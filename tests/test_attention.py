"""Tests for variance-weighted attention fusion and binarization."""

import numpy as np
import pytest

from dynmask.attention import (SaliencyMap, aggregate, binarize,
                               effective_weights, head_variance)


class TestHeadVariance:
    def test_constant_map(self):
        assert head_variance(np.full((4, 4), 0.5)) == 0.0

    def test_hand_computed(self):
        assert head_variance(np.array([[0.0, 0.0], [1.0, 1.0]])) == pytest.approx(0.25)

    def test_matches_numpy_population_variance(self):
        gen = np.random.default_rng(42)
        for _ in range(10):
            arr = gen.random((6, 9))
            expect = np.var(arr)  # ddof=0, an independent two-pass oracle
            assert head_variance(arr) == pytest.approx(expect, rel=1e-12)

    def test_shift_invariance_and_quadratic_scaling(self):
        gen = np.random.default_rng(1)
        arr = gen.random((5, 5))
        v = head_variance(arr)
        assert head_variance(arr + 3.7) == pytest.approx(v, rel=1e-10)
        assert head_variance(2.0 * arr) == pytest.approx(4.0 * v, rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            head_variance(np.zeros((0, 3)))


class TestEffectiveWeights:
    def test_proportional_to_variance(self):
        # variances 3 and 1: weights 0.75 / 0.25
        a = np.array([[0.0, 2 * np.sqrt(3)]])  # variance 3
        b = np.array([[0.0, 2.0]])             # variance 1
        w = effective_weights(np.stack([a, b]), eps=1e-15)
        np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-9)

    def test_permutation_equivariance(self):
        gen = np.random.default_rng(3)
        maps = gen.random((6, 4, 7))
        perm = gen.permutation(6)
        np.testing.assert_allclose(effective_weights(maps)[perm],
                                   effective_weights(maps[perm]), atol=1e-15)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            effective_weights(np.ones((1, 2, 2)), eps=0.0)

    def test_sum_to_one(self):
        gen = np.random.default_rng(4)
        w = effective_weights(gen.random((7, 5, 5)))
        assert w.sum() == pytest.approx(1.0, abs=1e-6)

    def test_uniform_fallback(self):
        w = effective_weights(np.full((5, 3, 3), 0.2))
        np.testing.assert_allclose(w, 0.2)

    def test_eps_cancels(self):
        # renormalized weights equal V_h / sum(V) independent of eps
        gen = np.random.default_rng(5)
        maps = gen.random((4, 6, 6))
        variances = np.array([np.var(m) for m in maps])
        expect = variances / variances.sum()
        np.testing.assert_allclose(effective_weights(maps, eps=1e-8), expect,
                                   atol=1e-12)
        np.testing.assert_allclose(effective_weights(maps, eps=1e-2), expect,
                                   atol=1e-12)


class TestAggregate:
    def test_single_head_normalized_copy(self):
        gen = np.random.default_rng(6)
        m = gen.random((5, 8))
        out = aggregate(m[None])
        expect = (m - m.min()) / (m.max() - m.min())
        np.testing.assert_allclose(out.values, expect, atol=1e-12)
        np.testing.assert_allclose(out.head_weights, [1.0])

    def test_range_and_endpoints(self):
        gen = np.random.default_rng(7)
        out = aggregate(gen.random((3, 10, 10)))
        assert out.values.min() == 0.0
        assert out.values.max() == 1.0

    def test_constant_fusion_maps_to_zero(self):
        out = aggregate(np.full((3, 4, 4), 0.7))
        np.testing.assert_array_equal(out.values, np.zeros((4, 4)))

    def test_peaked_head_dominates_constant_heads(self):
        gen = np.random.default_rng(8)
        peak = np.zeros((9, 9))
        peak[2, 6] = 5.0
        heads = [peak] + [np.full((9, 9), c) for c in gen.random(9)]
        out = aggregate(np.stack(heads))
        assert np.unravel_index(out.values.argmax(), (9, 9)) == (2, 6)
        # constant distractors carry exactly zero weight
        np.testing.assert_array_equal(out.head_weights[1:], np.zeros(9))

    def test_uniform_mode_is_plain_average(self):
        gen = np.random.default_rng(9)
        maps = gen.random((4, 6, 6))
        out = aggregate(maps, weighted=False)
        mean = maps.mean(axis=0)
        expect = (mean - mean.min()) / (mean.max() - mean.min())
        np.testing.assert_allclose(out.values, expect, atol=1e-12)
        np.testing.assert_allclose(out.head_weights, 0.25)

    def test_deterministic(self):
        gen = np.random.default_rng(10)
        maps = gen.random((8, 12, 12))
        a = aggregate(maps)
        b = aggregate(maps.copy())
        np.testing.assert_array_equal(a.values, b.values)

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("shape", [(4, 4), (0, 3, 3)])
    def test_bad_stack_shape_rejected(self, shape, weighted):
        with pytest.raises(ValueError, match="head stack shape"):
            aggregate(np.ones(shape), weighted=weighted)


class TestBinarize:
    def test_theta_zero_all_dynamic(self):
        gen = np.random.default_rng(11)
        s = aggregate(gen.random((2, 4, 4)))
        assert binarize(s, 0.0).all()

    def test_theta_above_one_all_static(self):
        gen = np.random.default_rng(12)
        s = aggregate(gen.random((2, 4, 4)))
        assert not binarize(s, 1.0 + 1e-9).any()

    def test_threshold_is_inclusive(self):
        s = SaliencyMap(values=np.array([[0.5, 0.49]]), head_weights=np.array([1.0]))
        np.testing.assert_array_equal(binarize(s, 0.5), [[True, False]])

    def test_patch_replication(self):
        values = np.zeros((2, 3))
        values[1, 2] = 1.0
        s = SaliencyMap(values=values, head_weights=np.array([1.0]))
        mask = binarize(s, 0.5, patch=14)
        assert mask.shape == (28, 42)
        block = mask[14:28, 28:42]
        assert block.all()
        assert mask.sum() == 14 * 14

    def test_patch_validation(self):
        s = SaliencyMap(values=np.zeros((2, 2)), head_weights=np.array([1.0]))
        with pytest.raises(ValueError):
            binarize(s, 0.5, patch=0)
