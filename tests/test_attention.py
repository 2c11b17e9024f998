"""Tests for variance-weighted attention fusion and binarization."""

import numpy as np
import pytest

from dynmask import synthetic
from dynmask.attention import (DEFAULT_EPS, SaliencyMap, aggregate, binarize,
                               effective_weights)
from oracles import effective_weights_by_head, head_variance


class TestHeadVariance:
    """Each head's weight is its population spatial variance over the total."""

    def test_constant_map(self):
        gen = np.random.default_rng(0)
        maps = np.stack([np.full((4, 4), 0.5), gen.random((4, 4))])
        w = effective_weights(maps)
        assert w[0] == 0.0
        assert w[1] == 1.0

    def test_hand_computed(self):
        # variances 0.25 and 0.1875: weights 4/7 and 3/7
        maps = np.array([[[0.0, 0.0], [1.0, 1.0]],
                         [[0.0, 0.0], [0.0, 1.0]]])
        np.testing.assert_allclose(effective_weights(maps, eps=1e-15),
                                   [4 / 7, 3 / 7], rtol=1e-12)

    def test_matches_numpy_population_variance(self):
        gen = np.random.default_rng(42)
        for _ in range(10):
            maps = gen.random((4, 6, 9))
            # ddof=0, an independent two-pass oracle
            expect = np.array([np.var(m) for m in maps])
            np.testing.assert_allclose(effective_weights(maps),
                                       expect / expect.sum(), rtol=1e-12)
            for m, v in zip(maps, expect):
                assert head_variance(m) == pytest.approx(v, rel=1e-12)

    def test_shift_invariance_and_quadratic_scaling(self):
        gen = np.random.default_rng(1)
        maps = gen.random((2, 5, 5))
        w = effective_weights(maps)
        np.testing.assert_allclose(effective_weights(maps + 3.7), w,
                                   rtol=1e-10)
        # doubling head 0 quadruples its variance against head 1's
        scaled = effective_weights(maps * np.array([2.0, 1.0])[:, None, None])
        assert scaled[0] / scaled[1] == pytest.approx(4.0 * w[0] / w[1],
                                                      rel=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty attention map"):
            effective_weights(np.zeros((2, 0, 3)))
        with pytest.raises(ValueError, match="empty attention map"):
            head_variance(np.zeros((0, 3)))


class TestEffectiveWeightsExact:
    """The whole-stack variances give exactly the head-by-head weights."""

    def test_corpus_frames(self):
        checked = 0
        for spec in synthetic.corpus_specs():
            bundle, _ = synthetic.generate(spec)
            for stack in bundle.attention:
                np.testing.assert_array_equal(
                    effective_weights(stack),
                    effective_weights_by_head(stack, DEFAULT_EPS))
                checked += 1
        assert checked == 20 * 6

    @pytest.mark.parametrize("grid", [(1, 1), (1, 7), (9, 1), (5, 6)])
    @pytest.mark.parametrize("heads", [1, 3, 8, 12])
    def test_degenerate_grids_and_scales(self, grid, heads):
        gen = np.random.default_rng(heads * 100 + grid[0] * 10 + grid[1])
        for scale in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            maps = scale * gen.random((heads, *grid))
            np.testing.assert_array_equal(
                effective_weights(maps),
                effective_weights_by_head(maps, DEFAULT_EPS))

    def test_constant_heads(self):
        gen = np.random.default_rng(13)
        maps = gen.random((6, 8, 9))
        maps[[1, 4]] = np.array([0.3, 7.0])[:, None, None]
        w = effective_weights(maps)
        np.testing.assert_array_equal(w, effective_weights_by_head(
            maps, DEFAULT_EPS))
        np.testing.assert_array_equal(w[[1, 4]], [0.0, 0.0])
        flat = np.broadcast_to(np.arange(4.0)[:, None, None], (4, 3, 5))
        np.testing.assert_array_equal(
            effective_weights(flat), effective_weights_by_head(flat,
                                                               DEFAULT_EPS))


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

    def test_patch_one_keeps_the_grid(self):
        values = np.array([[0.2, 0.7, 0.5], [0.5, 0.1, 0.9]])
        s = SaliencyMap(values=values, head_weights=np.array([1.0]))
        mask = binarize(s, 0.5)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, values >= 0.5)

    def test_patch_validation(self):
        s = SaliencyMap(values=np.zeros((2, 2)), head_weights=np.array([1.0]))
        with pytest.raises(ValueError):
            binarize(s, 0.5, patch=0)
