"""Tests for the counter-based deterministic random stream."""

import numpy as np
import pytest

from dynmask import rng


class TestStreamKey:
    def test_deterministic(self):
        assert rng.stream_key(7, "noise", 3) == rng.stream_key(7, "noise", 3)

    def test_path_sensitivity(self):
        base = rng.stream_key(7, "noise", 3)
        assert rng.stream_key(7, "noise", 4) != base
        assert rng.stream_key(7, "color", 3) != base
        assert rng.stream_key(8, "noise", 3) != base

    def test_order_matters(self):
        assert rng.stream_key(1, "a", "b") != rng.stream_key(1, "b", "a")


class TestRawBits:
    def test_prefix_stability(self):
        # a shorter draw is a prefix of a longer one; normals relies on it
        key = rng.stream_key(42, "bits")
        whole = rng.random_u64(key, 100)
        head = rng.random_u64(key, 60)
        assert np.array_equal(whole[:60], head)

    def test_uniform_bits_are_spread(self):
        key = rng.stream_key(0, "spread")
        bits = rng.random_u64(key, 4096)
        # each of the 64 bit positions should be set roughly half the time
        for shift in (0, 17, 33, 63):
            frac = np.mean((bits >> shift) & 1)
            assert 0.45 < frac < 0.55


class TestUniforms:
    def test_range(self):
        u = rng.uniforms(rng.stream_key(3, "u"), 10_000)
        assert u.min() >= 0.0
        assert u.max() < 1.0

    def test_mean_and_variance(self):
        u = rng.uniforms(rng.stream_key(5, "u"), 50_000)
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_reproducible(self):
        a = rng.uniforms(rng.stream_key(11, "x"), 64)
        b = rng.uniforms(rng.stream_key(11, "x"), 64)
        np.testing.assert_array_equal(a, b)


class TestNormals:
    def test_moments(self):
        z = rng.normals(rng.stream_key(9, "z"), 100_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02

    def test_odd_count(self):
        key = rng.stream_key(2, "odd")
        assert rng.normals(key, 7).shape == (7,)

    def test_prefix_stability(self):
        # a longer draw starts with the same values as a shorter one
        key = rng.stream_key(4, "prefix")
        short = rng.normals(key, 10)
        long = rng.normals(key, 20)
        np.testing.assert_array_equal(long[:10], short)

    def test_finite(self):
        z = rng.normals(rng.stream_key(1, "fin"), 4096)
        assert np.isfinite(z).all()


def test_count_validation():
    key = rng.stream_key(0, "neg")
    with pytest.raises(ValueError):
        rng.random_u64(key, -1)
