"""Tests for the counter-based deterministic random stream."""

import numpy as np
import pytest

from dynmask import rng
from oracles import stream_key_by_array

# keys and draws recorded from the NumPy-array mixer; pure 64-bit integer
# arithmetic, so they hold on every platform
GOLDEN_KEYS = [
    ((0,), 0x0),
    ((0, "noise"), 0xE067370A3313909E),
    ((2**64 - 1,), 0xB4D055FCF2CBBD7B),
    ((2**64 - 1, "depth-noise", 5), 0xC7F9A10BEE38D0CF),
    ((7, "noise", 3), 0x074EBD93F8A0278D),
    ((424242, "corpus", 19), 0x897C454CF6776802),
    ((0, "attn-noise", 5, 3), 0x2D5E002BB77AD6CC),
    ((12345, -1), 0xCE35EF2F1593E1E5),
    ((3, "x", -7, "y"), 0xE4971A3CA3C36FAC),
    ((2**63, 2**64 - 1), 0xFCA450F3B1570ABA),
]
GOLDEN_DRAWS = [
    # the first draw at key 0 is SplitMix64's published first output
    (0, [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]),
    (2**64 - 1, [0xE4D971771B652C20, 0xE99FF867DBF682C9]),
    (rng.stream_key(0, "noise-tiles", 0),
     [0xC530E36F0B4D3AC4, 0xA35418B747EA26CF, 0x14E2A3B2E9B95B34,
      0xA2AB184A1123EE92]),
    (rng.stream_key(2**64 - 1),
     [0xA577782BC52A9F5A, 0xB485244380E590BE, 0x5176985D86CFF511]),
]


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

    @pytest.mark.parametrize("path, key", GOLDEN_KEYS)
    def test_golden_keys(self, path, key):
        assert rng.stream_key(*path) == key

    def test_matches_array_mixer(self):
        draw = np.random.default_rng(20141020)
        words = ["noise", "depth-noise", "attn-noise", "", "é"]
        for _ in range(1000):
            seed = int(draw.integers(0, 2**64, dtype=np.uint64))
            path = [words[draw.integers(len(words))]
                    if draw.random() < 0.4
                    else int(draw.integers(-2**63, 2**63 - 1))
                    for _ in range(draw.integers(0, 5))]
            assert rng.stream_key(seed, *path) == stream_key_by_array(
                seed, *path)


class TestRawBits:
    @pytest.mark.parametrize("key, draws", GOLDEN_DRAWS)
    def test_golden_draws(self, key, draws):
        np.testing.assert_array_equal(
            rng.random_u64(key, len(draws)), np.array(draws, dtype=np.uint64))

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
