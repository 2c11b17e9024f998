"""Deterministic counter-based random streams.

All synthetic-scene randomness flows through a SplitMix64 mixer so that a
given (seed, frame, tag) triple always yields the same bytes, independent of
call order, platform, or parallel scheduling.  The algorithm is the standard
SplitMix64 finalizer (Steele, Lea & Flood), applied to a counter:

    out[i] = mix64(stream_key + (i + 1) * 0x9E3779B97F4A7C15)

which makes every stream trivially portable, and a shorter draw a prefix
of a longer one.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF  # wraps plain-int arithmetic to 64 bits
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

# 2^-53, scale factor mapping the top 53 bits of a u64 onto [0, 1)
_U53_INV = float(2.0**-53)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array (vectorized, wrapping)."""
    z = x.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    return z


def stream_key(seed: int, *path: int | str) -> int:
    """Derive a 64-bit stream key from a seed and a path of ints/strings.

    Each path element is mixed in sequentially, so (seed, 3, 1) and
    (seed, 1, 3) give unrelated streams.  String elements are hashed with
    blake2b so the mapping is stable across runs and platforms.
    """
    golden = int(_GOLDEN)
    key = int(_mix64(np.array([seed & _MASK], dtype=np.uint64))[0])
    for part in path:
        if isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
            word = int.from_bytes(digest, "little")
        else:
            word = part & _MASK
        # wrapping arithmetic in plain ints avoids numpy scalar overflow noise
        key = int(_mix64(np.array([(key + golden * word) & _MASK],
                                  dtype=np.uint64))[0])
    return key


def random_u64(key: int, count: int) -> np.ndarray:
    """The first `count` raw uint64 draws from the stream at `key`."""
    if count < 0:
        raise ValueError(f"count {count} must be >= 0")
    idx = np.arange(1, count + 1, dtype=np.uint64)
    return _mix64(np.uint64(key) + idx * _GOLDEN)


def uniforms(key: int, count: int) -> np.ndarray:
    """`count` float64 uniforms in [0, 1) from the stream at `key`."""
    bits = random_u64(key, count)
    return (bits >> np.uint64(11)).astype(np.float64) * _U53_INV


def normals(key: int, count: int) -> np.ndarray:
    """`count` standard-normal float64 draws via Box-Muller.

    Consumes 2*ceil(count/2) uniforms from the stream; fully deterministic.
    """
    pairs = (count + 1) // 2
    u = uniforms(key, 2 * pairs)
    # interleaved consumption keeps prefixes stable across different counts
    u1 = u[0::2]
    u2 = u[1::2]
    # guard u1 == 0 so log() stays finite
    u1 = np.maximum(u1, _U53_INV)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]
