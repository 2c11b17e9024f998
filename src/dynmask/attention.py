"""Variance-guided fusion of multi-head attention maps into saliency masks.

Heads whose spatial response varies a lot carry localized signal; flat heads
carry none.  Weighting each head by its spatial variance and renormalizing
gives a convex combination that suppresses diffuse noise heads without any
training.  The fused map is min-max normalized and thresholded, then blown
up to image resolution by patch replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-8
# below this total variance the weights are numerically meaningless
UNIFORM_FALLBACK_TOTAL = 1e-12


@dataclass
class SaliencyMap:
    """Fused attention response, normalized to [0, 1] unless constant."""

    values: np.ndarray        # (H', W') float64 in [0, 1]
    head_weights: np.ndarray  # (H,) effective weights, sum exactly 1


def effective_weights(maps: np.ndarray, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Convex-combination weights of an (H, H', W') head stack.

    Each head's weight is its population spatial variance over the total,
    V_h / (sum_k V_k + eps), renormalized to sum to 1, so eps cancels.
    A constant head's variance is exactly zero rather than rounding dust
    from the mean subtraction, so flat distractor heads get weight 0.
    When the total variance is below the fallback threshold, all heads
    get equal weight.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    arr = np.asarray(maps, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"empty attention map, head stack shape {arr.shape}")
    flat = arr.max(axis=(1, 2)) == arr.min(axis=(1, 2))
    variances = np.where(flat, 0.0, arr.var(axis=(1, 2)))
    total = variances.sum()
    if total <= UNIFORM_FALLBACK_TOTAL:
        return np.full(len(variances), 1.0 / len(variances))
    raw = variances / (total + eps)
    return raw / raw.sum()


def aggregate(maps: np.ndarray, eps: float = DEFAULT_EPS,
              weighted: bool = True) -> SaliencyMap:
    """Fuse per-head maps into one normalized saliency map.

    With `weighted` false the fusion is a plain uniform average (the
    ablation baseline).  Summation runs head by head in index order so the
    result is bit-identical across runs.
    """
    arr = np.asarray(maps, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[0] < 1:
        raise ValueError(f"head stack shape {arr.shape}, wanted (H, H', W')")
    n = arr.shape[0]
    weights = effective_weights(arr, eps) if weighted else np.full(n, 1.0 / n)

    fused = weights[0] * arr[0]
    for h in range(1, n):
        fused = fused + weights[h] * arr[h]

    lo = float(fused.min())
    hi = float(fused.max())
    if hi - lo <= 0.0:
        values = np.zeros_like(fused)
    else:
        values = (fused - lo) / (hi - lo)
    return SaliencyMap(values=values, head_weights=weights)


def binarize(saliency: SaliencyMap, theta: float, patch: int = 1) -> np.ndarray:
    """Threshold a saliency map and replicate to image resolution.

    A pixel is dynamic iff its saliency is >= theta, so theta=0 marks
    everything and theta>1 marks nothing.  Each saliency cell expands to a
    patch x patch block (nearest-neighbor upsampling).
    """
    if patch < 1:
        raise ValueError(f"patch factor {patch} must be >= 1")
    mask = saliency.values >= theta
    return np.repeat(np.repeat(mask, patch, axis=0), patch, axis=1)
