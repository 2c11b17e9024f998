"""Cross-view consistency scoring with confidence-weighted residuals.

Every surviving cloud point is projected into all views.  Where it is
visible, the depth it should have is compared against the depth map, and
its source color against the image, both sampled bilinearly.  Views with
confident depth dominate the comparison: per-view confidences are
normalized into convex weights, so one trusted agreeing view can outvote
several noisy ones.  Points whose weighted inconsistency stays below a
threshold are re-labeled static; the survivors form the final masks after
a single morphological closing pass.

The sampler is exact, not approximate: each view's depth, RGB and
confidence are sampled channel-major from one (5, H*W) array, but every
point still sums its taps in the order 00, 01, 10, 11 and its views in
index order, so scores are bit-identical to sampling the (H, W, C) stack
tap by tap with per-point (N, C) gathers.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import ndimage

from . import geometry
from .purification import DynamicPointCloud, mask_from_cloud
from .tensor_io import SceneBundle

LOGIT_CLAMP = 40.0
DEFAULT_LAMBDA = 1.0 / 3.0
DEFAULT_THETA_DYN = 0.1
DEFAULT_OCCLUSION_TOL = 0.05


def activate_confidence(logits: np.ndarray) -> np.ndarray:
    """Map raw logits to confidences C = 1 + exp(l), clamped to stay finite.

    The floor of 1 makes C - 1 a precision: C near 1 means an almost
    uninformative depth observation.
    """
    l = np.clip(np.asarray(logits, dtype=np.float64), -LOGIT_CLAMP, LOGIT_CLAMP)
    return 1.0 + np.exp(l)


def bilinear_sample(values: np.ndarray, support: np.ndarray,
                    u: np.ndarray, v: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation restricted to a validity mask.

    `values` is (H, W) or (H, W, C); `support` (H, W) marks pixels allowed
    to contribute.  Taps outside the image or outside the support get zero
    weight and the rest are renormalized.  Returns (sampled, ok) where ok
    is False when no tap had weight (sampled is 0 there).

    Sampling runs channel-major: the channels are read as (C, H*W) planes
    (without a copy when `values` is the (H, W, C) transpose of contiguous
    planes, as `score_cloud` passes them), and each tap gathers every
    channel with one `np.take` along the pixel axis.
    """
    vals = np.asarray(values, dtype=np.float64)
    sup = np.asarray(support, dtype=bool)
    h, w = sup.shape
    planes = np.moveaxis(vals.reshape(h, w, -1), -1, 0).reshape(-1, h * w)
    sup = sup.ravel()
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)

    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    fx = u - x0
    fy = v - y0
    gx = 1 - fx
    gy = 1 - fy
    # per axis and tap offset: the clamped index and whether it is in range
    cols = [(np.clip(x0 + d, 0, w - 1), (x0 + d >= 0) & (x0 + d < w))
            for d in (0, 1)]
    rows = [(np.clip(y0 + d, 0, h - 1) * w, (y0 + d >= 0) & (y0 + d < h))
            for d in (0, 1)]

    out = np.zeros((len(planes), len(u)))
    wsum = np.zeros(len(u))
    for dy, dx, weight in ((0, 0, gx * gy), (0, 1, fx * gy),
                           (1, 0, gx * fy), (1, 1, fx * fy)):
        (row, row_in), (col, col_in) = rows[dy], cols[dx]
        idx = row + col
        weight *= row_in & col_in & sup[idx]
        block = np.take(planes, idx, axis=1)
        block *= weight
        out += block
        wsum += weight
    ok = wsum > 0
    np.divide(out, wsum, out=out, where=ok)
    return (out[0] if vals.ndim == 2 else out.T), ok


def _project_into_view(positions: np.ndarray, planes: np.ndarray,
                       support: np.ndarray, camera: geometry.CameraModel,
                       occlusion_tol: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project many points into one view; keep the ones it sees.

    `planes` is the view's (5, H*W) depth, RGB and confidence; the points
    that land in frame in front of the camera are sampled in one
    `bilinear_sample` call.  Returns (ids, z, samples) for the visible
    points only: their indices into `positions`, their depth in this
    camera and their (5, K) samples.
    """
    h, w = support.shape
    uv, z = geometry.project_points(positions, camera)
    ids = np.flatnonzero((z > 1e-9)
                         & (uv[:, 0] >= 0) & (uv[:, 0] <= w - 1)
                         & (uv[:, 1] >= 0) & (uv[:, 1] <= h - 1))
    samples, ok = bilinear_sample(planes.T.reshape(h, w, len(planes)),
                                  support, uv[ids, 0], uv[ids, 1])
    samples = samples.T
    z = z[ids]
    visible = ok & (z <= samples[0] + occlusion_tol * z)
    return ids[visible], z[visible], samples[:, visible]


def score_cloud(cloud: DynamicPointCloud, bundle: SceneBundle,
                confidences: np.ndarray, lam: float = DEFAULT_LAMBDA,
                occlusion_tol: float = DEFAULT_OCCLUSION_TOL
                ) -> tuple[np.ndarray, np.ndarray]:
    """Confidence-weighted cross-view inconsistency of every alive point.

    S = sum_i w_i (|depth residual_i| + lam * mean |color residual_i|) over
    the views i that see the point, with w_i its sampled confidences
    normalized over those views.  Zero means every view agrees the point
    is where its geometry says it should be.

    Returns (scores, visible_counts), both length len(cloud).  Dead points
    and points visible nowhere carry score 0 with count 0; callers must
    branch on the count, a zero score alone does not mean "static".
    """
    n = len(cloud)
    scores = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    alive_ids = np.flatnonzero(cloud.alive)
    if len(alive_ids) == 0:
        return scores, counts

    pos = cloud.positions[alive_ids]
    frames = cloud.frame_indices[alive_ids]
    rows = cloud.pixels[alive_ids, 0]
    cols = cloud.pixels[alive_ids, 1]
    colors = np.ascontiguousarray(bundle.images[frames, rows, cols].T,
                                  dtype=np.float64)  # (3, N)

    weight_sum = np.zeros(len(alive_ids))
    weighted_res = np.zeros(len(alive_ids))
    vis_count = np.zeros(len(alive_ids), dtype=np.int64)
    planes = np.empty((5, bundle.height * bundle.width))
    for view in range(bundle.frames):
        planes[0] = bundle.depths[view].ravel()
        planes[1:4] = bundle.images[view].reshape(-1, 3).T
        planes[4] = confidences[view].ravel()
        ids, z, samples = _project_into_view(
            pos, planes, bundle.depths[view] > 0, bundle.cameras[view],
            occlusion_tol)
        r_d = np.abs(z - samples[0])
        # mean |color residual| summed channel by channel, as np.mean does
        r_c = np.abs(np.take(colors, ids, axis=1) - samples[1:4])
        r_c = (r_c[0] + r_c[1] + r_c[2]) / 3
        weight_sum[ids] += samples[4]
        weighted_res[ids] += samples[4] * (r_d + lam * r_c)
        vis_count[ids] += 1

    seen = vis_count > 0
    out = np.zeros(len(alive_ids))
    out[seen] = weighted_res[seen] / weight_sum[seen]
    scores[alive_ids] = out
    counts[alive_ids] = vis_count
    return scores, counts


def close_masks(masks: np.ndarray) -> np.ndarray:
    """One 3x3 closing pass per frame: dilate, then erode.

    Each frame is padded with one ring of background first so the closing
    behaves as if computed on an infinite plane: blobs touching the image
    edge are neither eaten nor artificially extended to the border.  The
    (1, 3, 3) structure closes the whole stack at once, frame by frame.
    """
    structure = np.ones((1, 3, 3), dtype=bool)
    padded = np.pad(np.asarray(masks, dtype=bool), ((0, 0), (1, 1), (1, 1)))
    grown = ndimage.binary_dilation(padded, structure=structure)
    closed = ndimage.binary_erosion(grown, structure=structure)
    return np.ascontiguousarray(closed[:, 1:-1, 1:-1])


def refine_masks(cloud: DynamicPointCloud, bundle: SceneBundle,
                 confidences: np.ndarray,
                 theta_dyn: float = DEFAULT_THETA_DYN,
                 lam: float = DEFAULT_LAMBDA,
                 occlusion_tol: float = DEFAULT_OCCLUSION_TOL
                 ) -> tuple[np.ndarray, DynamicPointCloud]:
    """Final masks: keep points whose inconsistency clears the threshold.

    Points nowhere visible keep their current (purification) verdict.
    Returns the closed per-frame masks plus the re-labeled cloud, which
    shares every array with `cloud` but `alive`.
    """
    scores, counts = score_cloud(cloud, bundle, confidences, lam, occlusion_tol)
    alive = np.where(cloud.alive & (counts > 0), scores >= theta_dyn,
                     cloud.alive)
    out = replace(cloud, alive=alive)
    return close_masks(mask_from_cloud(out, bundle)), out
