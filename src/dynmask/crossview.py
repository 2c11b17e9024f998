"""Cross-view consistency scoring with confidence-weighted residuals.

Every surviving cloud point is projected into all views.  Where it is
visible, the depth it should have is compared against the depth map, and
its source color against the image, both sampled bilinearly.  Views with
confident depth dominate the comparison: per-view confidences are
normalized into convex weights, so one trusted agreeing view can outvote
several noisy ones.  Points whose weighted inconsistency stays below a
threshold are re-labeled static; the survivors form the final masks after
a single morphological closing pass.
"""

from __future__ import annotations

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
    """
    vals = np.asarray(values, dtype=np.float64)
    sup = np.asarray(support, dtype=bool)
    h, w = sup.shape
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)

    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    fx = u - x0
    fy = v - y0

    flat = vals.reshape(h * w, -1)
    out = np.zeros((len(u), flat.shape[1]))
    wsum = np.zeros(len(u))
    for dy, dx, wt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                       (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
        xi = x0 + dx
        yi = y0 + dy
        inside = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        xi_c = np.clip(xi, 0, w - 1)
        yi_c = np.clip(yi, 0, h - 1)
        weight = wt * inside * sup[yi_c, xi_c]
        out += weight[:, None] * flat[yi_c * w + xi_c]
        wsum += weight
    ok = wsum > 0
    out[ok] /= wsum[ok, None]
    sampled = out[:, 0] if vals.ndim == 2 else out
    return sampled, ok


def _project_into_view(positions: np.ndarray, bundle: SceneBundle,
                       confidences: np.ndarray, view: int,
                       occlusion_tol: float
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized projection of many points into one view.

    Depth, color and confidence are stacked into one (H, W, 5) array and
    sampled in a single pass; `bilinear_sample` treats channels
    independently, so this equals three separate samplings.  Returns
    (z, samples, visible) with samples (N, 5) = depth, RGB, confidence,
    zero where the point does not land on valid depth.
    """
    uv, z = geometry.project_points(positions, bundle.cameras[view])
    h, w = bundle.height, bundle.width
    in_front = z > 1e-9
    in_bounds = ((uv[:, 0] >= 0) & (uv[:, 0] <= w - 1)
                 & (uv[:, 1] >= 0) & (uv[:, 1] <= h - 1))
    candidate = in_front & in_bounds

    samples = np.zeros((len(positions), 5))
    ok = np.zeros(len(positions), dtype=bool)
    if candidate.any():
        stack = np.dstack((bundle.depths[view], bundle.images[view],
                           confidences[view]))
        samples[candidate], ok[candidate] = bilinear_sample(
            stack, bundle.depths[view] > 0,
            uv[candidate, 0], uv[candidate, 1])

    not_occluded = z <= samples[:, 0] + occlusion_tol * z
    visible = candidate & ok & not_occluded
    return z, samples, visible


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
    colors = bundle.images[frames, rows, cols].astype(np.float64)

    weight_sum = np.zeros(len(alive_ids))
    weighted_res = np.zeros(len(alive_ids))
    vis_count = np.zeros(len(alive_ids), dtype=np.int64)
    for view in range(bundle.frames):
        z, samples, vis = _project_into_view(pos, bundle, confidences, view,
                                             occlusion_tol)
        cf_s = samples[:, 4]
        r_d = np.abs(z - samples[:, 0])
        r_c = np.mean(np.abs(colors - samples[:, 1:4]), axis=1)
        contrib = cf_s * (r_d + lam * r_c)
        weight_sum += np.where(vis, cf_s, 0.0)
        weighted_res += np.where(vis, contrib, 0.0)
        vis_count += vis

    seen = vis_count > 0
    out = np.zeros(len(alive_ids))
    out[seen] = weighted_res[seen] / weight_sum[seen]
    scores[alive_ids] = out
    counts[alive_ids] = vis_count
    return scores, counts


def close_masks(masks: np.ndarray) -> np.ndarray:
    """One 3x3 closing pass per frame: dilate, then erode.

    The frame is padded with one ring of background first so the closing
    behaves as if computed on an infinite plane: blobs touching the image
    edge are neither eaten nor artificially extended to the border.
    """
    structure = np.ones((3, 3), dtype=bool)
    out = np.zeros_like(masks, dtype=bool)
    for f in range(masks.shape[0]):
        padded = np.pad(masks[f], 1)
        grown = ndimage.binary_dilation(padded, structure=structure)
        closed = ndimage.binary_erosion(grown, structure=structure)
        out[f] = closed[1:-1, 1:-1]
    return out


def refine_masks(cloud: DynamicPointCloud, bundle: SceneBundle,
                 confidences: np.ndarray,
                 theta_dyn: float = DEFAULT_THETA_DYN,
                 lam: float = DEFAULT_LAMBDA,
                 occlusion_tol: float = DEFAULT_OCCLUSION_TOL
                 ) -> tuple[np.ndarray, DynamicPointCloud]:
    """Final masks: keep points whose inconsistency clears the threshold.

    Points nowhere visible keep their current (purification) verdict.
    Returns the closed per-frame masks plus the re-labeled cloud.
    """
    scores, counts = score_cloud(cloud, bundle, confidences, lam, occlusion_tol)
    out = cloud.copy()
    scored = out.alive & (counts > 0)
    out.alive[scored] = scores[scored] >= theta_dyn
    masks = mask_from_cloud(out, bundle)
    return close_masks(masks), out
