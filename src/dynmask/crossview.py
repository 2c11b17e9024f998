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
confidence are sampled plane-major from one (5, H, W) array, but every
point still sums its taps in the order 00, 01, 10, 11 and its views in
index order, so scores are bit-identical to sampling the (H, W, C) stack
tap by tap with per-point (N, C) gathers.

Within each view the alive points are projected and sampled in blocks of
a fixed size.  A block boundary changes no sum, so the result is exact
whatever the block size.  The alive ids, their source pixels, the
per-point sums and the returned scores and counts are the only arrays the
size of the cloud; every other temporary is the size of one block or of
one view's planes, so refinement memory stops growing with the cloud.

A view's blocks run on one thread per CPU in the process's affinity
(`taskset` narrows it), sharing that view's planes; NumPy releases the
GIL in the gathers and arithmetic, so the threads run at once.  Each
block adds only into its own points' sums and every block of a view
ends before the next view starts, so the outputs are byte-identical at
any worker count.
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor
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
# alive points scored per projection and sampling call: bounds every
# per-view temporary of `score_cloud`, whatever the size of the cloud
_BLOCK = 1 << 14
# threads that score one view's blocks at once: every CPU this process may
# run on (`taskset` narrows it); a call with one block runs on its caller.
# `evaluation.cloud_metrics` runs its nearest-neighbor queries on as many
# threads
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def activate_confidence(logits: np.ndarray) -> np.ndarray:
    """Map raw logits to confidences C = 1 + exp(l), clamped to stay finite.

    The floor of 1 makes C - 1 a precision: C near 1 means an almost
    uninformative depth observation.  The output is the only (T, H, W)
    array allocated: the logits are copied once and activated in place.
    """
    conf = np.array(logits, dtype=np.float64)
    np.clip(conf, -LOGIT_CLAMP, LOGIT_CLAMP, out=conf)
    np.exp(conf, out=conf)
    conf += 1.0
    return conf


def bilinear_sample(planes: np.ndarray, support: np.ndarray,
                    u: np.ndarray, v: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear interpolation of (C, H, W) planes, restricted to a mask.

    `support` (H, W) marks pixels allowed to contribute.  Taps outside the
    image or outside the support get zero weight and the rest are
    renormalized.  Returns (sampled, ok): sampled is (C, N), and ok is
    False where no tap had weight (sampled is 0 there).  Each tap gathers
    every plane with one `np.take` along the pixel axis.
    """
    vals = np.asarray(planes, dtype=np.float64)
    sup = np.asarray(support, dtype=bool)
    if vals.ndim != 3 or vals.shape[1:] != sup.shape:
        raise ValueError(f"planes {vals.shape} are not (C, *{sup.shape})")
    h, w = sup.shape
    vals = vals.reshape(len(vals), h * w)
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

    out = np.zeros((len(vals), len(u)))
    wsum = np.zeros(len(u))
    for dy, dx, weight in ((0, 0, gx * gy), (0, 1, fx * gy),
                           (1, 0, gx * fy), (1, 1, fx * fy)):
        (row, row_in), (col, col_in) = rows[dy], cols[dx]
        idx = row + col
        weight *= row_in & col_in & sup[idx]
        block = np.take(vals, idx, axis=1)
        block *= weight
        out += block
        wsum += weight
    ok = wsum > 0
    np.divide(out, wsum, out=out, where=ok)
    return out, ok


def score_cloud(cloud: DynamicPointCloud, bundle: SceneBundle,
                confidences: np.ndarray, lam: float = DEFAULT_LAMBDA,
                occlusion_tol: float = DEFAULT_OCCLUSION_TOL
                ) -> tuple[np.ndarray, np.ndarray]:
    """Confidence-weighted cross-view inconsistency of every alive point.

    S = sum_i w_i (|depth residual_i| + lam * mean |color residual_i|) over
    the views i that see the point, with w_i its sampled confidences
    normalized over those views.  Zero means every view agrees the point
    is where its geometry says it should be.

    A view sees a point that lands in frame in front of it, on supported
    depth, and at most `occlusion_tol * z` behind the sampled depth.

    Returns (scores, visible_counts), both length len(cloud).  Dead points
    and points visible nowhere carry score 0 with count 0; callers must
    branch on the count, a zero score alone does not mean "static".
    """
    scores = np.zeros(len(cloud))
    counts = np.zeros(len(cloud), dtype=np.int64)
    alive_ids = np.flatnonzero(cloud.alive)
    h, w = bundle.height, bundle.width
    src_pixel = cloud.pixel_ids[alive_ids]
    weight_sum = np.zeros(len(alive_ids))
    weighted_res = np.zeros(len(alive_ids))
    vis_count = np.zeros(len(alive_ids), dtype=np.int64)
    planes = np.empty((5, h, w))  # depth, RGB, confidence
    rgb = bundle.images.reshape(-1, 3)  # one row per pixel of every frame

    def score_block(camera, support, start):
        # adds into the sums of alive points [start, start + _BLOCK) only
        block = alive_ids[start:start + _BLOCK]
        uv, z = geometry.project_points(
            np.take(cloud.positions, block, axis=0), camera)
        ids = np.flatnonzero((z > geometry.MIN_DEPTH)
                             & (uv[:, 0] >= 0) & (uv[:, 0] <= w - 1)
                             & (uv[:, 1] >= 0) & (uv[:, 1] <= h - 1))
        samples, ok = bilinear_sample(planes, support, uv[ids, 0], uv[ids, 1])
        z = z[ids]
        keep = np.flatnonzero(ok & (z <= samples[0] + occlusion_tol * z))
        ids, z = ids[keep] + start, z[keep]
        samples = np.take(samples, keep, axis=1)
        # (3, n) source colours of the points this view sees
        colors = np.take(rgb, src_pixel[ids], axis=0).T
        r_d = np.abs(z - samples[0])
        # mean |color residual| summed channel by channel, as np.mean does
        r_c = np.abs(colors - samples[1:4])
        r_c = (r_c[0] + r_c[1] + r_c[2]) / 3
        weight_sum[ids] += samples[4]
        weighted_res[ids] += samples[4] * (r_d + lam * r_c)
        vis_count[ids] += 1

    starts = range(0, len(alive_ids), _BLOCK)
    workers = min(_WORKERS, len(starts))
    with (ThreadPoolExecutor(workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        run = map if pool is None else pool.map
        for view, camera in enumerate(bundle.cameras):
            planes[0] = bundle.depths[view]
            planes[1:4] = np.moveaxis(bundle.images[view], -1, 0)
            planes[4] = confidences[view]
            support = bundle.depths[view] > 0
            # every block of this view ends before the next view's planes
            # overwrite these, so each point adds its views in index order
            list(run(functools.partial(score_block, camera, support), starts))

    # a point no view sees keeps its weighted sum of 0 as its score
    np.divide(weighted_res, weight_sum, out=weighted_res,
              where=vis_count > 0)
    scores[alive_ids] = weighted_res
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
