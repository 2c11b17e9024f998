"""Cross-view consistency scoring with confidence-weighted residuals.

Every surviving cloud point is projected into all views.  Where it is
visible, the depth it should have is compared against the depth map, and
its source color against the image, both sampled bilinearly.  Views with
confident depth dominate the comparison: per-view confidences are
normalized into convex weights, so one trusted agreeing view can outvote
several noisy ones.  Points whose weighted inconsistency stays below a
threshold are re-labeled static; the survivors form the final masks after
a single morphological closing pass.

The sampler is exact, not approximate.  Each view's depth, RGB and
confidence are sampled plane-major from one (5, H + 1, W + 1) array whose
extra last row and column are 0, with a support mask that is False there.
The scorer samples only points in frame (0 <= u <= W - 1,
0 <= v <= H - 1), so the top-left tap is in the image and the other three
are its neighbours at fixed offsets: no tap needs clamping or a range
test.  A tap past the last column or row lands in the pad, where its
bilinear weight is already 0 (it is reached only at u = W - 1 or
v = H - 1 exactly), as was the weight of the clamped tap that a
general-coordinate sampler reads there.  Every point sums its taps in the
order 00, 01, 10, 11 and its views in index order, so scores are
bit-identical to sampling the unpadded (H, W, C) stack tap by tap with
clamped per-point (N, C) gathers.

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

The closing pads each frame with one ring of background and applies a
3x3 dilation and then a 3x3 erosion, each as a pass along the rows and a
pass along the columns of shifted boolean ORs or ANDs.  A 3x3 box is the
product of its row and its column, so this is the binary closing with a
(3, 3) structure, bit for bit.
"""

from __future__ import annotations

import contextlib
import functools
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import geometry, purification
from .purification import DynamicPointCloud, mask_from_cloud
from .tensor_io import SceneBundle

LOGIT_CLAMP = 40.0
DEFAULT_LAMBDA = 1.0 / 3.0
DEFAULT_THETA_DYN = 0.1
DEFAULT_OCCLUSION_TOL = 0.05
# alive points scored per projection and sampling call: bounds every
# per-view temporary of `score_cloud`, whatever the size of the cloud
_BLOCK = 1 << 14


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
    """Bilinear interpolation of padded planes at in-frame points.

    The (C, H + 1, W + 1) planes hold an H x W image plus one extra last
    row and column of 0, and `support` (H + 1, W + 1) marks the pixels
    allowed to contribute (False in the pad).  Every point must lie in
    frame, 0 <= u <= W - 1 and 0 <= v <= H - 1; any other coordinate, NaN
    included, is a ValueError.  The taps of a point are then the pixel at
    (floor v, floor u) and its right, lower and lower-right neighbours; one
    past the last column or row is in the pad, where its weight is 0.
    Taps off the support get zero weight and the rest are renormalized.
    Returns (sampled, ok): sampled is (C, N), and ok is False where no tap
    had weight (sampled is 0 there).  Each tap gathers every plane with one
    `np.take` along the pixel axis.
    """
    vals = np.asarray(planes, dtype=np.float64)
    sup = np.asarray(support, dtype=bool)
    if vals.ndim != 3 or vals.shape[1:] != sup.shape:
        raise ValueError(f"planes {vals.shape} are not (C, *{sup.shape})")
    h, w = sup.shape  # the frame is (h - 1, w - 1)
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    # min and max propagate NaN, which then fails both comparisons
    if len(u) and not (u.min() >= 0 and u.max() <= w - 2
                       and v.min() >= 0 and v.max() <= h - 2):
        raise ValueError(f"points outside the {w - 1}x{h - 1} frame")
    vals = vals.reshape(len(vals), h * w)
    sup = sup.ravel()

    x0 = u.astype(np.int64)  # the floor, as u >= 0
    y0 = v.astype(np.int64)
    fx = u - x0
    fy = v - y0
    gx = 1 - fx
    gy = 1 - fy
    i00 = y0 * w + x0

    out = np.zeros((len(vals), len(u)))
    wsum = np.zeros(len(u))
    for offset, weight in ((0, gx * gy), (1, fx * gy),
                           (w, gx * fy), (w + 1, fx * fy)):
        idx = i00 + offset
        weight *= sup[idx]
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
    # a view count never nears 2**31: half the bytes of the int64 result
    vis_count = np.zeros(len(alive_ids), dtype=np.int32)
    # depth, RGB and confidence of one view, and where its depth is valid,
    # each padded with a last row and column of 0 for `bilinear_sample`
    planes = np.zeros((5, h + 1, w + 1))
    support = np.zeros((h + 1, w + 1), dtype=bool)
    rgb = bundle.images.reshape(-1, 3)  # one row per pixel of every frame

    def score_block(camera, start):
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
    # a thread per CPU, but no more than there are blocks: one block runs
    # on the caller
    workers = min(purification._WORKERS, len(starts))
    with (ThreadPoolExecutor(workers) if workers > 1
          else contextlib.nullcontext()) as pool:
        run = map if pool is None else pool.map
        for view, camera in enumerate(bundle.cameras):
            planes[0, :h, :w] = bundle.depths[view]
            planes[1:4, :h, :w] = np.moveaxis(bundle.images[view], -1, 0)
            planes[4, :h, :w] = confidences[view]
            np.greater(bundle.depths[view], 0, out=support[:h, :w])
            # every block of this view ends before the next view's planes
            # overwrite these, so each point adds its views in index order
            list(run(functools.partial(score_block, camera), starts))

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
    edge are neither eaten nor artificially extended to the border.  Each
    3x3 pass is a pass along the rows and then along the columns of the
    whole stack, and no pass crosses from one frame into the next.
    """
    masks = np.asarray(masks, dtype=bool)
    frames, h, w = masks.shape
    closed = np.zeros((frames, h + 2, w + 2), dtype=bool)
    closed[:, 1:-1, 1:-1] = masks
    for combine in (operator.ior, operator.iand):  # dilate, erode
        for axis in (2, 1):
            lead = (slice(None),) * axis
            head, tail = lead + (slice(1, None),), lead + (slice(None, -1),)
            # each pixel takes its neighbours on both sides along the axis;
            # the ring's outer neighbours are left out: background for the
            # dilation, and never read by the frame's erosion
            before = closed.copy()
            combine(closed[head], before[tail])
            combine(closed[tail], before[head])
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
