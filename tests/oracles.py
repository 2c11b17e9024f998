"""Reference oracles the tests check the library against.

No pipeline or CLI path runs these, so they live with the tests: the
head-by-head attention variances, the world-displacement, single-pixel
and camera-frame-motion warps, the mover-by-mover residual maps, the
scalar epipolar residual and its first-order estimate, the mean Jaccard
and boundary scores, the boundary measure by whole-frame distance
transforms, the stream key mixed through one-element arrays, the analytic
depth cast at arbitrary pixels, the three-slab box test, the
frame-by-frame render the generator must match, the outlier injection of
the ablation gate, and the table of malformed ground-truth directories
that both the loader and the CLI must reject.
"""

import hashlib
from dataclasses import replace

import numpy as np
from scipy import ndimage

from dynmask import rng
from dynmask.attention import UNIFORM_FALLBACK_TOTAL
from dynmask.evaluation import (DEFAULT_BOUNDARY_TOL, boundary_f_frames,
                                jaccard_frames)
from dynmask.geometry import (MIN_DEPTH, CameraModel, epipolar_residual_batch,
                              essential_from_poses, pixel_rays,
                              project_points, unproject_pixels)
from dynmask.synthetic import (_CHECKER_DARK, _CHECKER_LIGHT, CHECKER, FLOOR_Y,
                               PLANE_EPS, RAY_EPS, WALL_Z, GroundTruth,
                               SceneSpec, _camera_rays, _cast_rays,
                               _intersect_plane, _intersect_sphere,
                               _ray_directions)
from dynmask.tensor_io import SceneBundle, read_tensor, write_tensor


# ---------------------------------------------------------------------------
# attention weights
# ---------------------------------------------------------------------------

def head_variance(head: np.ndarray) -> float:
    """Population spatial variance of one head's response map."""
    arr = np.asarray(head, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("empty attention map")
    # exact zero for constant maps, so flat distractor heads get weight 0
    # rather than rounding dust from the mean subtraction
    if arr.max() == arr.min():
        return 0.0
    mean = arr.mean()
    return float(np.mean((arr - mean) ** 2))


def effective_weights_by_head(maps: np.ndarray, eps: float) -> np.ndarray:
    """`attention.effective_weights` from one `head_variance` call a head."""
    variances = np.array([head_variance(head) for head in maps])
    total = variances.sum()
    if total <= UNIFORM_FALLBACK_TOTAL:
        return np.full(len(variances), 1.0 / len(variances))
    raw = variances / (total + eps)
    return raw / raw.sum()


# ---------------------------------------------------------------------------
# two-view warps
# ---------------------------------------------------------------------------

class BehindCameraError(ValueError):
    """Projection target has non-positive depth in the target camera."""


def project_dynamic_world_batch(pixels: np.ndarray, depths: np.ndarray,
                                ref: CameraModel, tgt: CameraModel,
                                displacements: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Warp reference pixels whose points move by world displacements."""
    disp = np.asarray(displacements, dtype=np.float64).reshape(-1, 3)
    return project_points(unproject_pixels(pixels, depths, ref) + disp, tgt)


def project_rigid_batch(pixels: np.ndarray, depths: np.ndarray,
                        ref: CameraModel, tgt: CameraModel
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Warp reference pixels into the target view assuming a static world."""
    return project_points(unproject_pixels(pixels, depths, ref), tgt)


def project_dynamic_batch(pixels: np.ndarray, depths: np.ndarray,
                          ref: CameraModel, tgt: CameraModel,
                          motions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rigid warp plus per-point motion given in the target camera frame.

    A target-frame motion M is the world displacement R_tgt^T M.
    """
    m = np.asarray(motions, dtype=np.float64).reshape(-1, 3)
    return project_dynamic_world_batch(pixels, depths, ref, tgt, m @ tgt.R)


def project_dynamic(pixel: np.ndarray, depth: float, ref: CameraModel,
                    tgt: CameraModel, motion: np.ndarray
                    ) -> tuple[np.ndarray, float]:
    """Single-pixel dynamic warp, motion in the target camera frame.

    Raises BehindCameraError if z_t <= 0.
    """
    uv, z = project_dynamic_batch(
        np.asarray(pixel).reshape(1, 2), [depth], ref, tgt,
        np.asarray(motion).reshape(1, 3))
    if z[0] <= MIN_DEPTH:
        raise BehindCameraError(f"target depth {z[0]:.3e}")
    return uv[0], float(z[0])


def project_rigid(pixel: np.ndarray, depth: float, ref: CameraModel,
                  tgt: CameraModel) -> tuple[np.ndarray, float]:
    """Single-pixel rigid warp: project_dynamic with zero motion."""
    return project_dynamic(pixel, depth, ref, tgt, np.zeros(3))


# ---------------------------------------------------------------------------
# epipolar residuals
# ---------------------------------------------------------------------------

def epipolar_residual(pixel_ref: np.ndarray, pixel_tgt: np.ndarray,
                      essential: np.ndarray,
                      intrinsics: CameraModel) -> float:
    """Signed epipolar residual of one correspondence.

    Zero (to numerical precision) exactly when the two pixels see the same
    static 3-D point; motion along the epipolar plane also stays at zero,
    which is the blind spot this measure inherits.
    """
    return float(epipolar_residual_batch(
        np.asarray(pixel_ref).reshape(1, 2), np.asarray(pixel_tgt).reshape(1, 2),
        essential, intrinsics)[0])


def displacement(gt: GroundTruth, instance: int, ref_frame: int,
                 tgt_frame: int) -> np.ndarray:
    """World displacement of one mover between two frames."""
    return (gt.mover_positions[instance, tgt_frame]
            - gt.mover_positions[instance, ref_frame])


def residual_map(gt: GroundTruth, cameras: list[CameraModel],
                 f: int) -> np.ndarray:
    """`dynmask residuals`' float32 map of frame pair (f, f + 1), from a
    displacement looked up mover by mover."""
    ref, tgt = cameras[f], cameras[f + 1]
    rows, cols = np.nonzero(gt.true_depths[f] > 0)
    pixels = np.column_stack([cols, rows]).astype(np.float64)
    depths = gt.true_depths[f][rows, cols].astype(np.float64)
    inst = gt.instances[f][rows, cols]
    disp = np.zeros((len(rows), 3))
    for i in range(gt.mover_positions.shape[0]):
        sel = inst == i
        if sel.any():
            disp[sel] = displacement(gt, i, f, f + 1)
    uv, _ = project_dynamic_world_batch(pixels, depths, ref, tgt, disp)
    delta = np.abs(epipolar_residual_batch(
        pixels, uv, essential_from_poses(ref, tgt), ref, tgt))
    out = np.zeros(gt.true_depths.shape[1:], dtype=np.float32)
    out[rows, cols] = delta.astype(np.float32)
    return out


def residual_first_order(pixel_ref: np.ndarray, depth: float,
                         ref: CameraModel, tgt: CameraModel,
                         motion: np.ndarray) -> float:
    """First-order estimate of the epipolar residual of a moving point.

    `motion` is the point displacement in the target camera frame, as in
    project_dynamic.  Uses the unit-baseline essential matrix: a point at
    depth Z moved by M violates the constraint by about (n . M) / Z where
    n is the unit normal of the epipolar plane through the reference ray.
    Valid when the motion and depth change are small against scene depth;
    degrades near the epipole where ||E x_r|| collapses.
    """
    ess = essential_from_poses(ref, tgt)
    x_hat = pixel_rays(pixel_ref, ref)[0]
    line = ess @ x_hat
    norm = np.linalg.norm(line)
    if norm <= 1e-15:
        return 0.0
    n = line / norm
    m = np.asarray(motion, dtype=np.float64).reshape(3)
    return float(n @ m) / float(depth)


# ---------------------------------------------------------------------------
# mask scores
# ---------------------------------------------------------------------------

def jaccard_mean(pred: np.ndarray, gt: np.ndarray) -> float:
    return float(jaccard_frames(pred, gt).mean())


def boundary_f(pred: np.ndarray, gt: np.ndarray) -> float:
    return float(boundary_f_frames(pred, gt).mean())


def boundary_f_frames_edt(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-frame boundary F-measure from whole-frame distance transforms.

    Contours are the mask minus its 4-connected erosion (the outside of
    the image is background); a contour pixel is matched when the
    Euclidean distance transform of the other contour puts it within
    0.8% of the image diagonal.
    """
    cross = ndimage.generate_binary_structure(2, 1)
    h, w = pred.shape[1:]
    tol = DEFAULT_BOUNDARY_TOL * float(np.hypot(h, w))
    out = []
    for p, g in zip(np.asarray(pred, bool), np.asarray(gt, bool)):
        pb = p & ~ndimage.binary_erosion(p, structure=cross, border_value=0)
        gb = g & ~ndimage.binary_erosion(g, structure=cross, border_value=0)
        if not pb.any() or not gb.any():
            # empty against empty matches; one empty contour matches nothing
            out.append(1.0 if pb.any() == gb.any() else 0.0)
            continue
        precision = float((ndimage.distance_transform_edt(~gb)[pb] <= tol).mean())
        recall = float((ndimage.distance_transform_edt(~pb)[gb] <= tol).mean())
        out.append(0.0 if precision + recall == 0 else
                   2.0 * precision * recall / (precision + recall))
    return np.array(out)


# ---------------------------------------------------------------------------
# random streams
# ---------------------------------------------------------------------------

def stream_key_by_array(seed: int, *path: int | str) -> int:
    """`rng.stream_key` with every word mixed as a one-element uint64 array
    through the vectorised finalizer the draws use."""
    golden = int(rng._GOLDEN)
    key = int(rng._mix64(np.array([seed & rng._MASK], dtype=np.uint64))[0])
    for part in path:
        if isinstance(part, str):
            digest = hashlib.blake2b(part.encode("utf-8"), digest_size=8).digest()
            word = int.from_bytes(digest, "little")
        else:
            word = part & rng._MASK
        key = int(rng._mix64(np.array([(key + golden * word) & rng._MASK],
                                      dtype=np.uint64))[0])
    return key


# ---------------------------------------------------------------------------
# synthetic scenes
# ---------------------------------------------------------------------------

def intersect_box_slabs(origin, dirs, center, half):
    """`synthetic._intersect_box` with all three slabs at once: (N, 3)
    entry and exit parameters, reduced by a max and a min over each row."""
    lo = center - half
    hi = center + half
    with np.errstate(divide="ignore", invalid="ignore"):
        t1 = (lo[None, :] - origin[None, :]) / dirs
        t2 = (hi[None, :] - origin[None, :]) / dirs
    near = np.fmin(t1, t2)
    far = np.fmax(t1, t2)
    # rays parallel to a slab: inside the slab iff origin between planes
    par = np.abs(dirs) <= PLANE_EPS
    inside = np.broadcast_to((origin >= lo) & (origin <= hi), par.shape)
    near[par] = np.where(inside[par], -np.inf, np.inf)
    far[par] = np.where(inside[par], np.inf, -np.inf)
    tmin = near.max(axis=1)
    tmax = far.min(axis=1)
    return np.where((tmax >= tmin) & (tmin > RAY_EPS), tmin, np.inf)


def cast_depth(spec: SceneSpec, cam: CameraModel, frame: int,
               pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic camera-z depth and instance at arbitrary subpixel coords.

    The cast is closed form, so the depth along any ray is exact, not a
    resampling of the rendered grid.
    """
    depth, hit = _cast_rays(spec, cam.center, _camera_rays(pixels, cam),
                            frame)
    return depth, np.maximum(hit - 2, -1).astype(np.int32)


def _checker_colors(points: np.ndarray, axis: int, cell: float) -> np.ndarray:
    """Checker colours of plane points over their x and `axis` coordinates."""
    a, b = points[:, 0], points[:, axis]
    parity = (np.floor(a / cell) + np.floor(b / cell)).astype(np.int64) & 1
    dark = np.asarray(_CHECKER_DARK)
    light = np.asarray(_CHECKER_LIGHT)
    return np.where(parity[:, None] == 0, dark[None, :], light[None, :])


def render_frame(spec: SceneSpec, cam: CameraModel, frame: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One frame rendered on its own: (depth (H, W), colour (H, W, 3),
    instance (H, W) with -1 = static).

    Builds this camera's rays, stacks every candidate hit for one argmin,
    writes each mover's colour and checkers the wall and floor hit points,
    with nothing shared between frames.
    """
    h, w = spec.height, spec.width
    us, vs = np.meshgrid(np.arange(w), np.arange(h))
    dirs = _ray_directions(np.column_stack([us.ravel(), vs.ravel()]), cam)
    origin = cam.center
    a = (dirs * dirs).sum(axis=1)
    candidates = [_intersect_plane(origin, dirs, 2, WALL_Z),
                  _intersect_plane(origin, dirs, 1, FLOOR_Y)]
    for mover in spec.movers:
        pos = mover.positions(spec.frames)[frame]
        if mover.shape == "sphere":
            s = _intersect_sphere(origin, dirs, a, pos, mover.size)
        else:
            s = intersect_box_slabs(origin, dirs, pos,
                                    np.full(3, mover.size / 2.0))
        candidates.append(s)
    all_s = np.stack(candidates)
    best = all_s.argmin(axis=0)
    depth = all_s[best, np.arange(dirs.shape[0])]
    missed = ~np.isfinite(depth)
    hit = np.where(missed, -1, best)
    instance = np.where(hit >= 2, hit - 2, -1).astype(np.int32)
    depth = np.where(missed, 0.0, depth)
    points = origin[None, :] + depth[:, None] * dirs

    color = np.zeros((dirs.shape[0], 3))
    for idx, mover in enumerate(spec.movers):
        color[instance == idx] = mover.color[None, :]
    # hit 0, the wall, is checkered over (x, y); hit 1, the floor, over (x, z)
    for plane, axis in ((0, 1), (1, 2)):
        sel = hit == plane
        if sel.any():
            color[sel] = _checker_colors(points[sel], axis, CHECKER)
    return (depth.reshape(h, w), color.reshape(h, w, 3),
            instance.reshape(h, w))


def corrupt(bundle: SceneBundle, outlier_points: int = 0,
            seed: int = 0) -> SceneBundle:
    """Stress a clean bundle with saliency outliers.

    `outlier_points` attention cells, chosen away from the true dynamic
    region, are bumped to the per-head maximum in every head; the
    corresponding image block keeps exactly one valid-depth pixel (its
    center).  Each injection therefore yields exactly one 3-D point with no
    surface around it, which the density filter should treat as noise.
    """
    # only the depth and attention stacks are written below
    out = replace(bundle, depths=bundle.depths.copy(),
                  attention=bundle.attention.copy())
    if outlier_points <= 0:
        return out
    t, h, w = out.frames, out.height, out.width
    patch = out.patch
    hp, wp = h // patch, w // patch
    # keep injections off the true dynamic region with a 2-cell margin
    if out.gt_masks is not None:
        pooled = out.gt_masks.reshape(t, hp, patch, wp, patch).any(axis=(2, 4))
        margin = np.stack([ndimage.binary_dilation(
            pooled[f], structure=np.ones((5, 5), bool)) for f in range(t)])
    else:
        margin = np.zeros((t, hp, wp), dtype=bool)
    head_max = out.attention.max(axis=(2, 3))  # (T, heads) pre-bump maxima
    used: set[tuple[int, int, int]] = set()
    tries = 200  # rejection sampling per point, from one deterministic stream
    draws = iter(rng.uniforms(rng.stream_key(seed, "outliers"),
                              2 * tries * outlier_points).reshape(-1, 2))
    for k in range(outlier_points):
        f = k % t
        placed = False
        for _ in range(tries):
            draw = next(draws)
            pi = min(int(draw[0] * hp), hp - 1)
            pj = min(int(draw[1] * wp), wp - 1)
            center = (pi * patch + patch // 2, pj * patch + patch // 2)
            if margin[f, pi, pj] or (f, pi, pj) in used:
                continue
            if out.depths[f][center[0], center[1]] <= 0:
                continue
            used.add((f, pi, pj))
            out.attention[f, :, pi, pj] = head_max[f]
            block_rows = slice(pi * patch, (pi + 1) * patch)
            block_cols = slice(pj * patch, (pj + 1) * patch)
            saved = out.depths[f][center[0], center[1]]
            out.depths[f][block_rows, block_cols] = 0.0
            out.depths[f][center[0], center[1]] = saved
            placed = True
            break
        if not placed:
            raise RuntimeError(
                "could not place outlier away from the dynamic region")
    return out


def _set_pixel(path, frame: int, value: float) -> None:
    """Overwrite pixel (0, 0) of frame `frame` of the stack file at `path`."""
    arr = read_tensor(path)
    arr[frame, 0, 0] = value
    write_tensor(arr, path)


def _rewrite(path, change) -> None:
    """Replace the stack file at `path` with `change(stack)`."""
    write_tensor(change(read_tensor(path)), path)


# malformed gt.json directories: (gt.json manifest, scene directory) -> None
GT_BREAKAGES = {
    "missing-key": lambda gt, root: gt.pop("instances"),
    # a stack file one frame short of the scene
    "short-list": lambda gt, root: _rewrite(root / gt["instances"],
                                            lambda arr: arr[:-1]),
    # the one-file-per-frame layout of earlier versions
    "per-frame-list": lambda gt, root: gt.update(
        true_depths=[gt["true_depths"]]),
    "missing-file": lambda gt, root: (root / gt["true_depths"]).unlink(),
    "wrong-hw": lambda gt, root: _rewrite(
        root / gt["true_depths"], lambda arr: np.ones((len(arr), 8, 8))),
    "positions-shape": lambda gt, root: gt["movers"][0]["positions"].pop(),
    "position-strings": lambda gt, root: gt["movers"][0].update(
        positions=[list(map(str, p)) for p in gt["movers"][0]["positions"]]),
    "depth-negated": lambda gt, root: _rewrite(root / gt["true_depths"],
                                               np.negative),
    "depth-infinite": lambda gt, root: _set_pixel(
        root / gt["true_depths"], 1, np.inf),
    "instance-past-movers": lambda gt, root: _set_pixel(
        root / gt["instances"], 0, len(gt["movers"])),
    "instance-below-static": lambda gt, root: _set_pixel(
        root / gt["instances"], 0, -2),
    "instance-fraction": lambda gt, root: _set_pixel(
        root / gt["instances"], 0, 0.5),
}
