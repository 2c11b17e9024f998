"""Procedural multi-view scenes with exact ground truth.

Scenes are analytic: a checkered back wall and floor plus rigidly
translating spheres/boxes, ray-cast per frame from a lateral camera track.
Because every intersection is closed-form, the depth maps, masks, instance
labels, and trajectories are exact, which makes the generator usable as an
oracle: epipolar identities, projection consistency, and classification
labels can all be checked against it.

All randomness flows through counter-based streams keyed on (seed, purpose,
frame, ...), so output bytes depend only on the spec, never on call order.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from . import rng
from .geometry import CameraModel, pixel_rays
from .tensor_io import (SceneBundle, read_tensor, save_scene, write_json,
                        write_tensor)

RAY_EPS = 1e-6
PLANE_EPS = 1e-12
# logit emitted where the rendered depth carries no noise at all
NOISELESS_LOGIT = 40.0

_MOVER_PALETTE = [
    (0.85, 0.30, 0.25), (0.25, 0.55, 0.85), (0.30, 0.75, 0.35),
    (0.90, 0.75, 0.20), (0.70, 0.35, 0.80),
]
_CHECKER_DARK = (0.32, 0.34, 0.38)
_CHECKER_LIGHT = (0.68, 0.66, 0.60)


@dataclass
class MoverSpec:
    """One rigidly translating object."""

    shape: str                 # "sphere" | "box"
    size: float                # sphere radius, or box edge length
    start: np.ndarray          # (3,) world position at frame 0
    velocity: np.ndarray       # (3,) meters per frame, constant
    color: np.ndarray          # (3,) flat RGB

    def positions(self, frames: int) -> np.ndarray:
        steps = np.arange(frames, dtype=np.float64)[:, None]
        return self.start[None, :] + steps * self.velocity[None, :]


@dataclass
class SceneSpec:
    """Complete description of a synthetic scene."""

    seed: int = 0
    frames: int = 8
    width: int = 96
    height: int = 72
    patch: int = 8
    focal_factor: float = 1.2
    baseline: float = 0.18
    yaw_step_deg: float = 0.0
    wall_z: float = 7.0
    floor_y: float = 1.4
    checker: float = 0.5
    movers: list[MoverSpec] = field(default_factory=list)
    depth_sigma: float = 0.0
    high_sigma_factor: float = 10.0
    high_fraction: float = 0.0
    noise_tile: int = 16
    signal_heads: int = 2
    noise_heads: int = 6
    peak_gain: float = 2.0
    noise_base: float = 0.5
    noise_amp: float = 0.6

    def __post_init__(self) -> None:
        if self.frames < 2:
            raise ValueError(f"frames {self.frames} must be >= 2")
        if self.width % self.patch or self.height % self.patch:
            raise ValueError(
                f"patch {self.patch} must divide {self.width}x{self.height}")
        if self.depth_sigma < 0 or self.high_fraction < 0 or self.high_fraction > 1:
            raise ValueError("invalid noise parameters")
        if self.signal_heads < 1 or self.noise_heads < 0:
            raise ValueError("need at least one signal head")

    @classmethod
    def from_dict(cls, raw: dict) -> "SceneSpec":
        cam = raw.get("camera", {})
        bg = raw.get("background", {})
        noise = raw.get("noise", {})
        attn = raw.get("attention", {})
        movers = []
        for i, m in enumerate(raw.get("movers", [])):
            color = m.get("color", _MOVER_PALETTE[i % len(_MOVER_PALETTE)])
            shape = m.get("shape", "sphere")
            if shape not in ("sphere", "box"):
                raise ValueError(f"unknown mover shape {shape!r}")
            movers.append(MoverSpec(
                shape=shape, size=float(m["size"]),
                start=np.asarray(m["start"], dtype=np.float64),
                velocity=np.asarray(m.get("velocity", [0, 0, 0]), dtype=np.float64),
                color=np.asarray(color, dtype=np.float64)))
        return cls(
            seed=int(raw.get("seed", 0)),
            frames=int(raw.get("frames", 8)),
            width=int(raw.get("width", 96)),
            height=int(raw.get("height", 72)),
            patch=int(raw.get("patch", 8)),
            focal_factor=float(cam.get("focal_factor", 1.2)),
            baseline=float(cam.get("baseline", 0.18)),
            yaw_step_deg=float(cam.get("yaw_step_deg", 0.0)),
            wall_z=float(bg.get("wall_z", 7.0)),
            floor_y=float(bg.get("floor_y", 1.4)),
            checker=float(bg.get("checker", 0.5)),
            movers=movers,
            depth_sigma=float(noise.get("depth_sigma", 0.0)),
            high_sigma_factor=float(noise.get("high_sigma_factor", 10.0)),
            high_fraction=float(noise.get("high_fraction", 0.0)),
            noise_tile=int(noise.get("tile", 16)),
            signal_heads=int(attn.get("signal_heads", 2)),
            noise_heads=int(attn.get("noise_heads", 6)),
            peak_gain=float(attn.get("peak_gain", 2.0)),
            noise_base=float(attn.get("noise_base", 0.5)),
            noise_amp=float(attn.get("noise_amp", 0.6)),
        )

    @classmethod
    def from_json(cls, path) -> "SceneSpec":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def cameras(self) -> list[CameraModel]:
        focal = self.focal_factor * max(self.width, self.height)
        cx = (self.width - 1) / 2.0
        cy = (self.height - 1) / 2.0
        cams = []
        for f in range(self.frames):
            yaw = math.radians(self.yaw_step_deg * f)
            c, s = math.cos(yaw), math.sin(yaw)
            R = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
            center = np.array([self.baseline * f, 0.0, 0.0])
            cams.append(CameraModel(fx=focal, fy=focal, cx=cx, cy=cy,
                                    R=R, t=-R @ center))
        return cams


@dataclass
class GroundTruth:
    """Everything the generator knows that the pipeline must not see."""

    masks: np.ndarray           # (T, H, W) bool, union of mover silhouettes
    cameras: list[CameraModel]
    true_depths: np.ndarray     # (T, H, W) float32, noise-free
    instances: np.ndarray       # (T, H, W) int32, mover index or -1
    mover_positions: np.ndarray  # (num_movers, T, 3)
    sigma_maps: np.ndarray      # (T, H, W) float32, applied noise sigma
    movers: list[MoverSpec] = field(default_factory=list)

    def displacement(self, instance: int, ref_frame: int,
                     tgt_frame: int) -> np.ndarray:
        """World displacement of one mover between two frames."""
        return (self.mover_positions[instance, tgt_frame]
                - self.mover_positions[instance, ref_frame])


# ---------------------------------------------------------------------------
# ray casting
# ---------------------------------------------------------------------------

def _ray_directions(pixels: np.ndarray, cam: CameraModel) -> np.ndarray:
    """World-frame ray direction per pixel, scaled so s equals camera depth.

    Directions are K^-1 (u, v, 1) rotated into the world; their camera-z
    component is exactly 1, so the ray parameter of any hit is the
    camera-frame depth with no renormalization.
    """
    return pixel_rays(pixels, cam) @ cam.R  # row-vector form of R^T @ d


def _intersect_plane_z(origin, dirs, z_value):
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (z_value - origin[2]) / dz
    s[np.abs(dz) <= PLANE_EPS] = np.inf
    s[s <= RAY_EPS] = np.inf
    return s


def _intersect_plane_y(origin, dirs, y_value):
    dy = dirs[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (y_value - origin[1]) / dy
    s[np.abs(dy) <= PLANE_EPS] = np.inf
    s[s <= RAY_EPS] = np.inf
    return s


def _intersect_sphere(origin, dirs, center, radius):
    oc = origin - center
    a = (dirs * dirs).sum(axis=1)
    b = 2.0 * (dirs @ oc)
    c = float(oc @ oc) - radius * radius
    disc = b * b - 4.0 * a * c
    s = np.full(len(dirs), np.inf)
    hit = disc >= 0
    if hit.any():
        root = np.sqrt(disc[hit])
        near = (-b[hit] - root) / (2.0 * a[hit])
        near[near <= RAY_EPS] = np.inf
        s[hit] = near
    return s


def _intersect_box(origin, dirs, center, half):
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
    s = np.where((tmax >= tmin) & (tmin > RAY_EPS), tmin, np.inf)
    return s


def _checker_colors(points: np.ndarray, plane: str, cell: float) -> np.ndarray:
    if plane == "wall":
        a, b = points[:, 0], points[:, 1]
    else:
        a, b = points[:, 0], points[:, 2]
    parity = (np.floor(a / cell) + np.floor(b / cell)).astype(np.int64) & 1
    dark = np.asarray(_CHECKER_DARK)
    light = np.asarray(_CHECKER_LIGHT)
    return np.where(parity[:, None] == 0, dark[None, :], light[None, :])


def _cast_rays(spec: SceneSpec, origin: np.ndarray, dirs: np.ndarray,
               frame: int):
    """Nearest hit along each ray: (depth, instance, surface, hit_points).

    `surface` is "wall" / "floor" / "mover" / "none"; depth 0 means miss.
    """
    candidates = [("wall", -1, _intersect_plane_z(origin, dirs, spec.wall_z)),
                  ("floor", -1, _intersect_plane_y(origin, dirs, spec.floor_y))]
    for idx, mover in enumerate(spec.movers):
        pos = mover.positions(spec.frames)[frame]
        if mover.shape == "sphere":
            s = _intersect_sphere(origin, dirs, pos, mover.size)
        else:
            s = _intersect_box(origin, dirs, pos, np.full(3, mover.size / 2.0))
        candidates.append(("mover", idx, s))

    all_s = np.stack([s for _, _, s in candidates])
    best = all_s.argmin(axis=0)
    depth = all_s[best, np.arange(dirs.shape[0])]
    missed = ~np.isfinite(depth)

    n = dirs.shape[0]
    instance = np.full(n, -1, dtype=np.int32)
    surface = np.full(n, "none", dtype=object)
    for k, (kind, idx, _) in enumerate(candidates):
        sel = (best == k) & ~missed
        if kind == "mover":
            instance[sel] = idx
        surface[sel] = kind
    surface[missed] = "none"
    depth = np.where(missed, 0.0, depth)
    points = origin[None, :] + depth[:, None] * dirs
    return depth, instance, surface, points


def cast_depth(spec: SceneSpec, cam: CameraModel, frame: int,
               pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Analytic camera-z depth and instance at arbitrary subpixel coords.

    Useful as an oracle: the cast is closed form, so the depth along any
    ray is exact, not a resampling of the rendered grid.
    """
    dirs = _ray_directions(pixels, cam)
    depth, instance, _, _ = _cast_rays(spec, cam.center, dirs, frame)
    return depth, instance


def _render_frame(spec: SceneSpec, cam: CameraModel, frame: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (depth (H,W), color (H,W,3), instance (H,W) with -1 = static)."""
    h, w = spec.height, spec.width
    us, vs = np.meshgrid(np.arange(w), np.arange(h))
    dirs = _ray_directions(np.column_stack([us.ravel(), vs.ravel()]), cam)
    depth, instance, surface, points = _cast_rays(spec, cam.center, dirs,
                                                  frame)
    color = np.zeros((dirs.shape[0], 3))
    for idx, mover in enumerate(spec.movers):
        color[instance == idx] = mover.color[None, :]
    for plane in ("wall", "floor"):
        sel = surface == plane
        if sel.any():
            color[sel] = _checker_colors(points[sel], plane, spec.checker)
    return (depth.reshape(h, w), color.reshape(h, w, 3),
            instance.reshape(h, w))


# ---------------------------------------------------------------------------
# input synthesis on top of the render
# ---------------------------------------------------------------------------

def _sigma_map(spec: SceneSpec, frame: int) -> np.ndarray:
    """Per-pixel noise sigma: base everywhere, 10x in random seeded tiles."""
    h, w = spec.height, spec.width
    sigma = np.full((h, w), spec.depth_sigma, dtype=np.float64)
    if spec.depth_sigma <= 0 or spec.high_fraction <= 0:
        return sigma
    tile = spec.noise_tile
    ty = (h + tile - 1) // tile
    tx = (w + tile - 1) // tile
    key = rng.stream_key(spec.seed, "noise-tiles", frame)
    draws = rng.uniforms(key, ty * tx).reshape(ty, tx)
    high = draws < spec.high_fraction
    grown = np.repeat(np.repeat(high, tile, axis=0), tile, axis=1)[:h, :w]
    sigma[grown] = spec.depth_sigma * spec.high_sigma_factor
    return sigma


def _attention_stack(spec: SceneSpec, mask: np.ndarray, frame: int) -> np.ndarray:
    """Signal heads carry the pooled mover silhouette, noise heads jitter."""
    hp = spec.height // spec.patch
    wp = spec.width // spec.patch
    pooled = mask.astype(np.float64).reshape(
        hp, spec.patch, wp, spec.patch).mean(axis=(1, 3))
    smoothed = ndimage.uniform_filter(pooled, size=3, mode="constant")
    heads = []
    for _ in range(spec.signal_heads):
        heads.append(smoothed * spec.peak_gain)
    for h in range(spec.noise_heads):
        key = rng.stream_key(spec.seed, "attn-noise", frame, h)
        jitter = rng.uniforms(key, hp * wp).reshape(hp, wp)
        heads.append(spec.noise_base + spec.noise_amp * jitter)
    return np.stack(heads)


def generate(spec: SceneSpec, out_dir=None) -> tuple[SceneBundle, GroundTruth]:
    """Render a scene spec into a SceneBundle plus its GroundTruth.

    With `out_dir` set, the bundle and ground truth are also written to
    disk (scene.json bundle plus gt.json extras), byte-deterministically.
    """
    t = spec.frames
    h, w = spec.height, spec.width
    cams = spec.cameras()

    centers = np.stack([c.center for c in cams])
    if np.allclose(centers, centers[0], atol=1e-12):
        warnings.warn("degenerate camera path: zero baseline everywhere",
                      stacklevel=2)

    true_depths = np.zeros((t, h, w), dtype=np.float32)
    images = np.zeros((t, h, w, 3), dtype=np.float32)
    instances = np.zeros((t, h, w), dtype=np.int32)
    masks = np.zeros((t, h, w), dtype=bool)
    depths = np.zeros((t, h, w), dtype=np.float32)
    logits = np.zeros((t, h, w), dtype=np.float32)
    sigma_maps = np.zeros((t, h, w), dtype=np.float32)
    attention = np.zeros((t, spec.signal_heads + spec.noise_heads,
                          h // spec.patch, w // spec.patch), dtype=np.float32)

    # a mover is dynamic only if its trajectory actually moves; the mask
    # labels dynamic silhouettes, not every foreground object
    dynamic = np.zeros(len(spec.movers), dtype=bool)
    for i, mover in enumerate(spec.movers):
        pos = mover.positions(t)
        dynamic[i] = bool(np.any(np.linalg.norm(np.diff(pos, axis=0),
                                                axis=1) > 0))

    for f in range(t):
        depth, color, inst = _render_frame(spec, cams[f], f)
        true_depths[f] = depth.astype(np.float32)
        images[f] = np.clip(color, 0.0, 1.0).astype(np.float32)
        instances[f] = inst
        if len(spec.movers):
            masks[f] = (inst >= 0) & dynamic[np.maximum(inst, 0)]

        sigma = _sigma_map(spec, f)
        sigma_maps[f] = sigma.astype(np.float32)
        valid = depth > 0
        noisy = depth.copy()
        if spec.depth_sigma > 0:
            key = rng.stream_key(spec.seed, "depth-noise", f)
            noise = rng.normals(key, h * w).reshape(h, w) * sigma
            noisy = np.where(valid, np.maximum(depth + noise, 1e-3), 0.0)
        depths[f] = noisy.astype(np.float32)

        with np.errstate(divide="ignore"):
            logit = np.where(sigma > 0, -2.0 * np.log(sigma), NOISELESS_LOGIT)
        logits[f] = np.clip(logit, -NOISELESS_LOGIT, NOISELESS_LOGIT
                            ).astype(np.float32)

        attention[f] = _attention_stack(spec, masks[f], f).astype(np.float32)

    bundle = SceneBundle(
        images=images, depths=depths, confidence_logits=logits,
        attention=attention, cameras=cams, patch=spec.patch,
        gt_masks=masks, gt_cameras=cams)
    gt = GroundTruth(
        masks=masks, cameras=cams, true_depths=true_depths,
        instances=instances,
        mover_positions=np.stack([m.positions(t) for m in spec.movers])
        if spec.movers else np.zeros((0, t, 3)),
        sigma_maps=sigma_maps, movers=spec.movers)

    if out_dir is not None:
        save_scene(bundle, out_dir)
        save_ground_truth(gt, out_dir, spec)
    return bundle, gt


def save_ground_truth(gt: GroundTruth, out_dir, spec: SceneSpec) -> None:
    out = Path(out_dir)
    manifest: dict = {
        "seed": spec.seed,
        "noise": {"depth_sigma": spec.depth_sigma,
                  "high_sigma_factor": spec.high_sigma_factor,
                  "high_fraction": spec.high_fraction},
        "movers": [], "true_depths": [], "instances": [], "sigma_maps": [],
    }
    for i, mover in enumerate(gt.movers):
        manifest["movers"].append({
            "shape": mover.shape, "size": mover.size,
            "color": [float(v) for v in mover.color],
            "positions": [[float(v) for v in row]
                          for row in gt.mover_positions[i]],
        })
    for f in range(gt.true_depths.shape[0]):
        names = (f"gt_depth_{f:04d}.dmt", f"gt_inst_{f:04d}.dmt",
                 f"gt_sigma_{f:04d}.dmt")
        write_tensor(gt.true_depths[f], out / names[0])
        write_tensor(gt.instances[f].astype(np.float32), out / names[1])
        write_tensor(gt.sigma_maps[f], out / names[2])
        manifest["true_depths"].append(names[0])
        manifest["instances"].append(names[1])
        manifest["sigma_maps"].append(names[2])
    write_json(manifest, out / "gt.json")


def load_ground_truth(scene_dir, bundle: SceneBundle) -> GroundTruth:
    """Reload the ground truth saved next to a scene bundle."""
    root = Path(scene_dir)
    with open(root / "gt.json", "r", encoding="utf-8") as f:
        manifest = json.load(f)
    true_depths = np.stack([read_tensor(root / n) for n in manifest["true_depths"]])
    instances = np.stack([read_tensor(root / n) for n in manifest["instances"]]
                         ).astype(np.int32)
    sigma_maps = np.stack([read_tensor(root / n) for n in manifest["sigma_maps"]])
    movers = []
    positions = []
    for m in manifest["movers"]:
        movers.append(MoverSpec(
            shape=m["shape"], size=float(m["size"]),
            start=np.asarray(m["positions"][0], dtype=np.float64),
            velocity=np.zeros(3), color=np.asarray(m["color"])))
        positions.append(np.asarray(m["positions"], dtype=np.float64))
    if bundle.gt_masks is None or bundle.gt_cameras is None:
        raise ValueError("bundle carries no ground-truth masks/cameras")
    return GroundTruth(
        masks=bundle.gt_masks, cameras=bundle.gt_cameras,
        true_depths=true_depths, instances=instances,
        mover_positions=np.stack(positions) if positions
        else np.zeros((0, true_depths.shape[0], 3)),
        sigma_maps=sigma_maps, movers=movers)


# ---------------------------------------------------------------------------
# corruption for stress tests
# ---------------------------------------------------------------------------

def corrupt(bundle: SceneBundle, occluder_fraction: float = 0.0,
            outlier_points: int = 0, seed: int = 0,
            tile: int = 16) -> SceneBundle:
    """Stress a clean bundle with depth dropouts and saliency outliers.

    Occluders: random image tiles get their depth zeroed (invalid), until
    roughly `occluder_fraction` of each frame is covered.

    Outliers: `outlier_points` attention cells, chosen away from the true
    dynamic region, are bumped to the per-head maximum in every head; the
    corresponding image block keeps exactly one valid-depth pixel (its
    center).  Each injection therefore yields exactly one 3-D point with no
    surface around it, which the density filter should treat as noise.
    """
    out = SceneBundle(
        images=bundle.images.copy(), depths=bundle.depths.copy(),
        confidence_logits=bundle.confidence_logits.copy(),
        attention=bundle.attention.copy(), cameras=list(bundle.cameras),
        patch=bundle.patch,
        gt_masks=None if bundle.gt_masks is None else bundle.gt_masks.copy(),
        gt_cameras=None if bundle.gt_cameras is None
        else list(bundle.gt_cameras))
    t, h, w = out.frames, out.height, out.width

    if occluder_fraction > 0:
        ty = (h + tile - 1) // tile
        tx = (w + tile - 1) // tile
        for f in range(t):
            key = rng.stream_key(seed, "occluders", f)
            draws = rng.uniforms(key, ty * tx).reshape(ty, tx)
            kill = np.repeat(np.repeat(draws < occluder_fraction, tile, axis=0),
                             tile, axis=1)[:h, :w]
            out.depths[f][kill] = 0.0

    if outlier_points > 0:
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
        key = rng.stream_key(seed, "outliers")
        cursor = 0
        for k in range(outlier_points):
            f = k % t
            placed = False
            for _ in range(200):  # rejection sampling, deterministic stream
                draw = rng.uniforms(key, 2, offset=cursor)
                cursor += 2
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


def corpus_specs(count: int = 20, frames: int = 6, width: int = 96,
                 height: int = 72) -> list[SceneSpec]:
    """Deterministic family of mover scenes for corpus-level studies.

    Scene k gets seed k, one or two compact movers with mostly vertical
    motion (perpendicular to the lateral camera track, so their geometry
    is maximally visible to cross-view checks), heteroscedastic depth
    noise, and the default 2-signal / 6-noise attention stack.  The
    parameter draws come from a fixed stream, so the corpus is identical
    on every call.
    """
    specs = []
    for k in range(count):
        draws = rng.uniforms(rng.stream_key(424242, "corpus", k), 8)
        movers = []
        for m in range(1 + k % 2):
            shape = "sphere" if (k + m) % 2 == 0 else "box"
            # sized to span at least ~3 attention patches at its depth, so
            # every mover survives pooling and the 3x3 silhouette smoothing
            size = 0.30 + 0.08 * draws[4 * m + 0]
            x0 = (-0.45 + 0.4 * draws[4 * m + 1]) + (1.25 if m else 0.0)
            z0 = 2.7 + 0.5 * draws[4 * m + 2]
            vy = 0.10 + 0.05 * draws[4 * m + 3]
            vx = 0.02 * (draws[4 * m + 0] - 0.5)
            movers.append(MoverSpec(
                shape=shape, size=size,
                start=np.array([x0, -0.25, z0]),
                velocity=np.array([vx, vy, 0.0]),
                color=np.asarray(_MOVER_PALETTE[(k + m) % len(_MOVER_PALETTE)],
                                 dtype=np.float64)))
        specs.append(SceneSpec(
            seed=k, frames=frames, width=width, height=height, patch=8,
            movers=movers, depth_sigma=0.02, high_fraction=0.25))
    return specs


def count_injected_cells(bundle: SceneBundle, corrupted: SceneBundle
                         ) -> list[tuple[int, int, int]]:
    """Locate (frame, row, col) attention cells changed by corruption."""
    diff = (bundle.attention != corrupted.attention).any(axis=1)
    hits = []
    for f in range(bundle.frames):
        for pi, pj in zip(*np.nonzero(diff[f])):
            hits.append((f, int(pi), int(pj)))
    return hits
