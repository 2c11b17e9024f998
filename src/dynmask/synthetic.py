"""Procedural multi-view scenes with exact ground truth.

Scenes are analytic: a checkered back wall and floor plus rigidly
translating spheres/boxes, ray-cast from a lateral camera track.  The
track's cameras share their intrinsics and rotation, so a scene casts its
pixel rays, and their wall and floor hits, once; each frame intersects
only the movers, keeps the nearest hit by a running minimum, and colours
pixels by one gather from a palette.  Because every intersection is
closed-form, the depth maps, masks, instance labels, and trajectories are
exact, which makes the generator usable as an oracle: epipolar identities,
projection consistency, and classification labels can all be checked
against it.

All randomness flows through counter-based streams keyed on (seed, purpose,
frame, ...), so output bytes depend only on the spec, never on call order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from . import rng
from .geometry import CameraModel, pixel_rays
from .tensor_io import (SceneBundle, SceneFormatError, json_object,
                        json_value, json_vector, read_manifest, read_stack,
                        save_scene, write_json, write_stack)

RAY_EPS = 1e-6
PLANE_EPS = 1e-12
# logit emitted where the rendered depth carries no noise at all
NOISELESS_LOGIT = 40.0

# camera track: focal length over the larger image side, and the lateral
# step between consecutive camera centres (metres)
FOCAL_FACTOR = 1.2
BASELINE = 0.18
# background: the wall plane z = WALL_Z, the floor plane y = FLOOR_Y, and
# the checker cell edge of both (metres)
WALL_Z = 7.0
FLOOR_Y = 1.4
CHECKER = 0.5
# depth noise: edge of the square tiles (pixels) that draw the high sigma,
# which is HIGH_SIGMA_FACTOR times the base sigma
NOISE_TILE = 16
HIGH_SIGMA_FACTOR = 10.0
# attention: SIGNAL_HEADS heads carry PEAK_GAIN times the smoothed mover
# silhouette, NOISE_HEADS heads uniform jitter in [NOISE_BASE,
# NOISE_BASE + NOISE_AMP)
SIGNAL_HEADS = 2
NOISE_HEADS = 6
PEAK_GAIN = 2.0
NOISE_BASE = 0.5
NOISE_AMP = 0.6

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
    """What a synthetic scene varies; the module constants fix the rest."""

    seed: int = 0
    frames: int = 8
    width: int = 96
    height: int = 72
    patch: int = 8
    movers: list[MoverSpec] = field(default_factory=list)
    depth_sigma: float = 0.0
    high_fraction: float = 0.0

    def __post_init__(self) -> None:
        # random streams key on the seed modulo 2**64, so any seed outside
        # that range would silently render the scene of another seed
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")
        if self.frames < 2:
            raise ValueError(f"frames {self.frames} must be >= 2")
        if min(self.width, self.height, self.patch) < 1:
            raise ValueError("width, height and patch must be >= 1")
        if self.width % self.patch or self.height % self.patch:
            raise ValueError(
                f"patch {self.patch} must divide {self.width}x{self.height}")
        if self.depth_sigma < 0 or not 0 <= self.high_fraction <= 1:
            raise ValueError("invalid noise parameters")
        for i, mover in enumerate(self.movers):
            if mover.size <= 0:
                raise ValueError(f"mover {i} size {mover.size} must be > 0")

    @classmethod
    def from_dict(cls, raw: dict) -> "SceneSpec":
        """Parse a JSON spec laid out as ``_SPEC_KEYS`` describes.

        Every key and value passes the `tensor_io` JSON checker; a
        failure raises ValueError.
        """
        json_object(raw, "spec",
                    [*_SPEC_KEYS[""], *filter(None, _SPEC_KEYS), "movers"])
        kinds = {f.name: f.type for f in fields(cls)}
        kwargs = {}
        for section, keys in _SPEC_KEYS.items():
            part = (json_object(raw.get(section, {}), f"spec {section}", keys)
                    if section else raw)
            for key in sorted(set(keys) & set(part)):
                kwargs[key] = json_value(
                    part[key], kinds[key],
                    "spec " + f"{section}.{key}".lstrip("."))
        movers = raw.get("movers", [])
        if not isinstance(movers, list):
            raise ValueError("spec movers must be a list")
        return cls(**kwargs, movers=[_mover_from_dict(m, i)
                                     for i, m in enumerate(movers)])

    @classmethod
    def from_json(cls, path) -> "SceneSpec":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def cameras(self) -> list[CameraModel]:
        """One camera per frame, translated BASELINE along x per frame."""
        focal = FOCAL_FACTOR * max(self.width, self.height)
        cx = (self.width - 1) / 2.0
        cy = (self.height - 1) / 2.0
        return [CameraModel(fx=focal, fy=focal, cx=cx, cy=cy, R=np.eye(3),
                            t=np.array([-BASELINE * f, 0.0, 0.0]))
                for f in range(self.frames)]


# spec JSON sections ("" = top level) and the SceneSpec fields they set
_SPEC_KEYS = {
    "": ("seed", "frames", "width", "height", "patch"),
    "noise": ("depth_sigma", "high_fraction"),
}


def _mover_from_dict(raw, index: int) -> MoverSpec:
    where = f"spec movers[{index}]"
    json_object(raw, where, ("shape", "size", "start", "velocity", "color"))
    if "size" not in raw or "start" not in raw:
        raise ValueError(f"{where} needs 'size' and 'start'")
    shape = raw.get("shape", "sphere")
    if shape not in ("sphere", "box"):
        raise ValueError(f"unknown mover shape {shape!r}")
    color = raw.get("color", _MOVER_PALETTE[index % len(_MOVER_PALETTE)])
    return MoverSpec(
        shape=shape, size=json_value(raw["size"], "float", f"{where}.size"),
        start=json_vector(raw["start"], 3, f"{where}.start"),
        velocity=json_vector(raw.get("velocity", [0, 0, 0]), 3,
                             f"{where}.velocity"),
        color=json_vector(color, 3, f"{where}.color"))


@dataclass
class GroundTruth:
    """What the generator knows that the bundle does not carry."""

    true_depths: np.ndarray     # (T, H, W) float32, noise-free
    instances: np.ndarray       # (T, H, W) int32, mover index or -1
    mover_positions: np.ndarray  # (num_movers, T, 3)

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


class _Rays(NamedTuple):
    """Pixel rays of a camera and what every frame's cast along them shares.

    The directions depend only on the camera's intrinsics and rotation, the
    wall hits also on its centre's z and the floor hits on its centre's y,
    so cameras that differ only in their centre's x share one `_Rays`.
    """

    dirs: np.ndarray    # (N, 3) world directions, camera-z component 1
    a: np.ndarray       # (N,) |d|^2, the sphere test's quadratic coefficient
    wall: np.ndarray    # (N,) ray parameter of the wall hit, inf = miss
    floor: np.ndarray   # (N,) ray parameter of the floor hit, inf = miss


def _camera_rays(pixels: np.ndarray, cam: CameraModel) -> _Rays:
    dirs = _ray_directions(pixels, cam)
    origin = cam.center
    return _Rays(dirs, (dirs * dirs).sum(axis=1),
                 _intersect_plane(origin, dirs, 2, WALL_Z),
                 _intersect_plane(origin, dirs, 1, FLOOR_Y))


def _intersect_plane(origin, dirs, axis, value):
    """Ray parameter of each hit with the plane x[axis] = value; inf = miss."""
    d = dirs[:, axis]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (value - origin[axis]) / d
    s[np.abs(d) <= PLANE_EPS] = np.inf
    s[s <= RAY_EPS] = np.inf
    return s


def _intersect_sphere(origin, dirs, a, center, radius):
    """Ray parameter of each near hit with a sphere; `a` is |d|^2."""
    oc = origin - center
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


def _hits_after_wall(spec: SceneSpec, origin: np.ndarray, rays: _Rays,
                     frame: int):
    """Ray parameters of the floor's hits, then of each mover's at `frame`:
    the candidates of hit index 1, 2, ... (inf = miss)."""
    yield rays.floor
    for mover in spec.movers:
        pos = mover.positions(spec.frames)[frame]
        if mover.shape == "sphere":
            yield _intersect_sphere(origin, rays.dirs, rays.a, pos, mover.size)
        else:
            yield _intersect_box(origin, rays.dirs, pos,
                                 np.full(3, mover.size / 2.0))


def _cast_rays(spec: SceneSpec, origin: np.ndarray, rays: _Rays,
               frame: int) -> tuple[np.ndarray, np.ndarray]:
    """Nearest hit along each ray from `origin`: (depth, hit).

    `hit` is 0 for the wall, 1 for the floor, 2 + k for mover k and -1 for
    a miss, where depth is 0.  `rays` must be those of a camera centred at
    `origin`, or at a point that differs from it only in x.
    """
    depth = rays.wall.copy()
    hit = np.zeros(len(depth), dtype=np.intp)
    closer = np.empty(len(depth), dtype=bool)
    for index, s in enumerate(_hits_after_wall(spec, origin, rays, frame),
                              start=1):
        # strict: on a tie the lower index keeps the ray, as argmin would
        np.less(s, depth, out=closer)
        np.copyto(depth, s, where=closer)
        np.copyto(hit, index, where=closer)
    missed = np.isinf(depth)
    depth[missed] = 0.0
    hit[missed] = -1
    return depth, hit


def _render_frame(spec: SceneSpec, origin: np.ndarray, rays: _Rays,
                  frame: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(depth, hit, colour) of each ray; colour indexes the scene palette.

    Palette rows are 0 for a miss, 1 and 2 for the dark and light checker
    cells, and 3 + k for mover k.
    """
    depth, hit = _cast_rays(spec, origin, rays, frame)
    color = hit + 1
    # hit 0, the wall, is checkered over (x, y); hit 1, the floor, over (x, z)
    for plane, axis in ((0, 1), (1, 2)):
        sel = np.flatnonzero(hit == plane)
        s = depth[sel]
        a = origin[0] + s * rays.dirs[sel, 0]
        b = origin[axis] + s * rays.dirs[sel, axis]
        parity = (np.floor(a / CHECKER) + np.floor(b / CHECKER)
                  ).astype(np.int64) & 1
        color[sel] = 1 + parity
    return depth, hit, color


# ---------------------------------------------------------------------------
# input synthesis on top of the render
# ---------------------------------------------------------------------------

def _sigma_map(spec: SceneSpec, frame: int) -> np.ndarray:
    """Per-pixel noise sigma: base everywhere, HIGH_SIGMA_FACTOR times the
    base in random seeded tiles."""
    h, w = spec.height, spec.width
    sigma = np.full((h, w), spec.depth_sigma, dtype=np.float64)
    if spec.depth_sigma <= 0 or spec.high_fraction <= 0:
        return sigma
    tile = NOISE_TILE
    ty = (h + tile - 1) // tile
    tx = (w + tile - 1) // tile
    key = rng.stream_key(spec.seed, "noise-tiles", frame)
    draws = rng.uniforms(key, ty * tx).reshape(ty, tx)
    high = draws < spec.high_fraction
    grown = np.repeat(np.repeat(high, tile, axis=0), tile, axis=1)[:h, :w]
    sigma[grown] = spec.depth_sigma * HIGH_SIGMA_FACTOR
    return sigma


def _attention_stack(spec: SceneSpec, mask: np.ndarray, frame: int) -> np.ndarray:
    """Signal heads carry the pooled mover silhouette, noise heads jitter."""
    hp = spec.height // spec.patch
    wp = spec.width // spec.patch
    pooled = mask.astype(np.float64).reshape(
        hp, spec.patch, wp, spec.patch).mean(axis=(1, 3))
    smoothed = ndimage.uniform_filter(pooled, size=3, mode="constant")
    heads = []
    for _ in range(SIGNAL_HEADS):
        heads.append(smoothed * PEAK_GAIN)
    for h in range(NOISE_HEADS):
        key = rng.stream_key(spec.seed, "attn-noise", frame, h)
        jitter = rng.uniforms(key, hp * wp).reshape(hp, wp)
        heads.append(NOISE_BASE + NOISE_AMP * jitter)
    return np.stack(heads)


def generate(spec: SceneSpec, out_dir=None) -> tuple[SceneBundle, GroundTruth]:
    """Render a scene spec into a SceneBundle plus its GroundTruth.

    With `out_dir` set, the bundle and ground truth are also written to
    disk (scene.json bundle plus gt.json extras), byte-deterministically.
    """
    t = spec.frames
    h, w = spec.height, spec.width
    cams = spec.cameras()

    true_depths = np.zeros((t, h, w), dtype=np.float32)
    images = np.zeros((t, h, w, 3), dtype=np.float32)
    instances = np.zeros((t, h, w), dtype=np.int32)
    masks = np.zeros((t, h, w), dtype=bool)
    depths = np.zeros((t, h, w), dtype=np.float32)
    logits = np.zeros((t, h, w), dtype=np.float32)
    attention = np.zeros((t, SIGNAL_HEADS + NOISE_HEADS,
                          h // spec.patch, w // spec.patch), dtype=np.float32)

    # a mover is dynamic only if its trajectory actually moves; the mask
    # labels dynamic silhouettes, not every foreground object
    dynamic = np.zeros(len(spec.movers), dtype=bool)
    for i, mover in enumerate(spec.movers):
        pos = mover.positions(t)
        dynamic[i] = bool(np.any(np.linalg.norm(np.diff(pos, axis=0),
                                                axis=1) > 0))

    # one row per colour index of _render_frame; clipping a row clips
    # every pixel drawn from it
    palette = np.clip([(0.0, 0.0, 0.0), _CHECKER_DARK, _CHECKER_LIGHT,
                       *(m.color for m in spec.movers)], 0.0, 1.0
                      ).astype(np.float32)
    # the mask labels the colour indices of dynamic movers
    dynamic_color = np.concatenate([np.zeros(3, dtype=bool), dynamic])
    us, vs = np.meshgrid(np.arange(w), np.arange(h))
    pixels = np.column_stack([us.ravel(), vs.ravel()])
    # the track's cameras differ only in their centre's x, so they share
    # the rays of the first
    rays = _camera_rays(pixels, cams[0])
    for f, cam in enumerate(cams):
        flat_depth, hit, color = _render_frame(spec, cam.center, rays, f)
        depth = flat_depth.reshape(h, w)
        true_depths[f] = depth
        images[f] = palette[color].reshape(h, w, 3)
        instances[f] = np.maximum(hit - 2, -1).reshape(h, w)
        masks[f] = dynamic_color[color].reshape(h, w)

        sigma = _sigma_map(spec, f)
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
        gt_masks=masks)
    gt = GroundTruth(
        true_depths=true_depths, instances=instances,
        mover_positions=np.stack([m.positions(t) for m in spec.movers])
        if spec.movers else np.zeros((0, t, 3)))

    if out_dir is not None:
        save_scene(bundle, out_dir)
        save_ground_truth(gt, out_dir, spec)
    return bundle, gt


def save_ground_truth(gt: GroundTruth, out_dir, spec: SceneSpec) -> None:
    """Write gt.json and its two stack files next to a saved scene."""
    out = Path(out_dir)
    write_json({
        "seed": spec.seed,
        "noise": {"depth_sigma": spec.depth_sigma,
                  "high_fraction": spec.high_fraction},
        "movers": [{"shape": mover.shape, "size": mover.size,
                    "color": [float(v) for v in mover.color],
                    "positions": [[float(v) for v in row] for row in track]}
                   for mover, track in zip(spec.movers, gt.mover_positions)],
        "true_depths": write_stack(gt.true_depths, out, "gt_depth"),
        "instances": write_stack(gt.instances.astype(np.float32), out,
                                 "gt_inst"),
    }, out / "gt.json")


def load_ground_truth(scene_dir, shape: tuple[int, int, int]) -> GroundTruth:
    """Reload the ground truth saved next to a scene as ``gt.json``.

    `shape` is the scene's (T, H, W), from its scene.json; nothing else
    of the scene is read.  Both stacks must have that shape, true depths
    must be finite and >= 0, instance ids whole numbers in [-1, movers),
    and the mover positions (movers, T, 3); anything else raises
    SceneFormatError.
    """
    root = Path(scene_dir)
    manifest = read_manifest(root / "gt.json")
    t, h, w = shape
    true_depths, instances = (read_stack(root, manifest, key, t, (h, w))
                              for key in ("true_depths", "instances"))
    movers = manifest.get("movers")
    if not isinstance(movers, list):
        raise SceneFormatError("gt.json movers is missing or not a list")
    positions = np.zeros((len(movers), t, 3))
    for i, mover in enumerate(movers):
        where = f"gt.json movers[{i}] positions"
        track = mover.get("positions") if isinstance(mover, dict) else None
        if not isinstance(track, list) or len(track) != t:
            raise SceneFormatError(f"{where} must list {t} positions")
        positions[i] = [json_vector(p, 3, where, SceneFormatError)
                        for p in track]
    if not (np.isfinite(true_depths) & (true_depths >= 0)).all():
        raise SceneFormatError("gt.json true_depths must be finite and >= 0")
    if not ((instances == np.round(instances)) & (instances >= -1)
            & (instances < len(movers))).all():
        raise SceneFormatError(
            f"gt.json instances must be whole numbers in [-1, {len(movers)})")
    return GroundTruth(
        true_depths=true_depths, instances=instances.astype(np.int32),
        mover_positions=positions)


def corpus_specs(count: int = 20, frames: int = 6, width: int = 96,
                 height: int = 72) -> list[SceneSpec]:
    """Deterministic family of mover scenes for corpus-level studies.

    Scene k gets seed k, one or two compact movers with mostly vertical
    motion (perpendicular to the lateral camera track, so their geometry
    is maximally visible to cross-view checks), heteroscedastic depth
    noise, and the 2-signal / 6-noise attention stack.  The
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
