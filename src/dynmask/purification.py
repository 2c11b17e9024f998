"""Density-based purification of the dynamic point cloud.

Dynamic pixels lift to a 3-D point cloud; isolated points are artifacts of
noisy saliency or depth, while genuinely moving surfaces form dense blobs.
A point survives iff at least `tau` other points sit within an adaptive
radius (2% of the cloud's bounding-box diagonal by default).  Counting is
one-shot against the pre-filter cloud, never iterative.

The test is exact without scanning pairs: a grid of cell edge r/2 keeps
every point of a cell holding more than `tau` points outright (the DBSCAN
core-cell shortcut), and a k-d tree counts the neighbors of the rest.
Memory stays linear in the number of points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import unproject_pixels
from .tensor_io import SceneBundle, write_atomic

DEFAULT_TAU = 16
DEFAULT_R_FACTOR = 0.02


@dataclass
class DynamicPointCloud:
    """Struct-of-arrays point cloud with per-point provenance.

    `pixels` stores (row, col) of the source pixel; `frame_indices` the
    source frame.  Dead points stay in the arrays with alive=False so the
    bookkeeping back to masks never loses track of provenance.
    """

    positions: np.ndarray      # (M, 3) float64, world frame
    frame_indices: np.ndarray  # (M,) int32
    pixels: np.ndarray         # (M, 2) int32, (row, col)
    saliencies: np.ndarray     # (M,) float64
    alive: np.ndarray          # (M,) bool

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def alive_count(self) -> int:
        return int(self.alive.sum())

    @classmethod
    def empty(cls) -> "DynamicPointCloud":
        return cls(positions=np.zeros((0, 3)),
                   frame_indices=np.zeros(0, dtype=np.int32),
                   pixels=np.zeros((0, 2), dtype=np.int32),
                   saliencies=np.zeros(0),
                   alive=np.zeros(0, dtype=bool))

    def copy(self) -> "DynamicPointCloud":
        return DynamicPointCloud(
            positions=self.positions.copy(),
            frame_indices=self.frame_indices.copy(),
            pixels=self.pixels.copy(),
            saliencies=self.saliencies.copy(),
            alive=self.alive.copy())


def build_index(cloud: DynamicPointCloud, r: float) -> cKDTree:
    """k-d tree over the alive points of a cloud, for `radius_neighbors`.

    `r` is accepted for call-site symmetry with `radius_neighbors`; a k-d
    tree answers any radius.
    """
    return cKDTree(cloud.positions[cloud.alive])


def radius_neighbors(cloud: DynamicPointCloud, index: cKDTree,
                     i: int | np.ndarray, r: float) -> int | np.ndarray:
    """Number of alive points j != i with ||p_i - p_j|| <= r (inclusive).

    `i` is a point index (giving an int) or an index array (giving an
    array of counts).  Counting never builds neighbor lists: O(N) memory.
    """
    if r <= 0:
        raise ValueError(f"radius {r} must be positive")
    found = index.query_ball_point(cloud.positions[i], r, return_length=True)
    # an alive point is in the tree and always finds itself
    counts = found - np.asarray(cloud.alive[i], dtype=np.int64)
    return int(counts) if np.ndim(i) == 0 else counts


def unproject_mask(bundle: SceneBundle, masks: np.ndarray,
                   saliencies: np.ndarray | None = None) -> DynamicPointCloud:
    """Lift every masked pixel with valid depth into a world-space point.

    `masks` is (T, H, W) boolean; `saliencies`, if given, is the
    (T, H/patch, W/patch) patch-grid saliency, and each point carries the
    value of its pixel's patch (default 1.0).  Pixels with depth 0 are
    silently skipped.
    """
    masks = np.asarray(masks, dtype=bool)
    positions, frames, pixels, sal = [], [], [], []
    for f in range(bundle.frames):
        keep = masks[f] & (bundle.depths[f] > 0)
        rows, cols = np.nonzero(keep)
        if len(rows) == 0:
            continue
        depth = bundle.depths[f][rows, cols].astype(np.float64)
        uv = np.column_stack([cols, rows]).astype(np.float64)
        positions.append(unproject_pixels(uv, depth, bundle.cameras[f]))
        frames.append(np.full(len(rows), f, dtype=np.int32))
        pixels.append(np.column_stack([rows, cols]).astype(np.int32))
        if saliencies is not None:
            sal.append(np.asarray(
                saliencies[f][rows // bundle.patch, cols // bundle.patch],
                dtype=np.float64))
        else:
            sal.append(np.ones(len(rows)))
    if not positions:
        return DynamicPointCloud.empty()
    return DynamicPointCloud(
        positions=np.concatenate(positions),
        frame_indices=np.concatenate(frames),
        pixels=np.concatenate(pixels),
        saliencies=np.concatenate(sal),
        alive=np.ones(sum(len(p) for p in positions), dtype=bool))


def scene_diagonal(cloud: DynamicPointCloud) -> float:
    """Axis-aligned bounding-box diagonal of the alive points; 0 if empty."""
    alive = cloud.positions[cloud.alive]
    if len(alive) == 0:
        return 0.0
    span = alive.max(axis=0) - alive.min(axis=0)
    return float(np.linalg.norm(span))


def _outright_alive(positions: np.ndarray, r: float, tau: int) -> np.ndarray:
    """Points whose grid cell of edge r/2 holds at least tau + 1 points.

    Two points in one such cell are less than r*sqrt(3)/2 apart, so each of
    them has at least tau neighbors within r without measuring any pair.
    The margin to r (13%) dwarfs the rounding in the cell keys.  A grid too
    fine to key (over 2**20 cells along an axis) decides nothing.
    """
    cell = r / 2
    shifted = (positions - positions.min(axis=0)) / cell
    if not shifted.max() < 2 ** 20:  # also catches NaN
        return np.zeros(len(positions), dtype=bool)
    keys = np.floor(shifted).astype(np.int64)
    dims = keys.max(axis=0) + 1
    flat = (keys[:, 0] * dims[1] + keys[:, 1]) * dims[2] + keys[:, 2]
    _, inverse, sizes = np.unique(flat, return_inverse=True,
                                  return_counts=True)
    return sizes[inverse] > tau


def purify(cloud: DynamicPointCloud, tau: int = DEFAULT_TAU,
           r_factor: float = DEFAULT_R_FACTOR,
           radius: float | None = None) -> DynamicPointCloud:
    """One-shot density filter: keep points with >= tau neighbors within r.

    The radius defaults to r_factor times the cloud's bounding-box diagonal;
    pass `radius` to override (e.g. with a full-scene diagonal).  Densities
    are computed against the pre-filter cloud, so removal order cannot
    cascade.  Returns a new cloud; the input is left untouched.
    """
    if tau < 0:
        raise ValueError(f"tau {tau} must be >= 0")
    out = cloud.copy()
    if len(out) == 0:
        return out
    r = (r_factor * scene_diagonal(cloud)) if radius is None else float(radius)
    if not np.isfinite(r):
        raise ValueError(f"purification radius {r} must be finite")
    alive_ids = np.flatnonzero(out.alive)
    if len(alive_ids) == 0:
        return out
    positions = out.positions[alive_ids]
    if r <= 0:
        # degenerate radius: only exactly co-located points count
        _, inverse, group_sizes = np.unique(
            positions, axis=0, return_inverse=True, return_counts=True)
        out.alive[alive_ids] = group_sizes[inverse] > tau
        return out
    keep = _outright_alive(positions, r, tau)
    rest = np.flatnonzero(~keep)
    if len(rest):
        keep[rest] = radius_neighbors(out, build_index(out, r),
                                      alive_ids[rest], r) >= tau
    out.alive[alive_ids] = keep
    return out


def mask_from_cloud(cloud: DynamicPointCloud, bundle: SceneBundle) -> np.ndarray:
    """Rasterize alive points back onto per-frame binary masks (T, H, W)."""
    masks = np.zeros((bundle.frames, bundle.height, bundle.width), dtype=bool)
    keep = cloud.alive
    masks[cloud.frame_indices[keep],
          cloud.pixels[keep, 0], cloud.pixels[keep, 1]] = True
    return masks


def write_ply(cloud: DynamicPointCloud, path) -> None:
    """Dump the cloud as ASCII PLY with saliency and alive-flag properties."""
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "property float saliency",
        "property uchar alive",
        "end_header",
    ]
    for i in range(len(cloud)):
        x, y, z = cloud.positions[i]
        lines.append(f"{x:.9g} {y:.9g} {z:.9g} "
                     f"{cloud.saliencies[i]:.9g} {int(cloud.alive[i])}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def read_ply(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back a cloud written by write_ply: (positions, saliencies, alive).

    Only the exact layout write_ply produces is accepted; anything else
    raises ValueError.
    """
    with open(path, "r", encoding="ascii") as f:
        header = [f.readline().rstrip("\n") for _ in range(9)]
        if header[0] != "ply" or header[1] != "format ascii 1.0":
            raise ValueError(f"{path}: not an ASCII PLY cloud")
        if not header[2].startswith("element vertex "):
            raise ValueError(f"{path}: missing vertex element")
        count = int(header[2].split()[-1])
        if header[8] != "end_header":
            raise ValueError(f"{path}: unexpected header layout")
        if count == 0:
            return (np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=bool))
        data = np.loadtxt(f, ndmin=2, max_rows=count, comments=None)
    if len(data) != count:
        raise ValueError(f"{path}: expected {count} vertices, "
                         f"found {len(data)}")
    if data.shape[1] != 5:
        raise ValueError(f"{path}: expected 5 properties per vertex")
    return data[:, :3], data[:, 3], data[:, 4] > 0.5
