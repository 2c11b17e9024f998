"""Density-based purification of the dynamic point cloud.

Dynamic pixels lift to a 3-D point cloud; isolated points are artifacts of
noisy saliency or depth, while genuinely moving surfaces form dense blobs.
A point survives iff at least `tau` other points sit within an adaptive
radius (2% of the cloud's bounding-box diagonal by default).  Counting is
one-shot against the pre-filter cloud, never iterative.  The filter takes
the cloud as `unproject_mask` lifts it, every point alive, and refuses a
cloud with a dead point.

The test is exact without scanning pairs: the grid decides, the tree
counts the undecided.  On a grid of cell edge r/2, a point's own cell and
every adjacent cell whose far corner lies within r of it hold only
neighbours, so their sizes add up to a lower bound on its count; a point
whose bound exceeds `tau` is kept with no distance measured.  The far
corner must clear r by a relative margin of 1e-6 on the squared distance,
which dwarfs the rounding in the cell keys (under 2**-31 cells while the
grid spans at most 2**20 cells an axis), so no point just beyond r is
counted.  A k-d tree counts the neighbours of the points left open.
Memory stays linear in the number of points.

Given a second CPU in the process's affinity (`taskset` narrows it), a pool
thread builds the tree while the caller runs the grid, and the two then
count contiguous halves of the open points.  Each count belongs to one
point, so the verdicts are identical on any number of CPUs.  On one CPU
the tree is built only when the grid leaves a point open.
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .geometry import unproject_pixels
from .tensor_io import SceneBundle, write_atomic

DEFAULT_TAU = 16
DEFAULT_R_FACTOR = 0.02
# every CPU this process may run on (`taskset` narrows it): purification
# uses two of them, and cross-view refinement and `evaluation.cloud_metrics`
# as many threads as there are
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@dataclass
class DynamicPointCloud:
    """Struct-of-arrays point cloud with per-point provenance.

    `pixel_ids` stores each point's source pixel as its flat index into
    the (T, H, W) frame stack, (frame * H + row) * W + col.  Dead points
    stay in the arrays with alive=False so the bookkeeping back to masks
    never loses track of provenance.
    """

    positions: np.ndarray   # (M, 3) float64, world frame
    pixel_ids: np.ndarray   # (M,) int64, flat (frame, row, col)
    saliencies: np.ndarray  # (M,) float64
    alive: np.ndarray       # (M,) bool

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def alive_count(self) -> int:
        return int(self.alive.sum())


def build_index(cloud: DynamicPointCloud) -> cKDTree:
    """k-d tree over every point of a lifted cloud, for `radius_neighbors`.

    One tree answers any radius.  Counts do not depend on the tree's shape,
    and sliding-midpoint splits build in about half the time of median
    splits on an 870k-point lifted cloud.
    """
    return cKDTree(cloud.positions, balanced_tree=False)


def radius_neighbors(cloud: DynamicPointCloud, index: cKDTree,
                     i: int | np.ndarray, r: float) -> int | np.ndarray:
    """Number of points j != i with ||p_i - p_j|| <= r (inclusive).

    `i` is a point index (giving an int) or an index array (giving an
    array of counts).  Counting never builds neighbor lists: O(N) memory.
    """
    if r <= 0:
        raise ValueError(f"radius {r} must be positive")
    found = index.query_ball_point(cloud.positions[i], r, return_length=True)
    # every point is in the tree and finds itself
    counts = found - 1
    return int(counts) if np.ndim(i) == 0 else counts


def _lift(depths: np.ndarray, cameras, masks: np.ndarray):
    """Flat ids, (frame, row, col) and world positions of the masked
    pixels with depth.

    `depths` and `masks` are (T, H, W), `cameras` one per frame; pixels
    with depth 0 are skipped, and points come in pixel-id order:
    frame-major, then row-major.
    """
    ids = np.flatnonzero(np.asarray(masks, dtype=bool) & (depths > 0))
    frames, rows, cols = np.unravel_index(ids, depths.shape)
    values = depths.reshape(-1)[ids].astype(np.float64)
    positions = np.empty((len(ids), 3))
    # the ids are frame-major, so each frame's points are one slice
    bounds = np.searchsorted(frames, np.arange(len(cameras) + 1))
    for f, camera in enumerate(cameras):
        at = slice(bounds[f], bounds[f + 1])
        uv = np.column_stack([cols[at], rows[at]]).astype(np.float64)
        positions[at] = unproject_pixels(uv, values[at], camera)
    return ids, (frames, rows, cols), positions


def unproject_mask(bundle: SceneBundle, masks: np.ndarray,
                   saliencies: np.ndarray | None = None) -> DynamicPointCloud:
    """Lift every masked pixel with valid depth into a world-space point.

    `masks` is (T, H, W) boolean; `saliencies`, if given, is the
    (T, H/patch, W/patch) patch-grid saliency, and each point carries the
    value of its pixel's patch (default 1.0).  Pixels with depth 0 are
    silently skipped.  Points come in pixel-id order: frame-major, then
    row-major.
    """
    ids, (frames, rows, cols), positions = _lift(bundle.depths,
                                                 bundle.cameras, masks)
    sal = (np.ones(len(ids)) if saliencies is None else np.asarray(
        saliencies[frames, rows // bundle.patch, cols // bundle.patch],
        dtype=np.float64))
    return DynamicPointCloud(positions=positions, pixel_ids=ids,
                             saliencies=sal,
                             alive=np.ones(len(ids), dtype=bool))


def scene_diagonal(cloud: DynamicPointCloud) -> float:
    """Axis-aligned bounding-box diagonal of a cloud's points; 0 if empty."""
    if len(cloud) == 0:
        return 0.0
    # column by column: a reduction along axis 0 of (N, 3) loops 3 at a time
    span = [column.max() - column.min() for column in cloud.positions.T]
    return float(np.linalg.norm(span))


# the 26 cells around a cell, as (dx, dy, dz) offsets in cells
_NEIGHBOUR_CELLS = np.array([(dx, dy, dz) for dx in (-1, 0, 1)
                             for dy in (-1, 0, 1) for dz in (-1, 0, 1)
                             if dx or dy or dz])
# a cell counts when its far corner is within r by this relative margin on
# the squared distance; key rounding moves each point by under 2**-31 cells
# (coordinates stay below 2**20 cells), orders of magnitude less
_FAR_CORNER_MARGIN = 1e-6


def _outright_alive(positions: np.ndarray, r: float, tau: int) -> np.ndarray:
    """Points the grid of cell edge r/2 proves to have tau neighbors within r.

    Every point of a cell lies within its far corner's distance, so the
    points of the own cell and of each adjacent cell whose far corner is
    within r (the own cell always is: r*sqrt(3)/2) are a lower bound on a
    point's neighbours, self included.  A point is kept when that bound
    exceeds tau; the rest are left for `radius_neighbors`.  A grid too fine
    to key (over 2**20 cells along an axis) decides nothing.
    """
    cell = r / 2
    lows = np.array([column.min() for column in positions.T])
    # keys are built one axis at a time, so no (N, 3) temporary is made
    dims, flat = [], np.zeros(len(positions), dtype=np.int64)
    for column, low in zip(positions.T, lows):
        shifted = (column - low) / cell
        top = shifted.max()
        if not top < 2 ** 20:  # also catches NaN
            return np.zeros(len(positions), dtype=bool)
        # one empty layer of cells on every side keeps neighbour keys distinct
        dims.append(int(top) + 3)
        flat *= dims[-1]
        flat += np.floor(shifted).astype(np.int64) + 1
    strides = np.array([dims[1] * dims[2], dims[2], 1])
    cells, inverse, sizes = np.unique(flat, return_inverse=True,
                                      return_counts=True)
    bound = sizes[inverse]
    open_ = np.flatnonzero(bound <= tau)
    frac = (positions[open_] - lows) / cell % 1
    # squared far-corner reach along one axis in cells, for offsets -1, 0, 1
    reach = np.stack([1 + frac, np.maximum(frac, 1 - frac), 2 - frac]) ** 2
    limit = 4 * (1 - _FAR_CORNER_MARGIN)  # r is 2 cells
    for offset in _NEIGHBOUR_CELLS:
        far = (reach[offset[0] + 1, :, 0] + reach[offset[1] + 1, :, 1]
               + reach[offset[2] + 1, :, 2])
        within = open_[far <= limit]
        target = flat[within] + offset @ strides
        at = np.searchsorted(cells, target)
        at[at == len(cells)] = 0
        hit = cells[at] == target
        bound[within[hit]] += sizes[at[hit]]
    return bound > tau


def purify(cloud: DynamicPointCloud, tau: int = DEFAULT_TAU,
           r_factor: float = DEFAULT_R_FACTOR,
           radius: float | None = None) -> DynamicPointCloud:
    """One-shot density filter: keep points with >= tau neighbors within r.

    `cloud` is a lifted cloud, every point alive, as `unproject_mask`
    returns it; a cloud with a dead point raises ValueError.  The radius
    defaults to r_factor times the cloud's bounding-box diagonal; pass
    `radius` to override (e.g. with a full-scene diagonal).  Densities are
    computed against the pre-filter cloud, so removal order cannot
    cascade.  Returns a new cloud that shares every array with the input
    but `alive`; the input is left untouched.
    """
    if tau < 0:
        raise ValueError(f"tau {tau} must be >= 0")
    if not cloud.alive.all():
        raise ValueError("purify takes a lifted cloud, every point alive, "
                         f"not one with {len(cloud) - cloud.alive_count} dead")
    dead = np.zeros_like(cloud.alive)
    if len(cloud) == 0:
        return replace(cloud, alive=dead)
    r = (r_factor * scene_diagonal(cloud)) if radius is None else float(radius)
    if not np.isfinite(r):
        raise ValueError(f"purification radius {r} must be finite")
    if len(cloud) <= tau:
        # no point has tau others, so no grid or index is needed
        return replace(cloud, alive=dead)
    if r <= 0:
        # degenerate radius: only exactly co-located points count
        _, inverse, group_sizes = np.unique(
            cloud.positions, axis=0, return_inverse=True, return_counts=True)
        return replace(cloud, alive=group_sizes[inverse] > tau)
    with (ThreadPoolExecutor(1) if _WORKERS > 1
          else contextlib.nullcontext()) as pool:
        # the pool thread builds the tree while this one runs the grid
        building = None if pool is None else pool.submit(build_index, cloud)
        keep = _outright_alive(cloud.positions, r, tau)
        rest = np.flatnonzero(~keep)
        # read even when the grid decided every point, to raise its errors
        index = None if pool is None else building.result()
        if len(rest):
            if index is None:
                index = build_index(cloud)
            count = functools.partial(radius_neighbors, cloud, index, r=r)
            # one contiguous chunk a lane; this thread counts the first
            chunks = np.array_split(rest, 1 if pool is None else 2)
            later = [pool.submit(count, chunk) for chunk in chunks[1:]]
            keep[rest] = np.concatenate(
                [count(chunks[0])] + [f.result() for f in later]) >= tau
    return replace(cloud, alive=keep)


def mask_from_cloud(cloud: DynamicPointCloud, bundle: SceneBundle) -> np.ndarray:
    """Rasterize alive points back onto per-frame binary masks (T, H, W)."""
    masks = np.zeros((bundle.frames, bundle.height, bundle.width), dtype=bool)
    masks.reshape(-1)[cloud.pixel_ids[cloud.alive]] = True
    return masks


PLY_FORMAT = b"format binary_little_endian 1.0"
PLY_VERTEX = np.dtype([("x", "<f8"), ("y", "<f8"), ("z", "<f8"),
                       ("saliency", "<f8"), ("alive", "u1")])  # 33 bytes


def _ply_header(count: int) -> list[bytes]:
    return [b"ply", PLY_FORMAT, b"element vertex %d" % count,
            b"property double x", b"property double y", b"property double z",
            b"property double saliency", b"property uchar alive",
            b"end_header"]


def write_ply(cloud: DynamicPointCloud, path) -> None:
    """Dump the cloud as binary little-endian PLY.

    Each vertex is double x, y, z and saliency plus a uchar alive flag, 33
    bytes, so positions and saliencies are stored exactly.
    """
    body = np.empty(len(cloud), dtype=PLY_VERTEX)
    body["x"], body["y"], body["z"] = cloud.positions.T
    body["saliency"] = cloud.saliencies
    body["alive"] = cloud.alive
    write_atomic(path, b"\n".join(_ply_header(len(cloud))) + b"\n",
                 memoryview(body))


def read_ply(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read back a cloud written by write_ply: (positions, saliencies, alive).

    Only the exact header write_ply writes and a body of exactly 33 bytes
    per vertex are accepted; anything else raises ValueError.
    """
    with open(path, "rb") as f:
        raw = f.read()
    lines = raw[:256].split(b"\n")[:9]
    if lines[0] != b"ply":
        raise ValueError(f"{path}: not a PLY file")
    if len(lines) < 2 or lines[1] != PLY_FORMAT:
        raise ValueError(
            f"{path}: expected '{PLY_FORMAT.decode()}'; a cloud written as "
            "ASCII by an earlier version must be re-made with `dynmask mask`")
    words = lines[2].split(b" ") if len(lines) > 2 else []
    if (len(words) != 3 or words[:2] != [b"element", b"vertex"]
            or not words[2].isdigit()):
        raise ValueError(f"{path}: missing vertex element")
    count = int(words[2])
    header = _ply_header(count)
    for i, want in enumerate(header):
        got = lines[i] if i < len(lines) else b""
        if got != want:
            raise ValueError(f"{path}: header line {i + 1} is {got!r}, "
                             f"expected {want!r}")
    offset = sum(len(line) + 1 for line in header)
    size = count * PLY_VERTEX.itemsize
    if len(raw) - offset != size:
        raise ValueError(f"{path}: {count} vertices take {size} bytes, "
                         f"the body has {len(raw) - offset}")
    data = np.frombuffer(raw, dtype=PLY_VERTEX, count=count, offset=offset)
    positions = np.column_stack((data["x"], data["y"], data["z"]))
    return positions, data["saliency"].copy(), data["alive"] != 0
