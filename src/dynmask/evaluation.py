"""Segmentation and reconstruction metrics.

Mask quality is scored with the region Jaccard mean and the boundary
F-measure (4-connected contours matched within a tolerance radius of
0.8% of the image diagonal).  Point clouds are scored with directed
nearest-neighbor distances: accuracy (pred to truth), completeness (truth
to pred), and their symmetric average, each as mean and median.

The boundary measure looks only at contour pixels.  A contour pixel of
one mask is matched when some contour pixel of the other mask lies at an
integer offset (dy, dx) with sqrt(dy*dy + dx*dx) <= tol, the offsets taken
once per call.  That float64 square root is the one a Euclidean distance
transform takes of the same integer offsets, and the transform's distance
is the smallest of them, so every decision equals `distance <= tol` bit
for bit without a transform of the whole frame.  Each nearest-neighbor
query of the cloud metrics is independent of the others, so they run on
every CPU the process may use and give the same distances on any number.

All metrics are pure functions of their inputs, deterministic, and
reported as fractions in [0, 1] for masks and meters for distances.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from . import purification

DEFAULT_BOUNDARY_TOL = 0.008
RECALL_THRESHOLD = 0.5


@dataclass
class MetricReport:
    """Flat bundle of every metric the evaluator can produce.

    Fields that could not be computed (missing ground truth, missing
    clouds) are None and serialize to JSON null.
    """

    jm: float | None = None
    fm: float | None = None
    jr: float | None = None
    fr: float | None = None
    jaccard_frames: list = field(default_factory=list)
    boundary_frames: list = field(default_factory=list)
    acc_mean: float | None = None
    acc_median: float | None = None
    comp_mean: float | None = None
    comp_median: float | None = None
    dist_mean: float | None = None
    dist_median: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _check_stacks(pred: np.ndarray, gt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=bool)
    gt = np.asarray(gt, dtype=bool)
    if pred.ndim != 3 or gt.ndim != 3:
        raise ValueError("mask stacks must be (T, H, W)")
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {gt.shape}")
    return pred, gt


# ---------------------------------------------------------------------------
# region similarity
# ---------------------------------------------------------------------------

def jaccard_frames(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-frame intersection over union; empty-vs-empty scores 1."""
    pred, gt = _check_stacks(pred, gt)
    inter = (pred & gt).sum(axis=(1, 2)).astype(np.float64)
    union = (pred | gt).sum(axis=(1, 2)).astype(np.float64)
    out = np.ones(pred.shape[0])
    nz = union > 0
    out[nz] = inter[nz] / union[nz]
    return out


# ---------------------------------------------------------------------------
# boundary quality
# ---------------------------------------------------------------------------

def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """4-connected contour: mask pixels adjacent to background.

    Pixels on the image border count as adjacent to background, so a blob
    touching the edge still contributes its outline there.
    """
    mask = np.asarray(mask, dtype=bool)
    inner = np.zeros_like(mask)
    inner[1:-1, 1:-1] = (mask[1:-1, 1:-1] & mask[:-2, 1:-1] & mask[2:, 1:-1]
                         & mask[1:-1, :-2] & mask[1:-1, 2:])
    return mask & ~inner


def _disk_offsets(tol: float) -> np.ndarray:
    """The integer offsets (dy, dx) at distance <= tol, as (K, 2).

    The distance is the float64 square root a Euclidean distance transform
    takes, so an offset is in the disk exactly when the transform would
    put it within `tol`.  No offset exceeds floor(tol) on either axis.
    """
    r = int(np.floor(tol))
    return np.array([(dy, dx) for dy in range(-r, r + 1)
                     for dx in range(-r, r + 1)
                     if np.sqrt(float(dy * dy + dx * dx)) <= tol])


def _matched(src: np.ndarray, dst: np.ndarray, disk: np.ndarray) -> np.ndarray:
    """Per contour pixel of `src`, in row-major order: is a contour pixel
    of `dst` at one of the `disk` offsets from it?"""
    h, w = dst.shape
    r = int(np.abs(disk).max())
    pw = w + 2 * r
    padded = np.zeros((h + 2 * r, pw), dtype=bool)
    padded[r:r + h, r:r + w] = dst
    rows, cols = np.nonzero(src)
    ids = (rows + r) * pw + (cols + r)
    flat = padded.ravel()
    hit = np.zeros(len(ids), dtype=bool)
    for shift in disk @ [pw, 1]:
        hit |= flat[ids + shift]
    return hit


def _boundary_f_single(pred: np.ndarray, gt: np.ndarray,
                       disk: np.ndarray) -> float:
    pb = boundary_pixels(pred)
    gb = boundary_pixels(gt)
    n_pred = int(pb.sum())
    n_gt = int(gb.sum())
    if n_pred == 0 and n_gt == 0:
        return 1.0
    if n_pred == 0 or n_gt == 0:
        return 0.0
    precision = float(_matched(pb, gb, disk).mean())
    recall = float(_matched(gb, pb, disk).mean())
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def boundary_f_frames(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    pred, gt = _check_stacks(pred, gt)
    h, w = pred.shape[1:]
    disk = _disk_offsets(DEFAULT_BOUNDARY_TOL * float(np.hypot(h, w)))
    return np.array([_boundary_f_single(pred[f], gt[f], disk)
                     for f in range(pred.shape[0])])


def recall_fraction(per_frame: np.ndarray) -> float:
    """Fraction of frames whose score strictly exceeds RECALL_THRESHOLD."""
    per_frame = np.asarray(per_frame, dtype=np.float64)
    if per_frame.size == 0:
        raise ValueError("empty score series")
    return float((per_frame > RECALL_THRESHOLD).mean())


# ---------------------------------------------------------------------------
# point-cloud quality
# ---------------------------------------------------------------------------

def cloud_metrics(pred: np.ndarray, gt: np.ndarray) -> dict:
    """Directed nearest-neighbor statistics between two point sets.

    Nearest distances do not depend on a tree's shape, and trees built
    without median splits or node compaction build faster.  The queries
    run on every CPU the process may use (`purification._WORKERS`); each
    point's query is independent, so the distances do not depend on it.
    """
    pred = np.asarray(pred, dtype=np.float64).reshape(-1, 3)
    gt = np.asarray(gt, dtype=np.float64).reshape(-1, 3)
    if len(pred) == 0 or len(gt) == 0:
        raise ValueError("cloud metrics need non-empty point sets")
    workers = purification._WORKERS
    acc = cKDTree(gt, balanced_tree=False, compact_nodes=False).query(
        pred, workers=workers)[0]
    comp = cKDTree(pred, balanced_tree=False, compact_nodes=False).query(
        gt, workers=workers)[0]
    out = {
        "acc_mean": float(acc.mean()),
        "acc_median": float(np.median(acc)),
        "comp_mean": float(comp.mean()),
        "comp_median": float(np.median(comp)),
    }
    out["dist_mean"] = (out["acc_mean"] + out["comp_mean"]) / 2.0
    out["dist_median"] = (out["acc_median"] + out["comp_median"]) / 2.0
    return out


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def evaluate_masks(pred: np.ndarray, gt: np.ndarray) -> MetricReport:
    j = jaccard_frames(pred, gt)
    b = boundary_f_frames(pred, gt)
    return MetricReport(
        jm=float(j.mean()), fm=float(b.mean()),
        jr=recall_fraction(j), fr=recall_fraction(b),
        jaccard_frames=[float(v) for v in j],
        boundary_frames=[float(v) for v in b])
