"""Pinhole cameras, projection, and epipolar residuals.

Conventions used throughout the package:

* world-to-camera extrinsics: ``X_cam = R @ X_world + t``
* pixel coordinates are ``(u, v) = (column, row)``; the integer array index
  is the coordinate (no half-pixel offset), so the principal point pixel
  unprojects to the optical axis
* depth is the camera-frame z coordinate, in meters, positive in front
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ORTHO_TOL = 1e-5
MIN_DEPTH = 1e-9
MIN_BASELINE = 1e-9


def _as_rotation(R: np.ndarray) -> np.ndarray:
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise ValueError(f"rotation shape {R.shape}, wanted (3, 3)")
    if not np.isfinite(R).all():
        # NaN fails no comparison, so the checks below would let it through
        raise ValueError("rotation has non-finite entries")
    err = np.abs(R.T @ R - np.eye(3)).max()
    if err > ORTHO_TOL:
        raise ValueError(f"rotation not orthonormal, max |R^T R - I| = {err:.3e}")
    if abs(np.linalg.det(R) - 1.0) > ORTHO_TOL:
        raise ValueError(f"rotation determinant {np.linalg.det(R):.6f} != 1")
    R = R.copy()
    R.flags.writeable = False
    return R


@dataclass(frozen=True)
class CameraModel:
    """Calibrated pinhole camera with world-to-camera extrinsics."""

    fx: float
    fy: float
    cx: float
    cy: float
    R: np.ndarray = field(default_factory=lambda: np.eye(3))
    t: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=np.float64).reshape(3).copy()
        # NaN fails no comparison, so the focal check below would pass it
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy, *t]).all():
            raise ValueError(f"non-finite camera parameters: fx {self.fx}, "
                             f"fy {self.fy}, cx {self.cx}, cy {self.cy}, t {t}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got {self.fx}, {self.fy}")
        object.__setattr__(self, "R", _as_rotation(self.R))
        t.flags.writeable = False
        object.__setattr__(self, "t", t)

    @property
    def K(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])

    @property
    def K_inv(self) -> np.ndarray:
        return np.array([[1.0 / self.fx, 0.0, -self.cx / self.fx],
                         [0.0, 1.0 / self.fy, -self.cy / self.fy],
                         [0.0, 0.0, 1.0]])

    @property
    def center(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return -self.R.T @ self.t

    def world_to_camera(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        cam = pts @ self.R.T
        # column by column: the same sums as broadcasting `+ self.t`,
        # without an inner loop of length 3 per point
        for k in range(3):
            cam[..., k] += self.t[k]
        return cam

    def camera_to_world(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return (pts - self.t) @ self.R


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=np.float64).reshape(3)
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def essential_from_poses(ref: CameraModel, tgt: CameraModel) -> np.ndarray:
    """Read-only (3, 3) essential matrix [t_rel]x R_rel of the pair (ref, tgt).

    The translation is scaled to unit length first, which makes epipolar
    residuals comparable across pairs with different baselines.  Raises
    ValueError for a (near-)zero baseline, which has no essential matrix.
    """
    R_rel = tgt.R @ ref.R.T
    t_rel = tgt.t - R_rel @ ref.t
    baseline = float(np.linalg.norm(t_rel))
    if baseline <= MIN_BASELINE:
        raise ValueError(f"baseline {baseline:.3e} below {MIN_BASELINE:.0e}")
    essential = skew(t_rel / baseline) @ R_rel
    essential.flags.writeable = False
    return essential


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def pixel_rays(pixels: np.ndarray, cam: CameraModel) -> np.ndarray:
    """Camera-frame rays K^-1 (u, v, 1) of pixels (N, 2), as (N, 3) with z = 1.

    Scaling a ray by a depth gives the camera-frame point; the same rays are
    the normalized image coordinates of the epipolar constraint.
    """
    uv = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    homo = np.column_stack([uv, np.ones(len(uv))])
    return homo @ cam.K_inv.T


def unproject_pixels(pixels: np.ndarray, depths: np.ndarray,
                     cam: CameraModel) -> np.ndarray:
    """Lift pixels (N, 2) as (u, v) with depths (N,) to world points (N, 3)."""
    d = np.asarray(depths, dtype=np.float64).reshape(-1)
    return cam.camera_to_world(pixel_rays(pixels, cam) * d[:, None])


def project_points(points: np.ndarray,
                   cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Project world points (N, 3) to pixels (N, 2) and depths (N,).

    No visibility filtering: depths may be non-positive, and callers must
    mask them before dividing results into an image.  The dehomogenization
    guards depth with a tiny epsilon so the pixel array stays finite.
    """
    cam_pts = cam.world_to_camera(np.asarray(points, dtype=np.float64).reshape(-1, 3))
    proj = cam_pts @ cam.K.T
    z = proj[:, 2]
    safe = np.where(np.abs(z) > MIN_DEPTH, z, MIN_DEPTH)
    # column by column, like `world_to_camera`'s translation
    uv = np.empty((len(z), 2))
    for k in range(2):
        np.divide(proj[:, k], safe, out=uv[:, k])
    return uv, z


# ---------------------------------------------------------------------------
# epipolar residuals
# ---------------------------------------------------------------------------

def epipolar_residual_batch(pixels_ref: np.ndarray, pixels_tgt: np.ndarray,
                            essential: np.ndarray,
                            intrinsics: CameraModel,
                            intrinsics_tgt: CameraModel | None = None
                            ) -> np.ndarray:
    """Signed epipolar residual x_t^T E x_r in normalized coordinates, (N,).

    Each pixel set is normalized by its own camera: the reference pixels
    by `intrinsics`, the target pixels by `intrinsics_tgt`, which defaults
    to the reference camera.
    """
    xr = pixel_rays(pixels_ref, intrinsics)
    xt = pixel_rays(pixels_tgt, intrinsics if intrinsics_tgt is None
                    else intrinsics_tgt)
    return np.einsum("ni,ij,nj->n", xt, essential, xr)
