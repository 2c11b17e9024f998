"""Pinhole cameras, two-view warps, and epipolar residuals.

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


class BehindCameraError(ValueError):
    """Projection target has non-positive depth in the target camera."""


class DegenerateBaselineError(ValueError):
    """Camera pair with (near-)zero translation has no essential matrix."""


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
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got {self.fx}, {self.fy}")
        object.__setattr__(self, "R", _as_rotation(self.R))
        t = np.asarray(self.t, dtype=np.float64).reshape(3).copy()
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
        return pts @ self.R.T + self.t

    def camera_to_world(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return (pts - self.t) @ self.R


@dataclass(frozen=True)
class EssentialMatrix:
    """Essential matrix of a camera pair, optionally baseline-normalized."""

    matrix: np.ndarray
    unit_baseline: bool = False

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (3, 3):
            raise ValueError(f"essential matrix shape {m.shape}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    x, y, z = np.asarray(v, dtype=np.float64).reshape(3)
    return np.array([[0.0, -z, y],
                     [z, 0.0, -x],
                     [-y, x, 0.0]])


def essential_from_poses(ref: CameraModel, tgt: CameraModel,
                         unit_baseline: bool = False) -> EssentialMatrix:
    """Essential matrix [t_rel]x R_rel of the pair (ref, tgt).

    With `unit_baseline` the translation is scaled to unit length first,
    which makes epipolar residuals comparable across pairs with different
    baselines.  Raises DegenerateBaselineError for a (near-)zero baseline.
    """
    R_rel = tgt.R @ ref.R.T
    t_rel = tgt.t - R_rel @ ref.t
    baseline = float(np.linalg.norm(t_rel))
    if baseline <= MIN_BASELINE:
        raise DegenerateBaselineError(
            f"baseline {baseline:.3e} below {MIN_BASELINE:.0e}")
    t = t_rel / baseline if unit_baseline else t_rel
    return EssentialMatrix(matrix=skew(t) @ R_rel, unit_baseline=unit_baseline)


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
    return proj[:, :2] / safe[:, None], z


def project_rigid_batch(pixels: np.ndarray, depths: np.ndarray,
                        ref: CameraModel, tgt: CameraModel
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Warp reference pixels into the target view assuming a static world."""
    return project_points(unproject_pixels(pixels, depths, ref), tgt)


def project_dynamic_world_batch(pixels: np.ndarray, depths: np.ndarray,
                                ref: CameraModel, tgt: CameraModel,
                                displacements: np.ndarray
                                ) -> tuple[np.ndarray, np.ndarray]:
    """Warp reference pixels whose points move by world displacements."""
    disp = np.asarray(displacements, dtype=np.float64).reshape(-1, 3)
    return project_points(unproject_pixels(pixels, depths, ref) + disp, tgt)


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

def epipolar_residual_batch(pixels_ref: np.ndarray, pixels_tgt: np.ndarray,
                            essential: EssentialMatrix,
                            intrinsics: CameraModel) -> np.ndarray:
    """Signed epipolar residual x_t^T E x_r in normalized coordinates, (N,)."""
    xr = pixel_rays(pixels_ref, intrinsics)
    xt = pixel_rays(pixels_tgt, intrinsics)
    return np.einsum("ni,ij,nj->n", xt, essential.matrix, xr)


def epipolar_residual(pixel_ref: np.ndarray, pixel_tgt: np.ndarray,
                      essential: EssentialMatrix,
                      intrinsics: CameraModel) -> float:
    """Signed epipolar residual of one correspondence.

    Zero (to numerical precision) exactly when the two pixels see the same
    static 3-D point; motion along the epipolar plane also stays at zero,
    which is the blind spot this measure inherits.
    """
    return float(epipolar_residual_batch(
        np.asarray(pixel_ref).reshape(1, 2), np.asarray(pixel_tgt).reshape(1, 2),
        essential, intrinsics)[0])


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
    ess = essential_from_poses(ref, tgt, unit_baseline=True)
    x_hat = pixel_rays(pixel_ref, ref)[0]
    line = ess.matrix @ x_hat
    norm = np.linalg.norm(line)
    if norm <= 1e-15:
        return 0.0
    n = line / norm
    m = np.asarray(motion, dtype=np.float64).reshape(3)
    return float(n @ m) / float(depth)
