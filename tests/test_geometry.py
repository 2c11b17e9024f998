"""Geometry tests: projection round trips, epipolar identities, approximations."""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from dynmask.geometry import (MIN_DEPTH, CameraModel, epipolar_residual_batch,
                              essential_from_poses, pixel_rays,
                              project_points, skew, unproject_pixels)
from oracles import (BehindCameraError, epipolar_residual, project_dynamic,
                     project_dynamic_batch, project_dynamic_world_batch,
                     project_rigid, project_rigid_batch, residual_first_order)


def _camera(fx=76.8, fy=76.8, cx=32.0, cy=24.0, R=None, t=(0, 0, 0)):
    return CameraModel(fx=fx, fy=fy, cx=cx, cy=cy,
                       R=np.eye(3) if R is None else R, t=np.asarray(t, float))


def _random_camera(gen, spread=1.0):
    R = Rotation.random(random_state=int(gen.integers(1 << 31))).as_matrix()
    t = gen.uniform(-spread, spread, 3)
    return _camera(R=R, t=t)


def _relative_pose(ref, tgt):
    """(R_rel, t_rel) with X_tgt = R_rel @ X_ref + t_rel."""
    R_rel = tgt.R @ ref.R.T
    return R_rel, tgt.t - R_rel @ ref.t


def _relative_warp(pixels, depths, ref, tgt, motions):
    """Oracle two-view warp K [R_rel (d K^-1 x) + t_rel + M] -> (uv, z).

    Composes the relative pose instead of passing through the world frame,
    with M the per-point motion in the target camera frame.
    """
    R_rel, t_rel = _relative_pose(ref, tgt)
    homo = np.column_stack([pixels, np.ones(len(pixels))])
    cam_pts = (homo @ np.linalg.inv(ref.K).T) * depths[:, None]
    proj = (cam_pts @ R_rel.T + t_rel + motions) @ tgt.K.T
    return proj[:, :2] / proj[:, 2:], proj[:, 2]


class TestCameraModel:
    def test_rejects_non_orthonormal(self):
        R = np.eye(3)
        R[0, 0] = 2.0
        with pytest.raises(ValueError, match="orthonormal"):
            _camera(R=R)

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="determinant"):
            _camera(R=R)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_rotation(self, value):
        R = np.eye(3)
        R[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            _camera(R=R)

    def test_rejects_bad_focal(self):
        with pytest.raises(ValueError, match="focal"):
            _camera(fx=-1.0)

    def test_center(self):
        gen = np.random.default_rng(42)
        cam = _random_camera(gen)
        np.testing.assert_allclose(cam.R @ cam.center + cam.t, 0.0, atol=1e-12)

    def test_k_inverse(self):
        cam = _camera(fx=100.0, fy=80.0, cx=31.5, cy=17.0)
        np.testing.assert_allclose(cam.K @ cam.K_inv, np.eye(3), atol=1e-12)
        # pixel_rays applies K^-1 and leaves every ray at depth 1
        uv = np.random.default_rng(3).uniform(-10, 70, (40, 2))
        rays = pixel_rays(uv, cam)
        np.testing.assert_array_equal(rays[:, 2], 1.0)
        np.testing.assert_allclose(rays @ cam.K.T,
                                   np.column_stack([uv, np.ones(40)]),
                                   atol=1e-12)

    def test_principal_point_on_axis(self):
        # the principal point pixel unprojects straight down the optical axis
        cam = _camera()
        np.testing.assert_array_equal(pixel_rays([[cam.cx, cam.cy]], cam),
                                      [[0.0, 0.0, 1.0]])
        pt = unproject_pixels([[cam.cx, cam.cy]], [2.5], cam)[0]
        np.testing.assert_allclose(cam.world_to_camera(pt), [0.0, 0.0, 2.5],
                                   atol=1e-12)


class TestProjection:
    def test_unproject_project_round_trip(self):
        gen = np.random.default_rng(42)
        cam = _random_camera(gen)
        uv = gen.uniform(0, 60, (50, 2))
        depth = gen.uniform(0.5, 8.0, 50)
        world = unproject_pixels(uv, depth, cam)
        uv2, z2 = project_points(world, cam)
        np.testing.assert_allclose(uv2, uv, atol=1e-9)
        np.testing.assert_allclose(z2, depth, atol=1e-11)

    def test_identity_warp(self):
        cam = _camera()
        uv, z = project_rigid(np.array([11.0, 7.0]), 3.0, cam, cam)
        np.testing.assert_allclose(uv, [11.0, 7.0], atol=1e-12)
        assert z == pytest.approx(3.0)

    def test_pure_translation_shifts_pixels(self):
        # camera moving +x means the scene appears to move -x
        ref = _camera()
        tgt = _camera(t=(0.5, 0.0, 0.0))
        uv, z = project_rigid(np.array([32.0, 24.0]), 2.0, ref, tgt)
        assert uv[0] > 32.0  # t is world-to-camera, so points shift +u
        assert uv[1] == pytest.approx(24.0)
        assert z == pytest.approx(2.0)

    def test_known_translation_value(self):
        # point on axis at depth 2, camera frame shifted by t=(0.5,0,0):
        # camera coords (0.5, 0, 2) -> u = cx + fx * 0.25
        ref = _camera()
        tgt = _camera(t=(0.5, 0.0, 0.0))
        uv, _ = project_rigid(np.array([32.0, 24.0]), 2.0, ref, tgt)
        assert uv[0] == pytest.approx(32.0 + 76.8 * 0.25)

    def test_hand_computed_lateral_shift(self):
        # fx=fy=100, principal point (50,50), baseline 0.1 at depth 1:
        # disparity = fx * 0.1 / 1 = 10 pixels
        ref = _camera(fx=100.0, fy=100.0, cx=50.0, cy=50.0)
        tgt = _camera(fx=100.0, fy=100.0, cx=50.0, cy=50.0, t=(0.1, 0.0, 0.0))
        uv, z = project_rigid(np.array([50.0, 50.0]), 1.0, ref, tgt)
        np.testing.assert_allclose(uv, [60.0, 50.0], atol=1e-12)
        assert z == pytest.approx(1.0)

    def test_behind_camera_raises(self):
        ref = _camera()
        flipped = Rotation.from_euler("y", 180, degrees=True).as_matrix()
        tgt = _camera(R=flipped)
        with pytest.raises(BehindCameraError):
            project_rigid(np.array([32.0, 24.0]), 2.0, ref, tgt)

    def test_batch_keeps_negative_depth(self):
        ref = _camera()
        flipped = Rotation.from_euler("y", 180, degrees=True).as_matrix()
        tgt = _camera(R=flipped)
        uv, z = project_rigid_batch(np.array([[32.0, 24.0]]), [2.0], ref, tgt)
        assert z[0] < 0
        assert np.isfinite(uv).all()

    def test_projection_bits_match_broadcast_expression(self):
        # the column-wise translation and divide give the bits of the
        # broadcast expression, also behind the camera and at |z| <= MIN_DEPTH
        gen = np.random.default_rng(5)
        cam = _random_camera(gen, spread=2.0)
        pts = gen.normal(scale=3.0, size=(4096, 3))
        # camera-frame depths 0, +-MIN_DEPTH, +-MIN_DEPTH / 2 and negative
        near = cam.camera_to_world(np.column_stack([
            gen.normal(size=(7, 2)),
            [0.0, MIN_DEPTH, -MIN_DEPTH, MIN_DEPTH / 2, -MIN_DEPTH / 2,
             -1.0, -1e-3]]))
        pts = np.vstack([pts, near])
        cam_pts = pts @ cam.R.T + cam.t
        proj = cam_pts @ cam.K.T
        safe = np.where(np.abs(proj[:, 2]) > MIN_DEPTH, proj[:, 2], MIN_DEPTH)
        uv, z = project_points(pts, cam)
        np.testing.assert_array_equal(cam.world_to_camera(pts), cam_pts)
        np.testing.assert_array_equal(uv, proj[:, :2] / safe[:, None])
        np.testing.assert_array_equal(z, proj[:, 2])
        assert (np.abs(z) <= MIN_DEPTH).sum() >= 3 and (z < 0).any()

    def test_dynamic_equals_rigid_on_zero_motion(self):
        gen = np.random.default_rng(0)  # seed chosen so the point stays visible
        ref, tgt = _random_camera(gen, 0.3), _random_camera(gen, 0.3)
        pix = np.array([20.0, 30.0])
        uv_r, z_r = project_rigid(pix, 4.0, ref, tgt)
        uv_d, z_d = project_dynamic(pix, 4.0, ref, tgt, np.zeros(3))
        np.testing.assert_array_equal(uv_d, uv_r)  # identical code path
        assert z_d == z_r

    def test_dynamic_displacement_moves_projection(self):
        ref = _camera()
        tgt = _camera(t=(0.3, 0.0, 0.0))
        uv_r, _ = project_rigid(np.array([32.0, 24.0]), 2.0, ref, tgt)
        uv_d, _ = project_dynamic(np.array([32.0, 24.0]), 2.0, ref, tgt,
                                  np.array([0.1, 0.0, 0.0]))
        assert uv_d[0] > uv_r[0]

    def test_batch_warps_match_relative_pose_oracle(self):
        # the warps go through the world frame; the oracle composes the
        # relative pose, so the two share no arithmetic beyond K and R, t
        gen = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            ref, tgt = _random_camera(gen, 0.3), _random_camera(gen, 0.3)
            uv = gen.uniform(0, 64, (50, 2))
            depth = gen.uniform(1.0, 8.0, 50)
            disp = gen.uniform(-0.2, 0.2, (50, 3))
            motion = disp @ tgt.R.T
            cases = [
                (project_rigid_batch(uv, depth, ref, tgt), np.zeros((50, 3))),
                (project_dynamic_batch(uv, depth, ref, tgt, motion), motion),
                (project_dynamic_world_batch(uv, depth, ref, tgt, disp),
                 motion),
            ]
            for (got_uv, got_z), m in cases:
                want_uv, want_z = _relative_warp(uv, depth, ref, tgt, m)
                front = want_z > 0.5
                np.testing.assert_allclose(got_z, want_z, rtol=0, atol=1e-12)
                np.testing.assert_allclose(got_uv[front], want_uv[front],
                                           rtol=0, atol=1e-9)
                checked += int(front.sum())
        assert checked > 1000

    def test_world_displacement_maps_through_target_rotation(self):
        gen = np.random.default_rng(21)
        ref, tgt = _random_camera(gen, 0.2), _random_camera(gen, 0.2)
        pix = np.array([[25.0, 31.0]])
        disp_world = np.array([[0.05, -0.02, 0.03]])
        uv_w, z_w = project_dynamic_world_batch(pix, [3.0], ref, tgt, disp_world)
        uv_m, z_m = project_dynamic_batch(pix, [3.0], ref, tgt,
                                          (tgt.R @ disp_world[0]).reshape(1, 3))
        np.testing.assert_allclose(uv_w, uv_m, atol=1e-12)
        np.testing.assert_allclose(z_w, z_m, atol=1e-12)


class TestEssentialMatrix:
    def test_pure_translation_form(self):
        # identity rotations, t_rel = (1,0,0): E is the cross matrix of x-hat
        ref = _camera()
        tgt = _camera(t=(1.0, 0.0, 0.0))
        E = essential_from_poses(ref, tgt)
        np.testing.assert_allclose(E, skew([1.0, 0.0, 0.0]), atol=1e-12)

    def test_read_only_array(self):
        E = essential_from_poses(_camera(), _camera(t=(1.0, 0.0, 0.0)))
        assert isinstance(E, np.ndarray) and E.shape == (3, 3)
        with pytest.raises(ValueError, match="read-only"):
            E[0, 0] = 1.0

    def test_skew_is_cross_product(self):
        gen = np.random.default_rng(5)
        for _ in range(10):
            a, b = gen.standard_normal(3), gen.standard_normal(3)
            np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-12)

    def test_unit_baseline_scaling(self):
        # [t]x R with |t| = 1 has singular values (1, 1, 0) at any baseline
        ref = _camera()
        rot = Rotation.from_euler("y", 3.0, degrees=True).as_matrix()
        for baseline in (1e-3, 1.0, 1e3):
            tgt = _camera(R=rot, t=(0.0, baseline, 0.0))
            E = essential_from_poses(ref, tgt)
            assert np.linalg.norm(E) == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_degenerate_baseline(self):
        cam = _camera()
        with pytest.raises(ValueError, match="baseline"):
            essential_from_poses(cam, cam)

    def test_rank_two(self):
        gen = np.random.default_rng(8)
        ref, tgt = _random_camera(gen), _random_camera(gen)
        E = essential_from_poses(ref, tgt)
        s = np.linalg.svd(E, compute_uv=False)
        assert s[2] < 1e-12 * s[0]


class TestEpipolarResidual:
    def test_static_points_satisfy_constraint(self):
        gen = np.random.default_rng(42)
        for _ in range(20):
            ref, tgt = _random_camera(gen), _random_camera(gen)
            E = essential_from_poses(ref, tgt)
            uv_r = gen.uniform(5, 55, (30, 2))
            depth = gen.uniform(1.0, 9.0, 30)
            uv_t, z_t = project_rigid_batch(uv_r, depth, ref, tgt)
            keep = z_t > 1e-6
            if not keep.any():
                continue
            res = epipolar_residual_batch(uv_r[keep], uv_t[keep], E, ref)
            np.testing.assert_allclose(res, 0.0, atol=1e-10)

    def test_moving_point_violates_constraint(self):
        ref = _camera()
        tgt = _camera(t=(0.4, 0.0, 0.0))
        E = essential_from_poses(ref, tgt)
        pix = np.array([30.0, 20.0])
        # motion with a component out of the epipolar plane
        uv_t, _ = project_dynamic(pix, 2.0, ref, tgt, np.array([0.0, 0.15, 0.0]))
        delta = epipolar_residual(pix, uv_t, E, ref)
        assert abs(delta) > 1e-4

    def test_in_plane_motion_is_invisible(self):
        # motion inside the epipolar plane leaves the residual at zero:
        # for a lateral baseline along x, the plane of an on-axis ray is y=0
        ref = _camera()
        tgt = _camera(t=(0.4, 0.0, 0.0))
        E = essential_from_poses(ref, tgt)
        pix = np.array([32.0, 24.0])
        uv_t, _ = project_dynamic(pix, 2.0, ref, tgt, np.array([0.3, 0.0, 0.4]))
        assert abs(epipolar_residual(pix, uv_t, E, ref)) < 1e-12

    def test_exact_identity_against_oracle(self):
        # residual of a moved point equals (M . l) / z_t with l = E x_r
        gen = np.random.default_rng(77)
        hits = 0
        while hits < 25:
            ref, tgt = _random_camera(gen, 0.8), _random_camera(gen, 0.8)
            E = essential_from_poses(ref, tgt)
            pix = gen.uniform(5, 55, 2)
            depth = float(gen.uniform(1.5, 6.0))
            motion = gen.uniform(-0.2, 0.2, 3)
            try:
                uv_t, z_t = project_dynamic(pix, depth, ref, tgt, motion)
            except BehindCameraError:
                continue
            hits += 1
            x_hat = ref.K_inv @ np.array([pix[0], pix[1], 1.0])
            line = E @ x_hat
            oracle = float(motion @ line) / z_t
            got = epipolar_residual(pix, uv_t, E, ref)
            np.testing.assert_allclose(got, oracle, rtol=1e-8, atol=1e-13)

    def test_scale_with_baseline_normalization(self):
        # doubling the physical baseline halves the unit-baseline residual
        # of a fixed in-camera displacement observed at the same pixel pair
        ref = _camera()
        for scale in (1.0, 2.0):
            tgt = _camera(t=(0.4 * scale, 0.0, 0.0))
            E = essential_from_poses(ref, tgt)
            np.testing.assert_allclose(np.linalg.norm(
                _relative_pose(ref, tgt)[1]), 0.4 * scale)


class TestFirstOrderApproximation:
    def test_lateral_track_within_band(self):
        # lateral baselines, moderate field of view (f = 1.2 * max(W, H)),
        # displacements well under scene depth: first-order estimate stays
        # within 15 percent of the exact unit-baseline residual
        gen = np.random.default_rng(42)
        w, h = 64, 48
        ref = _camera(fx=1.2 * w, fy=1.2 * w, cx=w / 2, cy=h / 2)
        checked = 0
        rel_errs = []
        while checked < 60:
            yaw = float(gen.uniform(-2.0, 2.0))
            R = Rotation.from_euler("y", yaw, degrees=True).as_matrix()
            t = np.array([gen.uniform(0.2, 0.6) * gen.choice([-1, 1]),
                          gen.uniform(-0.1, 0.1), 0.0])
            tgt = _camera(fx=1.2 * w, fy=1.2 * w, cx=w / 2, cy=h / 2, R=R, t=t)
            pix = gen.uniform([4, 4], [w - 4, h - 4])
            depth = float(gen.uniform(2.0, 8.0))
            disp = gen.uniform(-1, 1, 3)
            disp *= 0.04 * depth / np.linalg.norm(disp)
            motion = tgt.R @ disp  # world displacement seen by target camera
            try:
                uv_t, _ = project_dynamic(pix, depth, ref, tgt, motion)
            except BehindCameraError:
                continue
            E = essential_from_poses(ref, tgt)
            exact = epipolar_residual(pix, uv_t, E, ref)
            if abs(exact) < 1e-6:  # motion nearly inside the epipolar plane
                continue
            approx = residual_first_order(pix, depth, ref, tgt, motion)
            rel_errs.append(abs(approx - exact) / abs(exact))
            checked += 1
        assert max(rel_errs) < 0.15

    def test_sign_agreement(self):
        ref = _camera()
        tgt = _camera(t=(0.4, 0.0, 0.0))
        pix = np.array([30.0, 20.0])
        for dy in (0.1, -0.1):
            disp = np.array([0.0, dy, 0.0])
            uv_t, _ = project_dynamic(pix, 2.0, ref, tgt, disp)
            E = essential_from_poses(ref, tgt)
            exact = epipolar_residual(pix, uv_t, E, ref)
            approx = residual_first_order(pix, 2.0, ref, tgt, disp)
            assert np.sign(exact) == np.sign(approx)

    def test_error_shrinks_with_displacement(self):
        # the estimate is first order: shrinking the motion shrinks the
        # relative error (dominated by the depth-change term)
        ref = _camera()
        tgt = _camera(t=(0.4, 0.05, 0.0))
        pix = np.array([40.0, 28.0])
        errs = []
        for scale in (0.2, 0.02):
            disp = np.array([0.01, 0.05, 0.08]) * scale
            uv_t, _ = project_dynamic(pix, 3.0, ref, tgt, disp)
            E = essential_from_poses(ref, tgt)
            exact = epipolar_residual(pix, uv_t, E, ref)
            approx = residual_first_order(pix, 3.0, ref, tgt, disp)
            errs.append(abs(approx - exact) / abs(exact))
        assert errs[1] < errs[0]
