"""Point-cloud purification tests with a brute-force neighborhood oracle."""

import tracemalloc

import numpy as np
import pytest

from dynmask.geometry import CameraModel, project_points
from dynmask.purification import (DynamicPointCloud, _outright_alive,
                                  build_index, mask_from_cloud, purify,
                                  radius_neighbors, read_ply, scene_diagonal,
                                  unproject_mask, write_ply)
from dynmask.tensor_io import SceneBundle


def _cloud(points, alive=None, frames=None, pixels=None, saliencies=None):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(points)
    return DynamicPointCloud(
        positions=points,
        frame_indices=np.zeros(n, dtype=np.int32) if frames is None
        else np.asarray(frames, dtype=np.int32),
        pixels=np.zeros((n, 2), dtype=np.int32) if pixels is None
        else np.asarray(pixels, dtype=np.int32),
        saliencies=np.ones(n) if saliencies is None else np.asarray(saliencies, float),
        alive=np.ones(n, dtype=bool) if alive is None else np.asarray(alive, bool),
    )


def _brute_counts(points, r, alive=None):
    """O(N^2) reference: inclusive radius, self excluded, alive only."""
    points = np.asarray(points, dtype=np.float64)
    alive = np.ones(len(points), bool) if alive is None else np.asarray(alive)
    counts = np.zeros(len(points), dtype=np.int64)
    for i in range(len(points)):
        if not alive[i]:
            continue
        d2 = ((points - points[i]) ** 2).sum(axis=1)
        counts[i] = int(np.count_nonzero((d2 <= r * r) & alive)) - 1
    return counts


def _bundle(frames=2, h=6, w=8, seed=0, depth_value=2.0):
    gen = np.random.default_rng(seed)
    cams = [CameraModel(fx=12.0, fy=12.0, cx=w / 2, cy=h / 2,
                        R=np.eye(3), t=np.array([0.2 * f, 0.0, 0.0]))
            for f in range(frames)]
    depths = np.full((frames, h, w), depth_value, dtype=np.float32)
    return SceneBundle(
        images=gen.random((frames, h, w, 3)).astype(np.float32),
        depths=depths,
        confidence_logits=np.zeros((frames, h, w), dtype=np.float32),
        attention=gen.random((frames, 2, h // 2, w // 2)).astype(np.float32),
        cameras=cams, patch=2)


class TestRadiusNeighbors:
    def test_isolated_point(self):
        cloud = _cloud([[0, 0, 0], [10, 10, 10]])
        idx = build_index(cloud, r=1.0)
        assert radius_neighbors(cloud, idx, 0, 1.0) == 0

    def test_exact_boundary_inclusive(self):
        cloud = _cloud([[0, 0, 0], [1.0, 0, 0]])
        idx = build_index(cloud, r=1.0)
        assert radius_neighbors(cloud, idx, 0, 1.0) == 1
        assert radius_neighbors(cloud, idx, 1, 1.0) == 1

    def test_matches_brute_force_random(self):
        gen = np.random.default_rng(42)
        for n, r in [(100, 0.3), (1000, 0.15), (1000, 0.6)]:
            pts = gen.random((n, 3))
            cloud = _cloud(pts)
            idx = build_index(cloud, r=r)
            expect = _brute_counts(pts, r)
            got = np.array([radius_neighbors(cloud, idx, i, r) for i in range(n)])
            np.testing.assert_array_equal(got, expect)

    def test_index_array_matches_single_calls(self):
        # purify counts with one call over an index array; dead points in
        # the array do not count themselves
        gen = np.random.default_rng(7)
        pts = gen.random((400, 3))
        alive = gen.random(400) > 0.2
        cloud = _cloud(pts, alive=alive)
        idx = build_index(cloud, r=0.2)
        ids = gen.permutation(400)[:250]
        got = radius_neighbors(cloud, idx, ids, 0.2)
        single = [radius_neighbors(cloud, idx, int(i), 0.2) for i in ids]
        np.testing.assert_array_equal(got, single)
        brute = np.array([
            np.count_nonzero(alive & (((pts - pts[i]) ** 2).sum(axis=1)
                                      <= 0.04)) - int(alive[i])
            for i in ids])
        np.testing.assert_array_equal(got, brute)
        assert isinstance(single[0], int)

    def test_dead_points_excluded(self):
        pts = [[0, 0, 0], [0.1, 0, 0], [0.2, 0, 0]]
        cloud = _cloud(pts, alive=[True, False, True])
        idx = build_index(cloud, r=1.0)
        assert radius_neighbors(cloud, idx, 0, 1.0) == 1

    def test_radius_validation(self):
        cloud = _cloud([[0, 0, 0]])
        idx = build_index(cloud, r=1.0)
        with pytest.raises(ValueError):
            radius_neighbors(cloud, idx, 0, 0.0)

    def test_negative_coordinates(self):
        # a pair straddling the origin still counts
        cloud = _cloud([[-0.05, -0.05, -0.05], [0.05, 0.05, 0.05]])
        idx = build_index(cloud, r=0.2)
        assert radius_neighbors(cloud, idx, 0, 0.2) == 1


class TestSceneDiagonal:
    def test_single_point(self):
        assert scene_diagonal(_cloud([[1, 2, 3]])) == 0.0

    def test_two_points(self):
        assert scene_diagonal(_cloud([[0, 0, 0], [1, 1, 1]])) == pytest.approx(np.sqrt(3))

    def test_unit_cube(self):
        corners = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        assert scene_diagonal(_cloud(corners)) == pytest.approx(np.sqrt(3))

    def test_empty(self):
        assert scene_diagonal(DynamicPointCloud.empty()) == 0.0

    def test_ignores_dead_points(self):
        cloud = _cloud([[0, 0, 0], [1, 1, 1], [99, 99, 99]],
                       alive=[True, True, False])
        assert scene_diagonal(cloud) == pytest.approx(np.sqrt(3))


class TestPurify:
    def test_outlier_removed_cluster_kept(self):
        gen = np.random.default_rng(42)
        cluster = gen.normal(0, 0.01, (64, 3))
        pts = np.vstack([cluster, [[5.0, 5.0, 5.0]]])
        out = purify(_cloud(pts), tau=16)
        assert out.alive[:64].all()
        assert not out.alive[64]

    def test_tau_zero_identity(self):
        gen = np.random.default_rng(1)
        cloud = _cloud(gen.random((50, 3)))
        out = purify(cloud, tau=0)
        assert out.alive.all()

    def test_exactly_tau_neighbors_inclusive(self):
        # 17 points inside one radius: every point has d_i = 16 >= tau = 16
        gen = np.random.default_rng(2)
        pts = gen.normal(0, 1e-4, (17, 3)) + [[0, 0, 5]]
        far = pts + [[100.0, 0, 0]]  # second cluster fixes the diagonal scale
        cloud = _cloud(np.vstack([pts, far]))
        out = purify(cloud, tau=16, r_factor=0.02)
        assert out.alive.all()
        # one fewer point fails the same threshold
        cloud16 = _cloud(np.vstack([pts[:16], far[:16]]))
        out16 = purify(cloud16, tau=16, r_factor=0.02)
        assert not out16.alive.any()

    def test_matches_brute_force_decisions(self):
        gen = np.random.default_rng(3)
        pts = gen.random((400, 3)) * [4, 1, 1]
        cloud = _cloud(pts)
        r = 0.02 * scene_diagonal(cloud)
        for tau in (0, 1, 4, 16):
            out = purify(cloud, tau=tau)
            expect = _brute_counts(pts, r) >= tau
            np.testing.assert_array_equal(out.alive, expect)

    def test_one_shot_not_iterative(self):
        # a chain where each link has exactly one neighbor: one-shot with
        # tau=1 keeps everything, whereas iterative erosion would not after
        # endpoints die; verify counts are against the pre-filter cloud
        pts = [[float(i), 0, 0] for i in range(5)] + [[99.0, 99, 99]]
        cloud = _cloud(pts)
        out = purify(cloud, tau=1, radius=1.0)
        assert out.alive[:5].all()
        assert not out.alive[5]

    def test_monotone_in_tau(self):
        gen = np.random.default_rng(4)
        cloud = _cloud(gen.random((300, 3)))
        prev = None
        for tau in (0, 2, 8, 32):
            survivors = purify(cloud, tau=tau).alive
            if prev is not None:
                assert np.all(~survivors | prev)  # survivors subset of prev
            prev = survivors

    def test_rigid_invariance_with_explicit_radius(self):
        from scipy.spatial.transform import Rotation
        gen = np.random.default_rng(5)
        pts = gen.random((200, 3))
        R = Rotation.random(random_state=6).as_matrix()
        moved = pts @ R.T + [10.0, -3.0, 7.0]
        a = purify(_cloud(pts), tau=4, radius=0.1)
        b = purify(_cloud(moved), tau=4, radius=0.1)
        np.testing.assert_array_equal(a.alive, b.alive)

    def test_order_independence(self):
        gen = np.random.default_rng(7)
        pts = gen.random((150, 3))
        perm = gen.permutation(150)
        a = purify(_cloud(pts), tau=3)
        b = purify(_cloud(pts[perm]), tau=3)
        np.testing.assert_array_equal(a.alive[perm], b.alive)

    def test_empty_and_single_point(self):
        assert purify(DynamicPointCloud.empty(), tau=16).alive_count == 0
        single = purify(_cloud([[1, 2, 3]]), tau=16)
        assert not single.alive.any()
        # tau=0 keeps even a lone point
        assert purify(_cloud([[1, 2, 3]]), tau=0).alive.all()

    def test_colocated_points_zero_radius(self):
        # degenerate diagonal: only exact duplicates support each other
        pts = np.zeros((17, 3))
        out = purify(_cloud(pts), tau=16)
        assert out.alive.all()

    def test_input_not_mutated(self):
        cloud = _cloud([[0, 0, 0], [50, 0, 0]])
        purify(cloud, tau=5)
        assert cloud.alive.all()

    @pytest.mark.parametrize("tau", [1, 16, 40])
    def test_clusters_and_noise_match_brute_force(self, tau):
        # tight clusters fill whole grid cells (kept outright); the sparse
        # noise and the cluster fringes go through the k-d tree counts
        gen = np.random.default_rng(12)
        centers = gen.uniform(0, 10, (12, 3))
        sizes = gen.integers(100, 400, len(centers))
        clusters = [c + gen.normal(0, 0.08, (n, 3))
                    for c, n in zip(centers, sizes)]
        noise = gen.uniform(-1, 11, (600, 3))
        pts = np.vstack(clusters + [noise])
        assert len(pts) >= 3000
        cloud = _cloud(pts)
        r = 0.02 * scene_diagonal(cloud)
        out = purify(cloud, tau=tau)
        np.testing.assert_array_equal(out.alive, _brute_counts(pts, r) >= tau)
        outright = _outright_alive(pts, r, tau)
        assert outright.any() and not outright.all()

    def test_exact_radius_pair_on_tree_path(self):
        # the pair sits in different cells, so only the k-d tree sees it
        pts = np.array([[0.0, 0, 0], [0.5, 0, 0], [40.0, 40, 40]])
        r = 0.5
        assert not _outright_alive(pts, r, 1).any()
        out = purify(_cloud(pts), tau=1, radius=r)
        np.testing.assert_array_equal(out.alive, [True, True, False])
        shy = purify(_cloud(pts), tau=1, radius=np.nextafter(r, 0))
        assert not shy.alive.any()

    def test_dense_ball_memory_bounded(self):
        # 60k points inside a ball of radius 1e-3 r: a pair scan would need
        # a 60k x 60k x 3 float64 temporary (~86 GB)
        gen = np.random.default_rng(13)
        r = 1.0
        dirs = gen.normal(size=(60_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = 1e-3 * r * gen.random(60_000) ** (1 / 3)
        pts = dirs * radii[:, None] + [5.0, 5.0, 5.0]
        cloud = _cloud(pts)
        tracemalloc.start()
        try:
            out = purify(cloud, tau=16, radius=r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.alive.all()
        assert peak < 64 * 2 ** 20

    def test_non_finite_radius_rejected(self):
        cloud = _cloud([[0, 0, 0], [1, 0, 0]])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                purify(cloud, tau=1, radius=bad)
        # an infinite coordinate makes the adaptive radius infinite
        with pytest.raises(ValueError, match="finite"):
            purify(_cloud([[0, 0, 0], [np.inf, 0, 0]]), tau=1)

    def test_dead_points_stay_dead_and_ignored(self):
        pts = [[0, 0, 0], [0.001, 0, 0], [0.002, 0, 0], [8, 8, 8]]
        cloud = _cloud(pts, alive=[True, False, True, True])
        out = purify(cloud, tau=1, radius=0.01)
        assert not out.alive[1]
        # dead middle point does not support its neighbors
        assert bool(out.alive[0]) == bool(out.alive[2])


class TestUnprojectAndRasterize:
    def test_empty_mask(self):
        bundle = _bundle()
        masks = np.zeros((bundle.frames, bundle.height, bundle.width), bool)
        assert len(unproject_mask(bundle, masks)) == 0

    def test_principal_point(self):
        bundle = _bundle(frames=1)
        cam = bundle.cameras[0]
        masks = np.zeros((1, bundle.height, bundle.width), bool)
        masks[0, int(cam.cy), int(cam.cx)] = True
        cloud = unproject_mask(bundle, masks)
        np.testing.assert_allclose(cloud.positions[0], [0, 0, 2.0], atol=1e-12)

    def test_invalid_depth_skipped(self):
        bundle = _bundle(frames=1)
        bundle.depths[0, 2, 3] = 0.0
        masks = np.ones((1, bundle.height, bundle.width), bool)
        cloud = unproject_mask(bundle, masks)
        assert len(cloud) == bundle.height * bundle.width - 1
        assert not any((cloud.pixels == [2, 3]).all(axis=1))

    def test_reprojection_round_trip(self):
        gen = np.random.default_rng(8)
        bundle = _bundle(frames=2, seed=9)
        bundle.depths[:] = gen.uniform(1.0, 5.0, bundle.depths.shape).astype(np.float32)
        masks = gen.random((2, bundle.height, bundle.width)) > 0.5
        cloud = unproject_mask(bundle, masks)
        for f in range(2):
            sel = cloud.frame_indices == f
            uv, z = project_points(cloud.positions[sel], bundle.cameras[f])
            expect = cloud.pixels[sel][:, ::-1]  # (row,col) -> (u,v)
            np.testing.assert_allclose(uv, expect, atol=1e-4)
            np.testing.assert_allclose(z, bundle.depths[f][cloud.pixels[sel, 0],
                                                           cloud.pixels[sel, 1]],
                                       rtol=1e-6)

    def test_saliency_carried(self):
        # saliency lives on the patch grid; a pixel carries its patch's value
        bundle = _bundle(frames=1)
        p = bundle.patch
        sal = np.zeros((1, bundle.height // p, bundle.width // p))
        sal[0, 1, 2] = 0.77
        masks = np.zeros((1, bundle.height, bundle.width), dtype=bool)
        masks[0, p + p - 1, 2 * p] = True
        masks[0, 0, 0] = True
        cloud = unproject_mask(bundle, masks, saliencies=sal)
        assert cloud.saliencies.tolist() == [0.0, 0.77]

    def test_mask_round_trip(self):
        gen = np.random.default_rng(10)
        bundle = _bundle(frames=3, seed=11)
        masks = gen.random((3, bundle.height, bundle.width)) > 0.6
        masks[1, 4, 4] = True
        bundle.depths[1, 4, 4] = 0.0  # invalid depth drops this pixel
        cloud = unproject_mask(bundle, masks)
        out = mask_from_cloud(purify(cloud, tau=0), bundle)
        expect = masks & (bundle.depths > 0)
        np.testing.assert_array_equal(out, expect)

    def test_single_point_rasterization(self):
        bundle = _bundle(frames=3)
        cloud = _cloud([[0, 0, 2.0]], frames=[2], pixels=[[10 % bundle.height, 20 % bundle.width]])
        out = mask_from_cloud(cloud, bundle)
        assert out.sum() == 1
        assert out[2, 10 % bundle.height, 20 % bundle.width]


def test_write_ply(tmp_path):
    cloud = _cloud([[1.5, -2.0, 3.25], [0, 0, 1]], alive=[True, False],
                   saliencies=[0.5, 1.0])
    p = tmp_path / "cloud.ply"
    write_ply(cloud, p)
    text = p.read_text().splitlines()
    assert text[0] == "ply"
    assert "element vertex 2" in text
    assert text[-2].split() == ["1.5", "-2", "3.25", "0.5", "1"]
    assert text[-1].split()[-1] == "0"


class TestPlyRoundTrip:
    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(4)
        cloud = _cloud(gen.normal(size=(50, 3)), alive=gen.random(50) > 0.5,
                       saliencies=gen.random(50))
        write_ply(cloud, tmp_path / "cloud.ply")
        positions, saliencies, alive = read_ply(tmp_path / "cloud.ply")
        np.testing.assert_allclose(positions, cloud.positions, rtol=1e-8)
        np.testing.assert_allclose(saliencies, cloud.saliencies, rtol=1e-8)
        np.testing.assert_array_equal(alive, cloud.alive)
        # the vectorised parse equals Python's float() line by line
        body = (tmp_path / "cloud.ply").read_text().splitlines()[9:]
        ref = np.array([[float(v) for v in line.split()] for line in body])
        np.testing.assert_array_equal(positions, ref[:, :3])
        np.testing.assert_array_equal(saliencies, ref[:, 3])
        assert [f.name for f in tmp_path.iterdir()] == ["cloud.ply"]

    def test_single_point(self, tmp_path):
        write_ply(_cloud([[1.5, -2.0, 3.25]]), tmp_path / "c.ply")
        positions, saliencies, alive = read_ply(tmp_path / "c.ply")
        assert positions.tolist() == [[1.5, -2.0, 3.25]]
        assert saliencies.tolist() == [1.0] and alive.tolist() == [True]

    def test_empty_cloud(self, tmp_path):
        write_ply(DynamicPointCloud.empty(), tmp_path / "c.ply")
        positions, saliencies, alive = read_ply(tmp_path / "c.ply")
        assert positions.shape == (0, 3)
        assert len(saliencies) == len(alive) == 0

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: ["plx"] + lines[1:], "not an ASCII PLY"),
        (lambda lines: lines[:2] + ["element face 2"] + lines[3:],
         "vertex element"),
        (lambda lines: lines[:8] + ["end"] + lines[9:], "header layout"),
        (lambda lines: lines[:5], "header layout"),
        (lambda lines: lines[:-1], "expected 2 vertices, found 1"),
        (lambda lines: lines[:-1] + ["0 0 1 1"], "columns"),
        (lambda lines: [ln + " 7" if ln[0].isdigit() else ln
                        for ln in lines], "5 properties"),
        (lambda lines: lines[:-1] + ["0 0 1 x 0"], "convert"),
    ], ids=["magic", "element", "end-header", "truncated-header",
            "missing-row", "ragged-row", "extra-column", "not-a-number"])
    def test_malformed_rejected(self, tmp_path, edit, message):
        p = tmp_path / "c.ply"
        write_ply(_cloud([[1.5, -2.0, 3.25], [0, 0, 1]]), p)
        p.write_text("\n".join(edit(p.read_text().splitlines())) + "\n")
        with pytest.raises(ValueError, match=message):
            read_ply(p)
