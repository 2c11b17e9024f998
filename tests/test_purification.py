"""Point-cloud purification tests with a brute-force neighborhood oracle."""

import struct
import tracemalloc

import numpy as np
import pytest

from dynmask import purification, synthetic
from dynmask.crossview import activate_confidence, refine_masks
from dynmask.geometry import CameraModel, project_points
from dynmask.purification import (DEFAULT_R_FACTOR, DEFAULT_TAU,
                                  DynamicPointCloud, _outright_alive,
                                  build_index, mask_from_cloud, purify,
                                  radius_neighbors, read_ply, scene_diagonal,
                                  unproject_mask, write_ply)
from dynmask.tensor_io import SceneBundle


def _cloud(points, alive=None, pixel_ids=None, saliencies=None):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(points)
    return DynamicPointCloud(
        positions=points,
        pixel_ids=np.zeros(n, dtype=np.int64) if pixel_ids is None
        else np.asarray(pixel_ids, dtype=np.int64),
        saliencies=np.ones(n) if saliencies is None else np.asarray(saliencies, float),
        alive=np.ones(n, dtype=bool) if alive is None else np.asarray(alive, bool),
    )


def _brute_counts(points, r):
    """O(N^2) reference: inclusive radius, self excluded."""
    points = np.asarray(points, dtype=np.float64)
    counts = np.zeros(len(points), dtype=np.int64)
    for i in range(len(points)):
        d2 = ((points - points[i]) ** 2).sum(axis=1)
        counts[i] = int(np.count_nonzero(d2 <= r * r)) - 1
    return counts


def _count_queries(monkeypatch):
    """Spy on `radius_neighbors` as purify calls it; returns the ids asked."""
    asked = []
    real = purification.radius_neighbors

    def spy(cloud, index, i, r):
        asked.extend(np.atleast_1d(i).tolist())
        return real(cloud, index, i, r)

    monkeypatch.setattr(purification, "radius_neighbors", spy)
    return asked


def _dense_ball(n, radius, seed):
    gen = np.random.default_rng(seed)
    dirs = gen.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * gen.random(n) ** (1 / 3)
    return dirs * radii[:, None] + [5.0, 5.0, 5.0]


def _no_pool(*args, **kwargs):
    raise AssertionError("purify started a thread pool")


def _lifted_corpus_cloud():
    """Corpus member 0's movers plus scattered pixels, lifted: the grid
    proves the movers' interiors dense and leaves the scatter open."""
    bundle, gt = synthetic.generate(synthetic.corpus_specs(1)[0])
    gen = np.random.default_rng(5)
    masks = (gt.instances >= 0) | (gen.random(gt.instances.shape) > 0.9)
    return unproject_mask(bundle, masks)


def _lifted_empty():
    """The zero-point cloud that an all-false mask lifts to."""
    bundle = _bundle()
    return unproject_mask(bundle, np.zeros(bundle.depths.shape, bool))


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
        idx = build_index(cloud)
        assert radius_neighbors(cloud, idx, 0, 1.0) == 0

    def test_exact_boundary_inclusive(self):
        cloud = _cloud([[0, 0, 0], [1.0, 0, 0]])
        idx = build_index(cloud)
        assert radius_neighbors(cloud, idx, 0, 1.0) == 1
        assert radius_neighbors(cloud, idx, 1, 1.0) == 1

    def test_matches_brute_force_random(self):
        gen = np.random.default_rng(42)
        for n, r in [(100, 0.3), (1000, 0.15), (1000, 0.6)]:
            pts = gen.random((n, 3))
            cloud = _cloud(pts)
            idx = build_index(cloud)
            expect = _brute_counts(pts, r)
            got = np.array([radius_neighbors(cloud, idx, i, r) for i in range(n)])
            np.testing.assert_array_equal(got, expect)

    def test_index_array_matches_single_calls(self):
        # purify counts with one call over an index array
        gen = np.random.default_rng(7)
        pts = gen.random((400, 3))
        cloud = _cloud(pts)
        idx = build_index(cloud)
        ids = gen.permutation(400)[:250]
        got = radius_neighbors(cloud, idx, ids, 0.2)
        single = [radius_neighbors(cloud, idx, int(i), 0.2) for i in ids]
        np.testing.assert_array_equal(got, single)
        np.testing.assert_array_equal(got, _brute_counts(pts, 0.2)[ids])
        assert isinstance(single[0], int)

    def test_radius_validation(self):
        cloud = _cloud([[0, 0, 0]])
        idx = build_index(cloud)
        with pytest.raises(ValueError):
            radius_neighbors(cloud, idx, 0, 0.0)

    def test_negative_coordinates(self):
        # a pair straddling the origin still counts
        cloud = _cloud([[-0.05, -0.05, -0.05], [0.05, 0.05, 0.05]])
        idx = build_index(cloud)
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
        assert scene_diagonal(_lifted_empty()) == 0.0


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
        assert purify(_lifted_empty(), tau=16).alive_count == 0
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

    @pytest.mark.parametrize("tau", [1, 16, 40, 178])
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
        r = 1.0
        cloud = _cloud(_dense_ball(60_000, 1e-3 * r, seed=13))
        tracemalloc.start()
        try:
            out = purify(cloud, tau=16, radius=r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.alive.all()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("tau, kept", [(60_000, False), (59_999, True)])
    def test_dense_ball_decided_without_counting(self, tau, kept,
                                                 monkeypatch):
        # 60k points have at most 59,999 others each: at tau 60000 all die
        # unseen, at tau 59999 the grid proves every point dense; counting
        # them through the k-d tree would walk 60k neighbours per point
        asked = _count_queries(monkeypatch)
        cloud = _cloud(_dense_ball(60_000, 1e-3, seed=13))
        out = purify(cloud, tau=tau, radius=1.0)
        assert out.alive.all() if kept else not out.alive.any()
        assert asked == []

    def test_blob_mostly_decided_by_grid(self, monkeypatch):
        # a uniform ball of radius 3r: about 5 points per r/2 cell, so no
        # cell alone proves tau = 16, yet with its adjacent cells nearly
        # every point does; only the rim is left for the k-d tree
        asked = _count_queries(monkeypatch)
        r = 1.0
        pts = _dense_ball(5000, 3 * r, seed=14)
        cells = np.floor((pts - pts.min(axis=0)) / (r / 2))
        assert np.unique(cells, axis=0, return_counts=True)[1].max() <= 16
        out = purify(_cloud(pts), tau=16, radius=r)
        np.testing.assert_array_equal(out.alive, _brute_counts(pts, r) >= 16)
        assert len(asked) <= 0.05 * len(pts)

    @pytest.mark.parametrize("tau", [1, 6, 26])
    def test_lattice_on_cell_corners_matches_brute_force(self, tau):
        # spacing r/2 puts every point on a cell corner, where key rounding
        # decides its cell: a neighbour one step down sits on the far
        # corner of its cell, and points two steps apart are r apart in
        # exact arithmetic
        r = 0.3
        axis = 1.7 + np.arange(7) * (r / 2)
        pts = np.stack(np.meshgrid(axis, axis - 4.1, axis + 0.9,
                                   indexing="ij"), axis=-1).reshape(-1, 3)
        out = purify(_cloud(pts), tau=tau, radius=r)
        np.testing.assert_array_equal(out.alive, _brute_counts(pts, r) >= tau)

    @pytest.mark.parametrize("far2, decided", [(4 * (1 - 1e-7), False),
                                               (4 * (1 - 1e-5), True)])
    def test_far_corner_margin(self, far2, decided, monkeypatch):
        # cells are 0.5 wide (r = 1); p sits in cell (1, 1, 1) at fraction
        # (fx, 0.5, 0.5), and 20 points sit well within r in cell (2, 1, 1),
        # whose far corner from p is sqrt(far2) cells away.  Within the
        # 1e-6 margin of r the grid leaves p to the k-d tree; clear of it,
        # the grid counts the cell and keeps p unasked
        asked = _count_queries(monkeypatch)
        fx = 2 - np.sqrt(far2 - 0.5)
        p = 0.5 * np.array([1 + fx, 1.5, 1.5])
        block = np.tile(0.5 * np.array([2.5, 1.5, 1.5]), (20, 1))
        pts = np.vstack([[0.0, 0.0, 0.0], p, block])
        out = purify(_cloud(pts), tau=20, radius=1.0)
        np.testing.assert_array_equal(out.alive, _brute_counts(pts, 1.0) >= 20)
        assert out.alive[1]
        assert (1 in asked) != decided

    def test_same_verdicts_on_any_number_of_workers(self, monkeypatch):
        # one worker counts the open points in one call; two or more split
        # them into two contiguous halves, one per thread, in id order
        cloud = _lifted_corpus_cloud()
        r = DEFAULT_R_FACTOR * scene_diagonal(cloud)
        decided = _outright_alive(cloud.positions, r, DEFAULT_TAU)
        assert decided.any() and not decided.all()
        want = _brute_counts(cloud.positions, r) >= DEFAULT_TAU
        calls = []
        real = purification.radius_neighbors

        def spy(cloud, index, i, r):
            calls.append(i)
            return real(cloud, index, i, r)

        monkeypatch.setattr(purification, "radius_neighbors", spy)
        for workers, halves in [(1, 1), (2, 2), (3, 2)]:
            monkeypatch.setattr(purification, "_WORKERS", workers)
            calls.clear()
            np.testing.assert_array_equal(purify(cloud).alive, want)
            assert len(calls) == halves
            np.testing.assert_array_equal(np.sort(np.concatenate(calls)),
                                          np.flatnonzero(~decided))
            assert max(map(len, calls)) - min(map(len, calls)) <= 1

    def test_one_worker_creates_no_pool(self, monkeypatch):
        cloud = _lifted_corpus_cloud()
        want = purify(cloud).alive
        monkeypatch.setattr(purification, "_WORKERS", 1)
        monkeypatch.setattr(purification, "ThreadPoolExecutor", _no_pool)
        np.testing.assert_array_equal(purify(cloud).alive, want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_and_grid_decided_clouds(self, workers, monkeypatch):
        # 16 points in one cell: with tau 16 no point has tau others, which
        # needs no grid, tree or pool; with tau 15 the grid proves every
        # point dense, and a tree built beside it is never asked
        monkeypatch.setattr(purification, "_WORKERS", workers)
        asked = _count_queries(monkeypatch)
        pts = _dense_ball(16, 1e-3, seed=15)
        with monkeypatch.context() as patch:
            patch.setattr(purification, "ThreadPoolExecutor", _no_pool)
            assert not purify(_cloud(pts), tau=16, radius=1.0).alive.any()
        assert _outright_alive(pts, 1.0, 15).all()
        assert purify(_cloud(pts), tau=15, radius=1.0).alive.all()
        assert asked == []

    def test_non_finite_radius_rejected(self):
        cloud = _cloud([[0, 0, 0], [1, 0, 0]])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                purify(cloud, tau=1, radius=bad)
        # an infinite coordinate makes the adaptive radius infinite
        with pytest.raises(ValueError, match="finite"):
            purify(_cloud([[0, 0, 0], [np.inf, 0, 0]]), tau=1)

    def test_dead_point_rejected(self):
        # purify takes a lifted cloud, every point alive
        pts = [[0, 0, 0], [0.001, 0, 0], [0.002, 0, 0], [8, 8, 8]]
        cloud = _cloud(pts, alive=[True, False, True, True])
        with pytest.raises(ValueError, match="not one with 1 dead"):
            purify(cloud, tau=1, radius=0.01)


class TestUnprojectAndRasterize:
    def test_empty_mask(self):
        # an all-false mask lifts to a zero-point cloud that every stage
        # passes through unchanged
        bundle = _bundle()
        masks = np.zeros((bundle.frames, bundle.height, bundle.width), bool)
        cloud = unproject_mask(bundle, masks)
        assert cloud.positions.shape == (0, 3)
        assert cloud.pixel_ids.shape == (0,)
        assert cloud.pixel_ids.dtype == np.int64
        assert cloud.saliencies.shape == cloud.alive.shape == (0,)
        refined, relabeled = refine_masks(
            cloud, bundle, activate_confidence(bundle.confidence_logits))
        for out in (purify(cloud, tau=0), relabeled):
            assert out.positions.shape == (0, 3) and len(out.alive) == 0
            assert out.pixel_ids is cloud.pixel_ids
        np.testing.assert_array_equal(mask_from_cloud(cloud, bundle), masks)
        np.testing.assert_array_equal(refined, masks)

    def test_pixel_ids_frame_major(self):
        # strictly increasing: frame-major, then row-major within a frame
        gen = np.random.default_rng(12)
        bundle = _bundle(frames=3, seed=13)
        masks = gen.random(bundle.depths.shape) > 0.5
        bundle.depths[1, 2, :] = 0.0
        cloud = unproject_mask(bundle, masks)
        assert cloud.pixel_ids.dtype == np.int64
        assert (np.diff(cloud.pixel_ids) > 0).all()
        expect = [(f, row, col) for f in range(3)
                  for row in range(bundle.height)
                  for col in range(bundle.width)
                  if masks[f, row, col] and bundle.depths[f, row, col] > 0]
        got = np.unravel_index(cloud.pixel_ids, masks.shape)
        assert list(zip(*(a.tolist() for a in got))) == expect

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
        assert np.ravel_multi_index((0, 2, 3), masks.shape) not in cloud.pixel_ids

    def test_reprojection_round_trip(self):
        gen = np.random.default_rng(8)
        bundle = _bundle(frames=2, seed=9)
        bundle.depths[:] = gen.uniform(1.0, 5.0, bundle.depths.shape).astype(np.float32)
        masks = gen.random((2, bundle.height, bundle.width)) > 0.5
        cloud = unproject_mask(bundle, masks)
        frames, rows, cols = np.unravel_index(cloud.pixel_ids, masks.shape)
        for f in range(2):
            sel = frames == f
            uv, z = project_points(cloud.positions[sel], bundle.cameras[f])
            expect = np.column_stack([cols[sel], rows[sel]])  # (u, v)
            np.testing.assert_allclose(uv, expect, atol=1e-4)
            np.testing.assert_allclose(z, bundle.depths[f][rows[sel], cols[sel]],
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
        shape = (bundle.frames, bundle.height, bundle.width)
        cloud = _cloud([[0, 0, 2.0]], pixel_ids=[np.ravel_multi_index(
            (2, 10 % bundle.height, 20 % bundle.width), shape)])
        out = mask_from_cloud(cloud, bundle)
        assert out.sum() == 1
        assert out[2, 10 % bundle.height, 20 % bundle.width]


PLY_HEADER = (b"ply\nformat binary_little_endian 1.0\nelement vertex %d\n"
              b"property double x\nproperty double y\nproperty double z\n"
              b"property double saliency\nproperty uchar alive\nend_header\n")


def test_write_ply(tmp_path):
    cloud = _cloud([[1.5, -2.0, 3.25], [0, 0, 1]], alive=[True, False],
                   saliencies=[0.5, 1.0])
    p = tmp_path / "cloud.ply"
    write_ply(cloud, p)
    # standard binary PLY: little-endian doubles then one byte, 33 bytes
    assert p.read_bytes() == (PLY_HEADER % 2
                              + struct.pack("<ddddB", 1.5, -2.0, 3.25, 0.5, 1)
                              + struct.pack("<ddddB", 0.0, 0.0, 1.0, 1.0, 0))


# a two-point cloud in the ASCII layout that earlier versions wrote
ASCII_PLY_LINES = [b"ply", b"format ascii 1.0", b"element vertex 2",
                   b"property float x", b"property float y",
                   b"property float z", b"property float saliency",
                   b"property uchar alive", b"end_header",
                   b"1.5 -2 3.25 1 1", b"0 0 1 1 1"]


class TestPlyRoundTrip:
    def _assert_exact(self, path, cloud):
        positions, saliencies, alive = read_ply(path)
        np.testing.assert_array_equal(positions, cloud.positions)
        np.testing.assert_array_equal(saliencies, cloud.saliencies)
        np.testing.assert_array_equal(alive, cloud.alive)
        assert positions.shape == (len(cloud), 3) and alive.dtype == bool

    def test_round_trip(self, tmp_path):
        gen = np.random.default_rng(4)
        # values that %.9g text would round, and extremes
        points = gen.normal(size=(50, 3)) * 10.0 ** gen.integers(-8, 8, (50, 1))
        points[0] = [np.pi, -1e-300, 1e300]
        cloud = _cloud(points, alive=gen.random(50) > 0.5,
                       saliencies=gen.random(50))
        write_ply(cloud, tmp_path / "cloud.ply")
        self._assert_exact(tmp_path / "cloud.ply", cloud)
        assert [f.name for f in tmp_path.iterdir()] == ["cloud.ply"]

    def test_single_point(self, tmp_path):
        cloud = _cloud([[1.5, -2.0, 3.25]], saliencies=[0.1])
        write_ply(cloud, tmp_path / "c.ply")
        self._assert_exact(tmp_path / "c.ply", cloud)

    def test_empty_cloud(self, tmp_path):
        cloud = _lifted_empty()
        write_ply(cloud, tmp_path / "c.ply")
        assert (tmp_path / "c.ply").read_bytes() == PLY_HEADER % 0
        self._assert_exact(tmp_path / "c.ply", cloud)

    @pytest.mark.parametrize("edit, message", [
        (lambda head, body: ([b"plx"] + head[1:], body), "not a PLY file"),
        (lambda head, body: (head[:1] + [b"format binary_big_endian 1.0"]
                             + head[2:], body), "binary_little_endian"),
        (lambda head, body: (head[:2] + [b"element face 2"] + head[3:], body),
         "vertex element"),
        (lambda head, body: (head[:3] + [b"property float x"] + head[4:],
                             body), "header line 4"),
        (lambda head, body: (head[:8] + [b"property uchar verdict"]
                             + head[8:], body[:33] + b"\0" + body[33:] + b"\0"),
         "header line 9"),
        (lambda head, body: (head[:8] + [b"end"], body), "header line 9"),
        (lambda head, body: (head[:5], b""), "header line 6"),
        (lambda head, body: (head, body[:33]), "the body has 33"),
        (lambda head, body: (head, body[:-5]), "the body has 61"),
        (lambda head, body: (head, body + b"\n"), "the body has 67"),
        (lambda head, body: (ASCII_PLY_LINES, b""),
         "binary_little_endian.*dynmask mask"),
    ], ids=["magic", "format", "element", "property-type", "extra-column",
            "end-header", "truncated-header", "missing-row", "ragged-row",
            "trailing-bytes", "ascii"])
    def test_malformed_rejected(self, tmp_path, edit, message):
        p = tmp_path / "c.ply"
        write_ply(_cloud([[1.5, -2.0, 3.25], [0, 0, 1]]), p)
        *head, body = p.read_bytes().split(b"\n", 9)
        head, body = edit(head, body)
        p.write_bytes(b"\n".join(head) + b"\n" + body)
        with pytest.raises(ValueError, match=message):
            read_ply(p)
