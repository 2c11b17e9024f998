"""Tests for segmentation and cloud metrics.

Oracles: hand-counted overlaps for Jaccard, an O(N^2) pixel matcher and
whole-frame distance transforms for the boundary measure, and a
brute-force distance matrix for cloud statistics.
"""

import numpy as np
import pytest
from scipy import ndimage

from dynmask import purification
from dynmask.evaluation import (DEFAULT_BOUNDARY_TOL, MetricReport,
                                boundary_f_frames, boundary_pixels,
                                cloud_metrics, evaluate_masks,
                                jaccard_frames, recall_fraction)
from oracles import boundary_f, boundary_f_frames_edt, jaccard_mean


def _blob(h, w, r0, c0, size):
    mask = np.zeros((h, w), dtype=bool)
    mask[r0:r0 + size, c0:c0 + size] = True
    return mask


class TestJaccard:
    def test_identical_masks_score_one(self):
        rng = np.random.default_rng(42)
        masks = rng.random((4, 16, 20)) > 0.6
        assert jaccard_mean(masks, masks) == 1.0

    def test_disjoint_masks_score_zero(self):
        pred = _blob(20, 30, 2, 2, 5)[None]
        gt = _blob(20, 30, 10, 20, 5)[None]
        assert jaccard_mean(pred, gt) == 0.0

    def test_half_overlap_squares(self):
        # 10x10 squares offset by 5 columns: overlap 50, union 150
        pred = _blob(30, 40, 5, 5, 10)[None]
        gt = _blob(30, 40, 5, 10, 10)[None]
        assert jaccard_mean(pred, gt) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_empty_union_scores_one(self):
        empty = np.zeros((3, 8, 8), dtype=bool)
        assert jaccard_mean(empty, empty) == 1.0

    def test_per_frame_series(self):
        pred = np.stack([_blob(20, 20, 2, 2, 5), np.zeros((20, 20), bool)])
        gt = np.stack([_blob(20, 20, 2, 2, 5), _blob(20, 20, 4, 4, 3)])
        j = jaccard_frames(pred, gt)
        assert j[0] == 1.0 and j[1] == 0.0

    def test_translation_invariance(self):
        pred = _blob(40, 40, 10, 10, 8)[None]
        gt = _blob(40, 40, 12, 11, 8)[None]
        base = jaccard_mean(pred, gt)
        shifted = jaccard_mean(np.roll(pred, (5, 3), axis=(1, 2)),
                               np.roll(gt, (5, 3), axis=(1, 2)))
        assert shifted == base

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            jaccard_mean(np.zeros((2, 4, 4), bool), np.zeros((2, 4, 5), bool))
        with pytest.raises(ValueError):
            jaccard_mean(np.zeros((4, 4), bool), np.zeros((4, 4), bool))


def _brute_boundary(mask):
    h, w = mask.shape
    out = np.zeros_like(mask)
    for i in range(h):
        for j in range(w):
            if not mask[i, j]:
                continue
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ni, nj = i + di, j + dj
                if ni < 0 or nj < 0 or ni >= h or nj >= w or not mask[ni, nj]:
                    out[i, j] = True
                    break
    return out


def _brute_f(pred, gt, tol):
    pb = np.argwhere(_brute_boundary(pred)).astype(np.float64)
    gb = np.argwhere(_brute_boundary(gt)).astype(np.float64)
    if len(pb) == 0 and len(gb) == 0:
        return 1.0
    if len(pb) == 0 or len(gb) == 0:
        return 0.0
    d = np.sqrt(((pb[:, None, :] - gb[None, :, :]) ** 2).sum(axis=-1))
    precision = (d.min(axis=1) <= tol).mean()
    recall = (d.min(axis=0) <= tol).mean()
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class TestBoundaryF:
    def test_identical_masks_score_one(self):
        mask = _blob(24, 24, 6, 6, 9)[None]
        assert boundary_f(mask, mask) == 1.0

    def test_one_pixel_shift_inside_tolerance(self):
        # diagonal of 256x256 is ~362, tolerance ~2.9 px, shift is 1 px
        pred = _blob(256, 256, 100, 100, 30)[None]
        gt = _blob(256, 256, 101, 100, 30)[None]
        assert boundary_f(pred, gt) == 1.0

    def test_empty_pred_nonempty_gt_scores_zero(self):
        pred = np.zeros((1, 20, 20), bool)
        gt = _blob(20, 20, 4, 4, 6)[None]
        assert boundary_f(pred, gt) == 0.0

    def test_both_empty_scores_one(self):
        empty = np.zeros((2, 10, 10), bool)
        assert boundary_f(empty, empty) == 1.0

    def test_boundary_pixels_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            mask = rng.random((18, 23)) > 0.6
            np.testing.assert_array_equal(boundary_pixels(mask),
                                          _brute_boundary(mask))

    def test_border_blob_has_boundary_at_edge(self):
        mask = np.zeros((10, 10), bool)
        mask[0:3, 0:3] = True
        b = boundary_pixels(mask)
        assert b[0, 0]  # image border counts as background

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        tol = 0.008 * float(np.hypot(26, 31))
        for _ in range(8):
            pred = rng.random((26, 31)) > 0.72
            gt = rng.random((26, 31)) > 0.72
            got = boundary_f_frames(pred[None], gt[None])[0]
            want = _brute_f(pred, gt, tol)
            assert got == pytest.approx(want, abs=1e-12)

    def test_far_apart_blobs_score_zero(self):
        pred = _blob(64, 64, 2, 2, 6)[None]
        gt = _blob(64, 64, 50, 50, 6)[None]
        assert boundary_f(pred, gt) == 0.0


def _smooth_blobs(rng, shape, level):
    """Random blobby masks: thresholded smoothed noise, so the contours
    run at every angle and many blobs touch the image border."""
    sigma = (0.0,) * (len(shape) - 2) + (2.0, 2.0)
    return ndimage.gaussian_filter(rng.random(shape), sigma) > level


class TestBoundaryAgainstDistanceTransform:
    """The contour-only measure equals the whole-frame EDT oracle exactly."""

    @pytest.mark.parametrize("h, w, tol, shift", [(150, 200, 2.0, (0, 2)),
                                                  (375, 500, 5.0, (3, 4))])
    def test_integer_tolerance_sits_on_offsets(self, h, w, tol, shift):
        # the shift lies exactly on the bound, so every contour pixel of a
        # disk and of the shifted disk is matched only through it
        assert DEFAULT_BOUNDARY_TOL * float(np.hypot(h, w)) == tol
        rng = np.random.default_rng(h)
        pred = _smooth_blobs(rng, (3, h, w), 0.5)
        gt = np.roll(pred, (3, 4), axis=(1, 2))
        rows, cols = np.ogrid[:h, :w]
        pred[1] = (rows - h / 2) ** 2 + (cols - w / 3) ** 2 < (h / 4) ** 2
        gt[1] = np.roll(pred[1], shift, axis=(0, 1))
        gt[2] = np.roll(pred[1], (shift[0], shift[1] + 1), axis=(0, 1))
        got = boundary_f_frames(pred, gt)
        assert np.array_equal(got, boundary_f_frames_edt(pred, gt))
        assert got[1] == 1.0 and got[2] < 1.0

    @pytest.mark.parametrize("h, w", [(240, 320), (72, 96), (150, 200),
                                      (375, 500), (1, 37), (29, 1), (1, 1)])
    def test_random_and_blob_masks(self, h, w):
        rng = np.random.default_rng(h * 1000 + w)
        sparse = rng.random((2, h, w)) > 0.7
        dense = rng.random((2, h, w)) > 0.3
        blobs, blobs2 = _smooth_blobs(rng, (2, 2, h, w), 0.5)
        for pred, gt in ((sparse, dense), (blobs, blobs2), (sparse, blobs),
                         (blobs, dense)):
            assert np.array_equal(boundary_f_frames(pred, gt),
                                  boundary_f_frames_edt(pred, gt))

    def test_border_touching_blobs(self):
        h, w = 72, 96
        pred = np.zeros((4, h, w), bool)
        pred[0, :10, :10] = True          # corner
        pred[1, 30:40, -6:] = True        # right edge
        pred[2, -1:, 20:70] = True        # one-row strip on the bottom edge
        pred[3] = True                    # the whole frame
        gt = np.roll(pred, (1, -1), axis=(1, 2))
        gt[3, :, :50] = False
        assert np.array_equal(boundary_f_frames(pred, gt),
                              boundary_f_frames_edt(pred, gt))

    def test_empty_pred_or_gt(self):
        rng = np.random.default_rng(3)
        full = _smooth_blobs(rng, (2, 240, 320), 0.5)
        empty = np.zeros_like(full)
        for pred, gt in ((empty, full), (full, empty), (empty, empty)):
            got = boundary_f_frames(pred, gt)
            assert np.array_equal(got, boundary_f_frames_edt(pred, gt))
        assert list(boundary_f_frames(empty, full)) == [0.0, 0.0]
        assert list(boundary_f_frames(empty, empty)) == [1.0, 1.0]


class TestRecallFraction:
    def test_strictly_above_threshold(self):
        series = np.array([0.4, 0.5, 0.51, 0.9])
        assert recall_fraction(series) == 0.5  # 0.5 itself does not count

    def test_empty_series_raises(self):
        with pytest.raises(ValueError):
            recall_fraction(np.array([]))


class TestCloudMetrics:
    def test_identical_clouds_all_zero(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(size=(50, 3))
        out = cloud_metrics(pts, pts)
        assert all(v == 0.0 for v in out.values())

    def test_single_outlier_arithmetic(self):
        rng = np.random.default_rng(42)
        gt = rng.normal(size=(200, 3))
        outlier = np.array([[50.0, 0.0, 0.0]])
        pred = np.vstack([gt, outlier])
        out = cloud_metrics(pred, gt)
        d = np.linalg.norm(gt - outlier, axis=1).min()
        assert out["acc_mean"] == pytest.approx(d / len(pred), rel=1e-12)
        assert out["acc_median"] == 0.0
        assert out["comp_mean"] == 0.0

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(42)
        pred = rng.normal(size=(100, 3))
        gt = rng.normal(size=(100, 3))
        out = cloud_metrics(pred, gt)
        diff = pred[:, None, :] - gt[None, :, :]
        dmat = np.sqrt((diff * diff).sum(axis=-1))
        acc = dmat.min(axis=1)
        comp = dmat.min(axis=0)
        assert out["acc_mean"] == float(acc.mean())
        assert out["acc_median"] == float(np.median(acc))
        assert out["comp_mean"] == float(comp.mean())
        assert out["comp_median"] == float(np.median(comp))
        assert out["dist_mean"] == (out["acc_mean"] + out["comp_mean"]) / 2
        assert out["dist_median"] == (out["acc_median"]
                                      + out["comp_median"]) / 2

    @staticmethod
    def _far_point_clouds():
        # clustered clouds of several tree leaves each, with points far
        # outside the other cloud (the queries that visit the most nodes),
        # shared points and a flat cluster that degenerates a split axis
        rng = np.random.default_rng(7)
        gt = np.vstack([rng.normal(size=(300, 3)),
                        rng.normal(size=(60, 3)) * [1, 1, 0] + [4, 0, 0]])
        pred = np.vstack([gt[::5] + rng.normal(scale=0.01, size=(72, 3)),
                          gt[:30],
                          rng.uniform(-1e3, 1e3, size=(40, 3)),
                          [[1e6, -1e6, 1e6], [0, 0, -5e4]]])
        return pred, gt

    def test_far_points_match_brute_force(self):
        pred, gt = self._far_point_clouds()
        out = cloud_metrics(pred, gt)
        diff = pred[:, None, :] - gt[None, :, :]
        dmat = np.sqrt((diff * diff).sum(axis=-1))
        acc, comp = dmat.min(axis=1), dmat.min(axis=0)
        assert out["acc_mean"] == float(acc.mean())
        assert out["acc_median"] == float(np.median(acc))
        assert out["comp_mean"] == float(comp.mean())
        assert out["comp_median"] == float(np.median(comp))

    def test_same_distances_on_any_number_of_workers(self, monkeypatch):
        pred, gt = self._far_point_clouds()
        outs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(purification, "_WORKERS", workers)
            outs.append(cloud_metrics(pred, gt))
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_swap_exchanges_directions(self):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(60, 3))
        ab = cloud_metrics(a, b)
        ba = cloud_metrics(b, a)
        assert ab["acc_mean"] == ba["comp_mean"]
        assert ab["acc_median"] == ba["comp_median"]
        assert ab["dist_mean"] == ba["dist_mean"]

    def test_empty_cloud_raises(self):
        pts = np.zeros((5, 3))
        with pytest.raises(ValueError):
            cloud_metrics(np.zeros((0, 3)), pts)
        with pytest.raises(ValueError):
            cloud_metrics(pts, np.zeros((0, 3)))


class TestEvaluateMasks:
    def test_report_fields(self):
        rng = np.random.default_rng(42)
        gt = rng.random((5, 16, 16)) > 0.7
        report = evaluate_masks(gt, gt)
        assert report.jm == 1.0 and report.fm == 1.0
        assert report.jr == 1.0 and report.fr == 1.0
        assert len(report.jaccard_frames) == 5
        d = report.to_dict()
        assert d["acc_mean"] is None

    def test_inverted_masks_score_near_zero(self):
        gt = _blob(20, 20, 5, 5, 8)[None]
        report = evaluate_masks(~gt, gt)
        assert report.jm < 0.05

    def test_report_roundtrip_dict(self):
        report = MetricReport(jm=0.5, fm=0.25, jr=1.0, fr=0.0,
                              jaccard_frames=[0.5], boundary_frames=[0.25])
        d = report.to_dict()
        assert d["jm"] == 0.5
        assert d["boundary_frames"] == [0.25]
