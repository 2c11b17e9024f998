"""Cross-view consistency tests: sampling, scoring, visibility, closing.

`score_cloud` is checked against a scalar oracle kept here: one point, one
view at a time, with depth, color and confidence each sampled by its own
`bilinear_sample` call.  The padded plane-major sampler and the scorer are
also checked for bit-identity against the pixel-major versions they
replaced, which clamp taps at any coordinate and are kept here as
references, and the scorer at every block size and worker count.  The
shifted-boolean closing is checked against the `scipy.ndimage` closing of
each frame.
"""

import sys
import tracemalloc
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import ndimage

from dynmask import crossview, geometry, purification, synthetic
from dynmask.crossview import (activate_confidence, bilinear_sample,
                               close_masks, refine_masks, score_cloud)
from dynmask.geometry import CameraModel, project_points
from dynmask.purification import DynamicPointCloud, purify, unproject_mask
from dynmask.tensor_io import SceneBundle


@dataclass
class ProjectionRecord:
    """One point's projection into one view, with everything sampled there."""

    point_id: int
    view: int
    pixel: np.ndarray           # (2,) subpixel (u, v) in the target view
    depth_projected: float      # z of the point in the target camera
    depth_sampled: float        # bilinear depth map value (0 if none valid)
    color_projected: np.ndarray  # (3,) color carried from the source view
    color_sampled: np.ndarray    # (3,) bilinear image value
    confidence: float
    visible: bool


def _padded(planes, support):
    """(C, H, W) planes and their (H, W) support as `bilinear_sample` takes
    them: with an extra last row and column of 0 and False."""
    return (np.pad(np.asarray(planes, dtype=np.float64),
                   ((0, 0), (0, 1), (0, 1))),
            np.pad(np.asarray(support, dtype=bool), ((0, 1), (0, 1))))


def gather_projections(position, color, bundle, confidences, point_id=0,
                       occlusion_tol=crossview.DEFAULT_OCCLUSION_TOL):
    """Project one point into every view and sample what each view saw there.

    A view sees the point when it lands in frame, in front of the camera,
    on valid depth, and no more than the relative tolerance behind the
    sampled depth.
    """
    pos = np.asarray(position, dtype=np.float64).reshape(1, 3)
    col = np.asarray(color, dtype=np.float64).reshape(3)
    h, w = bundle.height, bundle.width
    records = []
    for view, cam in enumerate(bundle.cameras):
        uv, z = project_points(pos, cam)
        u, v, z = uv[0, 0], uv[0, 1], float(z[0])
        depth_s, color_s, conf_s, ok = 0.0, np.zeros(3), 0.0, False
        if z > 1e-9 and 0 <= u <= w - 1 and 0 <= v <= h - 1:
            support = bundle.depths[view] > 0
            d, d_ok = bilinear_sample(
                *_padded(bundle.depths[view][None], support),
                uv[:, 0], uv[:, 1])
            c, _ = bilinear_sample(
                *_padded(np.moveaxis(bundle.images[view], -1, 0), support),
                uv[:, 0], uv[:, 1])
            cf, _ = bilinear_sample(
                *_padded(confidences[view][None], support),
                uv[:, 0], uv[:, 1])
            depth_s, color_s, conf_s, ok = (float(d[0, 0]), c[:, 0],
                                            float(cf[0, 0]), bool(d_ok[0]))
        records.append(ProjectionRecord(
            point_id=point_id, view=view, pixel=uv[0],
            depth_projected=z, depth_sampled=depth_s,
            color_projected=col, color_sampled=color_s,
            confidence=conf_s,
            visible=ok and z <= depth_s + occlusion_tol * z))
    return records


def dynamic_score(records, lam=crossview.DEFAULT_LAMBDA):
    """S = sum_i w_i (|depth residual_i| + lam * mean |color residual_i|).

    w_i are the confidences normalized over the visible views.
    """
    visible = [r for r in records if r.visible]
    if not visible:
        raise ValueError("no visible projection for this point")
    conf = np.array([r.confidence for r in visible])
    weights = conf / conf.sum()
    score = 0.0
    for wt, rec in zip(weights, visible):
        r_d = abs(rec.depth_projected - rec.depth_sampled)
        r_c = float(np.mean(np.abs(rec.color_projected - rec.color_sampled)))
        score += wt * (r_d + lam * r_c)
    return float(score)


def reference_bilinear_sample(values, support, u, v):
    """Pixel-major bilinear sampling at any (u, v): an (N, C) gather per tap.

    Each tap index is clamped into the (H, W) image, and the taps are
    summed in the order 00, 01, 10, 11 with weight wt * inside * support,
    then renormalized where any weight landed.
    """
    vals = np.asarray(values, dtype=np.float64)
    sup = np.asarray(support, dtype=bool)
    h, w = sup.shape
    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    fx = u - x0
    fy = v - y0
    flat = vals.reshape(h * w, -1)
    out = np.zeros((len(u), flat.shape[1]))
    wsum = np.zeros(len(u))
    for dy, dx, wt in ((0, 0, (1 - fx) * (1 - fy)), (0, 1, fx * (1 - fy)),
                       (1, 0, (1 - fx) * fy), (1, 1, fx * fy)):
        xi = x0 + dx
        yi = y0 + dy
        inside = (xi >= 0) & (xi < w) & (yi >= 0) & (yi < h)
        xi_c = np.clip(xi, 0, w - 1)
        yi_c = np.clip(yi, 0, h - 1)
        weight = wt * inside * sup[yi_c, xi_c]
        out += weight[:, None] * flat[yi_c * w + xi_c]
        wsum += weight
    ok = wsum > 0
    out[ok] /= wsum[ok, None]
    return (out[:, 0] if vals.ndim == 2 else out), ok


def reference_score_cloud(cloud, bundle, confidences,
                          lam=crossview.DEFAULT_LAMBDA,
                          occlusion_tol=crossview.DEFAULT_OCCLUSION_TOL):
    """`score_cloud` over full-length arrays with an (H, W, 5) stack."""
    alive_ids = np.flatnonzero(cloud.alive)
    pos = cloud.positions[alive_ids]
    frames, rows, cols = np.unravel_index(cloud.pixel_ids[alive_ids],
                                          bundle.depths.shape)
    colors = bundle.images[frames, rows, cols].astype(np.float64)
    h, w = bundle.height, bundle.width
    weight_sum = np.zeros(len(alive_ids))
    weighted_res = np.zeros(len(alive_ids))
    vis_count = np.zeros(len(alive_ids), dtype=np.int64)
    for view, cam in enumerate(bundle.cameras):
        uv, z = project_points(pos, cam)
        candidate = ((z > 1e-9) & (uv[:, 0] >= 0) & (uv[:, 0] <= w - 1)
                     & (uv[:, 1] >= 0) & (uv[:, 1] <= h - 1))
        samples = np.zeros((len(pos), 5))
        ok = np.zeros(len(pos), dtype=bool)
        stack = np.dstack((bundle.depths[view], bundle.images[view],
                           confidences[view]))
        samples[candidate], ok[candidate] = reference_bilinear_sample(
            stack, bundle.depths[view] > 0,
            uv[candidate, 0], uv[candidate, 1])
        vis = candidate & ok & (z <= samples[:, 0] + occlusion_tol * z)
        r_d = np.abs(z - samples[:, 0])
        r_c = np.mean(np.abs(colors - samples[:, 1:4]), axis=1)
        contrib = samples[:, 4] * (r_d + lam * r_c)
        weight_sum += np.where(vis, samples[:, 4], 0.0)
        weighted_res += np.where(vis, contrib, 0.0)
        vis_count += vis
    seen = vis_count > 0
    scores = np.zeros(len(cloud))
    counts = np.zeros(len(cloud), dtype=np.int64)
    scores[alive_ids[seen]] = weighted_res[seen] / weight_sum[seen]
    counts[alive_ids] = vis_count
    return scores, counts


def _record(r_d=0.0, r_c=0.0, conf=2.0, visible=True, d=2.0):
    return ProjectionRecord(
        point_id=0, view=0, pixel=np.zeros(2),
        depth_projected=d + r_d, depth_sampled=d,
        color_projected=np.full(3, r_c), color_sampled=np.zeros(3),
        confidence=conf, visible=visible)


class TestActivateConfidence:
    def test_zero_logit(self):
        assert activate_confidence(np.array([0.0]))[0] == pytest.approx(2.0)

    def test_clamp_low(self):
        # exp(-40) underflows the 1.0 ulp, so C lands exactly on its floor
        c = activate_confidence(np.array([-40.0, -1000.0]))
        assert c[0] == pytest.approx(1.0 + np.exp(-40.0))
        assert c[1] == c[0]
        assert (c >= 1.0).all()

    def test_clamp_high_is_finite(self):
        c = activate_confidence(np.array([1000.0]))
        assert np.isfinite(c[0])
        assert c[0] == pytest.approx(1.0 + np.exp(40.0))

    def test_log_three(self):
        assert activate_confidence(np.array([np.log(3.0)]))[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_allocates_one_output(self, dtype):
        # the pipeline passes float32 logits; a float64 input must be
        # copied, not activated in place
        logits = np.random.default_rng(4).normal(scale=30.0, size=(4, 60, 80))
        logits = logits.astype(dtype)
        before = logits.copy()
        tracemalloc.start()
        try:
            conf = activate_confidence(logits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(logits, before)
        want = 1.0 + np.exp(np.clip(before.astype(np.float64), -40.0, 40.0))
        np.testing.assert_array_equal(conf, want)
        assert conf.dtype == np.float64
        assert peak < 1.1 * conf.nbytes


class TestBilinearSample:
    def test_integer_position_exact(self):
        vals = np.arange(12, dtype=float).reshape(3, 4)
        sup = np.ones((3, 4), bool)
        out, ok = bilinear_sample(*_padded(vals[None], sup), np.array([2.0]),
                                  np.array([1.0]))
        assert ok[0]
        assert out[0, 0] == pytest.approx(vals[1, 2])

    def test_midpoint_average(self):
        vals = np.array([[0.0, 1.0], [2.0, 3.0]])
        sup = np.ones((2, 2), bool)
        out, _ = bilinear_sample(*_padded(vals[None], sup), np.array([0.5]),
                                 np.array([0.5]))
        assert out[0, 0] == pytest.approx(1.5)

    def test_support_renormalization(self):
        vals = np.array([[1.0, 5.0], [1.0, 5.0]])
        sup = np.array([[True, False], [True, False]])
        out, ok = bilinear_sample(*_padded(vals[None], sup), np.array([0.5]),
                                  np.array([0.5]))
        assert ok[0]
        assert out[0, 0] == pytest.approx(1.0)  # only the left column contributes

    def test_no_support(self):
        vals = np.ones((2, 2))
        sup = np.zeros((2, 2), bool)
        out, ok = bilinear_sample(*_padded(vals[None], sup), np.array([0.5]),
                                  np.array([0.5]))
        assert not ok[0]
        assert out[0, 0] == 0.0

    def test_edge_pixel(self):
        vals = np.array([[1.0, 2.0], [3.0, 4.0]])
        sup = np.ones((2, 2), bool)
        out, ok = bilinear_sample(*_padded(vals[None], sup), np.array([1.0]),
                                  np.array([1.0]))
        assert ok[0]
        assert out[0, 0] == pytest.approx(4.0)

    def test_multichannel(self):
        vals = np.zeros((2, 2, 3))
        vals[..., 1] = 2.0
        sup = np.ones((2, 2), bool)
        out, _ = bilinear_sample(*_padded(np.moveaxis(vals, -1, 0), sup),
                                 np.array([0.5]), np.array([0.5]))
        np.testing.assert_allclose(out[:, 0], [0.0, 2.0, 0.0])

    @pytest.mark.parametrize("shape", [(2, 3), (2, 3, 4), (4, 3, 2)])
    def test_rejects_other_layouts(self, shape):
        # a bare (H, W) image or a pixel-major (H, W, C) stack is refused
        # instead of being read as planes of the wrong size
        with pytest.raises(ValueError, match="planes"):
            bilinear_sample(np.zeros(shape), np.ones((2, 3), bool),
                            np.array([0.5]), np.array([0.5]))

    @pytest.mark.parametrize("u, v", [
        (-0.25, 1.0), (np.nextafter(-0.0, -1.0), 1.0),
        (np.nextafter(3.0, 4.0), 1.0), (1.0, -0.25),
        (1.0, np.nextafter(2.0, 3.0)), (np.nan, 1.0), (1.0, np.nan),
    ], ids=["u<0", "u=-tiny", "u>W-1", "v<0", "v>H-1", "u=nan", "v=nan"])
    def test_rejects_points_out_of_frame(self, u, v):
        # one point off the 4x3 frame among points on its corners and
        # edges refuses the whole call
        planes, sup = _padded(np.ones((2, 3, 4)), np.ones((3, 4), bool))
        us = np.array([0.0, 3.0, 0.0, 3.0, 1.5, u])
        vs = np.array([0.0, 0.0, 2.0, 2.0, 1.5, v])
        out, ok = bilinear_sample(planes, sup, us[:-1], vs[:-1])
        assert ok.all() and (out == 1.0).all()
        with pytest.raises(ValueError, match="outside the 4x3 frame"):
            bilinear_sample(planes, sup, us, vs)

    @pytest.mark.parametrize("channels", [None, 5])
    def test_matches_reference_exactly(self, channels):
        gen = np.random.default_rng(7)
        h, w = 9, 13
        shape = (h, w) if channels is None else (h, w, channels)
        vals = gen.normal(size=shape) * 10.0 ** gen.integers(-3, 4, shape)
        sup = gen.random((h, w)) > 0.3
        sup[2:5, 3:6] = False  # a hole wider than one tap footprint
        u = gen.uniform(0, w - 1, 400)
        v = gen.uniform(0, h - 1, 400)
        u[:40], v[:40] = gen.integers(0, w, 40), gen.integers(0, h, 40)
        u[40:60], v[60:80] = w - 1, h - 1  # last column, last row
        u[80], v[80] = w - 1, h - 1
        u[81:90], v[81:90] = gen.uniform(3, 5, 9), gen.uniform(2, 4, 9)
        planes = vals[None] if channels is None else np.moveaxis(vals, -1, 0)
        got, got_ok = bilinear_sample(*_padded(planes, sup), u, v)
        want, want_ok = reference_bilinear_sample(vals, sup, u, v)
        want = want.reshape(len(u), -1).T  # (N,) or (N, C) -> (C, N)
        assert got.shape == want.shape
        np.testing.assert_array_equal(got_ok, want_ok)
        np.testing.assert_array_equal(got, want)
        # the hole leaves points with no supported tap, and others do land
        assert not got_ok[81:90].any() and got_ok.sum() > 200


class TestDynamicScore:
    def test_perfect_static_point(self):
        recs = [_record(r_d=0.0, r_c=0.0, conf=c) for c in (2.0, 5.0, 50.0)]
        assert dynamic_score(recs) == 0.0

    def test_single_view_depth_residual(self):
        # one view: its normalized weight is 1 regardless of confidence
        for conf in (1.5, 2.0, 100.0):
            assert dynamic_score([_record(r_d=0.2, conf=conf)]) \
                == pytest.approx(0.2, abs=1e-12)

    def test_high_confidence_agreeing_view_dominates(self):
        recs = [_record(r_d=1.0, conf=1.0 + np.exp(0.0)),
                _record(r_d=0.0, conf=1.0 + np.exp(4.0))]
        score = dynamic_score(recs)
        expect = (2.0 / (2.0 + 1.0 + np.e ** 4)) * 1.0
        assert score == pytest.approx(expect, rel=1e-9)
        assert score < 0.05

    def test_color_term_weighting(self):
        # pure color residual 0.3 on every channel with lambda = 1/3
        score = dynamic_score([_record(r_d=0.0, r_c=0.3)])
        assert score == pytest.approx(0.3 / 3.0, rel=1e-9)

    def test_confidence_scale_invariance(self):
        recs_a = [_record(r_d=0.5, conf=2.0), _record(r_d=0.1, conf=6.0)]
        recs_b = [_record(r_d=0.5, conf=20.0), _record(r_d=0.1, conf=60.0)]
        assert dynamic_score(recs_a) == pytest.approx(dynamic_score(recs_b),
                                                      rel=1e-12)

    def test_monotone_in_residual(self):
        base = [_record(r_d=0.2, conf=2.0), _record(r_d=0.1, conf=3.0)]
        bigger = [_record(r_d=0.4, conf=2.0), _record(r_d=0.1, conf=3.0)]
        assert dynamic_score(bigger) > dynamic_score(base)

    def test_uniform_confidence_is_plain_mean(self):
        recs = [_record(r_d=r, conf=7.0) for r in (0.1, 0.3, 0.5)]
        assert dynamic_score(recs) == pytest.approx(0.3, rel=1e-9)

    def test_empty_visibility(self):
        with pytest.raises(ValueError):
            dynamic_score([_record(visible=False)])


def _flat_bundle(frames=3, h=10, w=14, depth=4.0, baseline=0.3, logit=2.0):
    """Cameras on a lateral track staring at a fronto-parallel plane.

    Every pixel of every frame sees the plane z = depth (world frame of
    camera 0), so inter-view depth consistency is exact by construction.
    """
    cams = [CameraModel(fx=20.0, fy=20.0, cx=(w - 1) / 2, cy=(h - 1) / 2,
                        R=np.eye(3), t=np.array([baseline * f, 0.0, 0.0]))
            for f in range(frames)]
    depths = np.zeros((frames, h, w), dtype=np.float32)
    images = np.zeros((frames, h, w, 3), dtype=np.float32)
    for f in range(frames):
        depths[f] = depth
        # world x coordinate painted into the red channel for a color cue
        cols = np.arange(w)
        world_x = (cols - cams[f].cx) * depth / cams[f].fx - baseline * f
        ramp = (world_x - world_x.min()) / max(np.ptp(world_x), 1e-9)
        images[f, :, :, 0] = np.float32(0.0) + ramp.astype(np.float32)[None, :]
    return SceneBundle(
        images=np.clip(images, 0.0, 1.0),
        depths=depths,
        confidence_logits=np.full((frames, h, w), logit, dtype=np.float32),
        attention=np.ones((frames, 2, h // 2, w // 2), dtype=np.float32),
        cameras=cams, patch=2)


def _views_seeing(bundle, position,
                  occlusion_tol=crossview.DEFAULT_OCCLUSION_TOL):
    """Views that see one point: (score_cloud's count, the oracle's count)."""
    cloud = DynamicPointCloud(
        positions=np.asarray(position, dtype=np.float64).reshape(1, 3),
        pixel_ids=np.zeros(1, dtype=np.int64),
        saliencies=np.ones(1), alive=np.ones(1, dtype=bool))
    conf = activate_confidence(bundle.confidence_logits)
    _, counts = score_cloud(cloud, bundle, conf, occlusion_tol=occlusion_tol)
    recs = gather_projections(position, bundle.images[0, 0, 0], bundle, conf,
                              occlusion_tol=occlusion_tol)
    return int(counts[0]), sum(r.visible for r in recs)


class TestGatherProjections:
    def test_source_view_round_trip(self):
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        masks = np.zeros((3, 10, 14), bool)
        masks[1, 5, 7] = True
        cloud = unproject_mask(bundle, masks)
        recs = gather_projections(cloud.positions[0],
                                  bundle.images[1, 5, 7], bundle, conf)
        rec = recs[1]
        assert rec.visible
        np.testing.assert_allclose(rec.pixel, [7.0, 5.0], atol=1e-4)
        assert abs(rec.depth_projected - rec.depth_sampled) <= 1e-4

    def test_point_behind_all_cameras(self):
        assert _views_seeing(_flat_bundle(), [0.0, 0.0, -5.0]) == (0, 0)

    def test_out_of_bounds_invisible(self):
        assert _views_seeing(_flat_bundle(), [50.0, 0.0, 4.0]) == (0, 0)

    def test_occlusion_flags_invisible(self):
        # a point 1 m behind the rendered plane projects onto pixels whose
        # depth map says 4.0; 5.0 > 4.0 * (1 + tol) so every view drops it
        assert _views_seeing(_flat_bundle(), [0.0, 0.0, 5.0]) == (0, 0)

    def test_occlusion_tolerance_inclusive(self):
        # with tol 0.5, z = 8 sits exactly on 4.0 + 0.5 * z in floating
        # point; the next double above it is occluded in every view
        bundle = _flat_bundle()
        assert _views_seeing(bundle, [0.0, 0.0, 8.0], 0.5) == (3, 3)
        assert _views_seeing(bundle, [0.0, 0.0, np.nextafter(8.0, 9.0)],
                             0.5) == (0, 0)

    def test_invalid_depth_region_invisible(self):
        # tol 1 lets any point pass the occlusion test, even against a
        # sampled depth of 0, so only the missing support can hide it
        bundle = _flat_bundle(frames=1)
        assert _views_seeing(bundle, [0.0, 0.0, 4.0], 1.0) == (1, 1)
        bundle.depths[0, :, :] = 0.0
        assert _views_seeing(bundle, [0.0, 0.0, 4.0], 1.0) == (0, 0)


def _noisy_cloud(frames=4, width=64, height=48):
    """A rendered scene's cloud, jittered, with dead points among live ones."""
    spec = synthetic.corpus_specs(1, frames=frames, width=width,
                                  height=height)[0]
    bundle, gt = synthetic.generate(spec)
    conf = activate_confidence(bundle.confidence_logits)
    gen = np.random.default_rng(3)
    masks = (gt.instances >= 0) | (gen.random(gt.instances.shape) > 0.7)
    cloud = unproject_mask(bundle, masks)
    cloud.positions += gen.normal(scale=0.02, size=cloud.positions.shape)
    cloud.alive &= gen.random(len(cloud)) > 0.1
    return cloud, bundle, conf


class TestScoreCloud:
    def test_one_sampling_call_per_view(self, monkeypatch):
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        cloud = unproject_mask(bundle, np.ones((3, 10, 14), bool))
        calls = []

        def counting_sample(*args):
            calls.append(args[0].shape)
            return bilinear_sample(*args)

        monkeypatch.setattr(crossview, "bilinear_sample", counting_sample)
        score_cloud(cloud, bundle, conf)
        assert calls == [(5, 11, 15)] * bundle.frames

    def test_matches_scalar_path(self):
        gen = np.random.default_rng(42)
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        masks = gen.random((3, 10, 14)) > 0.72
        cloud = unproject_mask(bundle, masks)
        scores, counts = score_cloud(cloud, bundle, conf)
        pixels = np.unravel_index(cloud.pixel_ids, masks.shape)
        for i in range(len(cloud)):
            f, row, col = (a[i] for a in pixels)
            recs = gather_projections(cloud.positions[i],
                                      bundle.images[f, row, col],
                                      bundle, conf, point_id=i)
            n_vis = sum(r.visible for r in recs)
            assert counts[i] == n_vis
            if n_vis:
                assert scores[i] == pytest.approx(dynamic_score(recs), abs=1e-12)

    @staticmethod
    def _record_calls(bundle, monkeypatch):
        """Log each projection as (project, view, points) and each sampling
        call as (sample, planes shape), from whichever thread makes it."""
        calls = []

        def counting_project(points, camera):
            view = next(v for v, c in enumerate(bundle.cameras) if c is camera)
            calls.append(("project", view, len(points)))
            return project_points(points, camera)

        def counting_sample(*args):
            calls.append(("sample", args[0].shape))
            return bilinear_sample(*args)

        monkeypatch.setattr(geometry, "project_points", counting_project)
        monkeypatch.setattr(crossview, "bilinear_sample", counting_sample)
        return calls

    def test_one_sampling_call_per_view_and_block(self, monkeypatch):
        # 420 points in blocks of 100 on one worker: views x blocks calls,
        # view-major, each block projected and then sampled on the planes
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        cloud = unproject_mask(bundle, np.ones((3, 10, 14), bool))
        calls = self._record_calls(bundle, monkeypatch)
        monkeypatch.setattr(crossview, "_BLOCK", 100)
        monkeypatch.setattr(purification, "_WORKERS", 1)
        score_cloud(cloud, bundle, conf)
        assert calls == [call for view in range(bundle.frames)
                         for n in (100, 100, 100, 100, 20)
                         for call in (("project", view, n),
                                      ("sample", (5, 11, 15)))]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_views_in_order_across_workers(self, workers, monkeypatch):
        # blocks of one view may run in any order, but every call of view v
        # comes before any call of view v + 1, since they share the planes
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        cloud = unproject_mask(bundle, np.ones((3, 10, 14), bool))
        calls = self._record_calls(bundle, monkeypatch)
        monkeypatch.setattr(crossview, "_BLOCK", 100)
        monkeypatch.setattr(purification, "_WORKERS", workers)
        score_cloud(cloud, bundle, conf)
        # each block samples right after it projects, so view v's calls are
        # those from its first projection up to view v + 1's first one
        edges = [0] + [next(i for i, call in enumerate(calls)
                            if call[:2] == ("project", view))
                       for view in range(1, bundle.frames)] + [len(calls)]
        want = Counter([("project", n) for n in (100, 100, 100, 100, 20)]
                       + [("sample", (5, 11, 15))] * 5)
        for view in range(bundle.frames):
            got = calls[edges[view]:edges[view + 1]]
            assert Counter((c[0], c[-1]) for c in got) == want
            assert all(c[1] == view for c in got if c[0] == "project")

    def test_exact_under_thread_switching(self, monkeypatch):
        # more workers than cores, switching threads every microsecond: an
        # add lost to a race between blocks would change a sum or a count
        cloud, bundle, conf = _noisy_cloud(frames=3, width=32, height=24)
        want = reference_score_cloud(cloud, bundle, conf)
        monkeypatch.setattr(crossview, "_BLOCK", 7)
        monkeypatch.setattr(purification, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = score_cloud(cloud, bundle, conf)
        finally:
            sys.setswitchinterval(interval)
        for got_a, want_a in zip(got, want):
            np.testing.assert_array_equal(got_a, want_a)

    @pytest.mark.parametrize("workers, want", [(3, [3]), (8, [5])],
                             ids=["3-workers", "8-workers"])
    def test_pool_capped_at_blocks(self, workers, want, monkeypatch):
        # 420 points in 5 blocks: one pool per call, no larger than that
        sizes = []

        class RecordingPool(crossview.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        cloud = unproject_mask(bundle, np.ones((3, 10, 14), bool))
        monkeypatch.setattr(crossview, "_BLOCK", 100)
        monkeypatch.setattr(purification, "_WORKERS", workers)
        monkeypatch.setattr(crossview, "ThreadPoolExecutor", RecordingPool)
        score_cloud(cloud, bundle, conf)
        assert sizes == want

    def test_one_block_creates_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-block cloud started a thread pool")

        cloud, bundle, conf = _noisy_cloud(frames=3, width=32, height=24)
        assert len(cloud) <= crossview._BLOCK
        monkeypatch.setattr(purification, "_WORKERS", 4)
        monkeypatch.setattr(crossview, "ThreadPoolExecutor", no_pool)
        want = reference_score_cloud(cloud, bundle, conf)
        for got_a, want_a in zip(score_cloud(cloud, bundle, conf), want):
            np.testing.assert_array_equal(got_a, want_a)

    def test_matches_reference_exactly(self):
        cloud, bundle, conf = _noisy_cloud()
        scores, counts = score_cloud(cloud, bundle, conf)
        want_scores, want_counts = reference_score_cloud(cloud, bundle, conf)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_array_equal(scores, want_scores)
        assert 0 < (counts > 0).sum() < len(cloud)

    @pytest.mark.parametrize("block", [1, 7, "all"])
    def test_exact_across_blocks(self, block, monkeypatch):
        # block boundaries fall between live points and across dead ones;
        # no boundary and no worker count may change a sum, so every block
        # size gives the bits of one block and of the full-length reference
        cloud, bundle, conf = _noisy_cloud(frames=3, width=32, height=24)
        assert len(cloud) <= crossview._BLOCK
        one_block = score_cloud(cloud, bundle, conf)
        want = reference_score_cloud(cloud, bundle, conf)
        monkeypatch.setattr(crossview, "_BLOCK",
                            len(cloud) if block == "all" else block)
        for workers in (1, 2, 3):
            monkeypatch.setattr(purification, "_WORKERS", workers)
            got = score_cloud(cloud, bundle, conf)
            for got_a, one_a, want_a in zip(got, one_block, want):
                np.testing.assert_array_equal(got_a, one_a)
                np.testing.assert_array_equal(got_a, want_a)
        assert 0 < (~cloud.alive).sum() and 0 < (got[1] > 0).sum()

    def test_memory_bounded_by_blocks(self, monkeypatch):
        # 230,400 points, 14 blocks: only the alive ids, the source pixel
        # indices, the three per-point sums and the two results grow with
        # the cloud (52 bytes a point), so the traced peak stays under a
        # per-point allowance plus each worker's block temporaries and one
        # view's (5, H, W) planes, shared by the workers.  Projecting and
        # sampling all points in one call per view would take about 490
        # bytes a point.
        bundle = _flat_bundle(h=240, w=320)
        conf = activate_confidence(bundle.confidence_logits)
        cloud = unproject_mask(bundle, np.ones((3, 240, 320), bool))
        n = len(cloud)
        assert n >= 8 * crossview._BLOCK
        planes = 5 * 240 * 320 * 8
        for workers in (1, 2):
            monkeypatch.setattr(purification, "_WORKERS", workers)
            tracemalloc.start()
            try:
                _, counts = score_cloud(cloud, bundle, conf)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert (counts > 0).mean() > 0.9
            assert peak < (64 * n + 1024 * crossview._BLOCK * workers
                           + planes), workers

    def test_static_points_score_near_zero(self):
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        masks = np.ones((3, 10, 14), bool)
        cloud = unproject_mask(bundle, masks)
        scores, counts = score_cloud(cloud, bundle, conf)
        seen = counts > 0
        assert seen.all()
        assert scores[seen].max() < 0.02

    def test_displaced_points_score_high(self):
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        masks = np.zeros((3, 10, 14), bool)
        masks[0, 4:7, 5:9] = True
        cloud = unproject_mask(bundle, masks)
        cloud.positions[:, 2] -= 1.0  # yank points 1 m toward the cameras
        scores, counts = score_cloud(cloud, bundle, conf)
        seen = counts > 0
        assert scores[seen].min() > 0.5

    def test_dead_points_skipped(self):
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        masks = np.ones((3, 10, 14), bool)
        cloud = unproject_mask(bundle, masks)
        cloud.alive[:] = False
        scores, counts = score_cloud(cloud, bundle, conf)
        assert counts.sum() == 0
        assert scores.sum() == 0.0


def _close_masks_per_frame(masks):
    """Reference: pad, dilate and erode each frame on its own."""
    structure = np.ones((3, 3), dtype=bool)
    out = np.zeros_like(masks, dtype=bool)
    for f in range(masks.shape[0]):
        padded = np.pad(masks[f], 1)
        grown = ndimage.binary_dilation(padded, structure=structure)
        closed = ndimage.binary_erosion(grown, structure=structure)
        out[f] = closed[1:-1, 1:-1]
    return out


class TestCloseMasks:
    def test_stack_matches_per_frame_closing(self):
        # random blobs, some touching the image edges, on frames that
        # differ: the one-call closing must not mix neighbouring frames
        gen = np.random.default_rng(21)
        m = gen.random((8, 60, 80)) > 0.7
        m = ndimage.binary_opening(m, structure=np.ones((1, 2, 2), bool))
        m[:, 0, 10:30] = True
        m[::2, 20:40, -1] = True
        m[3] = False
        m[5] = True
        out = close_masks(m)
        np.testing.assert_array_equal(out, _close_masks_per_frame(m))
        assert out.dtype == bool and out.flags.c_contiguous
        assert not out[3].any() and out[5].all()

    def test_fills_single_hole(self):
        m = np.zeros((1, 7, 7), bool)
        m[0, 2:5, 2:5] = True
        m[0, 3, 3] = False
        out = close_masks(m)
        assert out[0, 3, 3]

    def test_keeps_solid_block(self):
        m = np.zeros((1, 8, 8), bool)
        m[0, 2:6, 3:7] = True
        out = close_masks(m)
        np.testing.assert_array_equal(out, m)

    def test_isolated_pixel_survives(self):
        # closing never removes foreground, only fills gaps
        m = np.zeros((1, 9, 9), bool)
        m[0, 4, 4] = True
        out = close_masks(m)
        assert out[0, 4, 4]

    def test_border_not_eroded(self):
        m = np.zeros((1, 6, 6), bool)
        m[0, 0:3, 0:3] = True
        out = close_masks(m)
        assert out[0, 0:3, 0:3].all()

    def test_empty_stays_empty(self):
        m = np.zeros((2, 5, 5), bool)
        assert not close_masks(m).any()

    @pytest.mark.parametrize("h, w", [(1, 1), (1, 9), (7, 1), (2, 2)])
    def test_small_frames_match_per_frame_closing(self, h, w):
        # every pattern of a 1x1 or 2x2 frame, one per frame; random strips
        # one pixel wide or high, where both passes of an axis meet the ring
        if h * w <= 4:
            bits = np.arange(2 ** (h * w))[:, None] >> np.arange(h * w) & 1
            m = bits.astype(bool).reshape(-1, h, w)
        else:
            m = np.random.default_rng(h + w).random((12, h, w)) > 0.5
        out = close_masks(m)
        np.testing.assert_array_equal(out, _close_masks_per_frame(m))
        assert out.dtype == bool and out.flags.c_contiguous

    @pytest.mark.parametrize("frames, fill",
                             [(3, True), (3, False), (0, False)],
                             ids=["all-true", "all-false", "zero-frames"])
    def test_uniform_stacks_match_per_frame_closing(self, frames, fill):
        m = np.full((frames, 6, 8), fill)
        out = close_masks(m)
        np.testing.assert_array_equal(out, _close_masks_per_frame(m))
        assert out.shape == m.shape and out.dtype == bool


class TestRefineMasks:
    def test_stages_change_only_alive(self):
        # purify and refine_masks relabel points: each returns a new alive
        # array, leaves the input's alone and shares every other array
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        masks = np.random.default_rng(2).random((3, 10, 14)) > 0.4
        cloud = unproject_mask(bundle, masks)
        before = cloud.alive.copy()
        for out in (purify(cloud, tau=6, radius=0.05),
                    refine_masks(cloud, bundle, conf, theta_dyn=0.1)[1]):
            assert not np.array_equal(out.alive, before)
            np.testing.assert_array_equal(cloud.alive, before)
            for name in ("positions", "pixel_ids", "saliencies"):
                assert getattr(out, name) is getattr(cloud, name), name

    def test_theta_zero_keeps_all_scored(self):
        gen = np.random.default_rng(1)
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        masks = gen.random((3, 10, 14)) > 0.6
        cloud = unproject_mask(bundle, masks)
        _, relabeled = refine_masks(cloud, bundle, conf, theta_dyn=0.0)
        assert relabeled.alive.all()

    def test_static_scene_cleared(self):
        bundle = _flat_bundle()
        conf = activate_confidence(bundle.confidence_logits)
        masks = np.ones((3, 10, 14), bool)
        cloud = unproject_mask(bundle, masks)
        out, relabeled = refine_masks(cloud, bundle, conf, theta_dyn=0.1)
        assert relabeled.alive.sum() == 0
        assert not out.any()

    def test_unseen_points_keep_verdict(self):
        bundle = _flat_bundle(frames=1)
        conf = activate_confidence(bundle.confidence_logits)
        masks = np.zeros((1, 10, 14), bool)
        masks[0, 5, 7] = True
        cloud = unproject_mask(bundle, masks)
        # killing the depth map leaves the point visible nowhere (its own
        # view included), so refinement must not overrule purification
        bundle.depths[0, :, :] = 0.0
        out, relabeled = refine_masks(cloud, bundle, conf, theta_dyn=10.0)
        assert relabeled.alive[0]
        assert out[0, 5, 7]
