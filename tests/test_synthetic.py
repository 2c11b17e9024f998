"""Tests for the procedural scene generator.

The generator is the geometric oracle for everything downstream, so these
tests check it against closed-form facts: plane depths have analytic
formulas, rigid reprojection must land on the same surface, and mover
displacement is known exactly.
"""

import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from dynmask import attention, purification, synthetic
from dynmask.geometry import (project_dynamic_world_batch, project_points,
                              unproject_pixels)
from dynmask.synthetic import (_SPEC_KEYS, FLOOR_Y, NOISE_AMP, NOISE_BASE,
                               SIGNAL_HEADS, WALL_Z, MoverSpec, SceneSpec,
                               _sigma_map, corpus_specs, generate,
                               load_ground_truth)
from dynmask.tensor_io import (SceneFormatError, load_scene, read_stack,
                               validate_bundle)
from oracles import (GT_BREAKAGES, cast_depth, corrupt, project_rigid_batch,
                     render_frame)

ROOT = Path(__file__).resolve().parents[1]


def count_injected_cells(bundle, corrupted):
    """(frame, row, col) of every attention cell corruption changed."""
    diff = (bundle.attention != corrupted.attention).any(axis=1)
    return [(int(f), int(i), int(j)) for f, i, j in zip(*np.nonzero(diff))]


def _static_spec(seed=0, frames=5):
    return SceneSpec(seed=seed, frames=frames, width=64, height=48, patch=8)


def _mover_spec(seed=0, frames=6, velocity=(0.12, 0.0, 0.0)):
    mover = MoverSpec(shape="sphere", size=0.5,
                      start=np.array([0.6, -0.1, 3.5]),
                      velocity=np.array(velocity, dtype=np.float64),
                      color=np.array([0.85, 0.3, 0.25]))
    return SceneSpec(seed=seed, frames=frames, width=96, height=72, patch=8,
                     movers=[mover])


def _readme_section(heading):
    """README text from the heading line that ends in `heading` to the
    next heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(rf"^#+ [^\n]*{heading}\n(.*?)(?=^#|\Z)", readme,
                     re.S | re.M).group(1)


class TestSpecParsing:
    def test_from_dict_roundtrip(self):
        raw = {
            "seed": 11, "frames": 4, "width": 32, "height": 32, "patch": 8,
            "movers": [{"shape": "box", "size": 0.4,
                        "start": [0, 0, 3], "velocity": [0.1, 0, 0]}],
            "noise": {"depth_sigma": 0.02, "high_fraction": 0.25},
        }
        spec = SceneSpec.from_dict(raw)
        assert (spec.seed, spec.frames, spec.width, spec.height,
                spec.patch) == (11, 4, 32, 32, 8)
        assert spec.movers[0].shape == "box"
        assert spec.depth_sigma == 0.02 and spec.high_fraction == 0.25

    def test_rejects_single_frame(self):
        with pytest.raises(ValueError):
            SceneSpec(frames=1)

    def test_rejects_bad_patch(self):
        with pytest.raises(ValueError):
            SceneSpec(width=30, height=30, patch=8)

    def test_rejects_unknown_shape(self):
        with pytest.raises(ValueError):
            SceneSpec.from_dict({"movers": [{"shape": "torus", "size": 1,
                                             "start": [0, 0, 3]}]})

    @pytest.mark.parametrize("missing", ["size", "start"])
    def test_mover_missing_required_key(self, missing):
        mover = {"shape": "sphere", "size": 0.3, "start": [0, 0, 3]}
        del mover[missing]
        with pytest.raises(ValueError, match=missing):
            SceneSpec.from_dict({"movers": [mover]})

    @pytest.mark.parametrize("raw, key", [
        ({"frame": 3}, "frame"),
        ({"noise": {"depth_sigma": 0.02, "high_frac": 0.25}}, "high_frac"),
        ({"movers": [{"size": 0.3, "start": [0, 0, 3], "speed": [1, 0, 0]}]},
         "speed"),
        # the camera track, background, attention heads, noise tile and
        # high-sigma factor are constants, not spec keys
        ({"camera": {"baseline": 0.1}}, "camera"),
        ({"background": {"checker": 0.5}}, "background"),
        ({"attention": {"noise_heads": 6}}, "attention"),
        ({"noise": {"tile": 16}}, "tile"),
        ({"noise": {"high_sigma_factor": 10.0}}, "high_sigma_factor"),
    ], ids=["top", "section", "mover", "camera", "background", "attention",
            "noise-tile", "high-sigma-factor"])
    def test_unknown_key_rejected(self, raw, key):
        with pytest.raises(ValueError, match=key):
            SceneSpec.from_dict(raw)

    @pytest.mark.parametrize("raw", [
        {"frames": 3.7}, {"width": 96.5}, {"patch": 8.5}, {"seed": 2.2},
    ], ids=["frames", "width", "patch", "seed"])
    def test_fractional_integer_rejected(self, raw):
        with pytest.raises(ValueError, match="whole number"):
            SceneSpec.from_dict(raw)

    def test_whole_float_integer_accepted(self):
        spec = SceneSpec.from_dict({"frames": 3.0, "patch": 8.0})
        assert spec.frames == 3 and type(spec.frames) is int
        assert spec.patch == 8 and type(spec.patch) is int

    @pytest.mark.parametrize("raw", [
        {"frames": "3"}, {"seed": True}, {"noise": {"depth_sigma": None}},
        {"noise": {"depth_sigma": float("nan")}}, {"noise": []},
        {"movers": [{"size": 0.3, "start": [0, 3]}]},
        {"movers": [{"size": 0.3, "start": [0, 0, 3], "color": "red"}]},
        {"movers": {}}, [], {"seed": 10 ** 400},
        {"movers": [{"size": 0.3, "start": ["0", "0", "3"]}]},
        {"seed": 2 ** 64}, {"seed": -1},
        {"noise": {"depth_sigma": -0.01}}, {"noise": {"high_fraction": 1.5}},
        {"movers": [{"size": 0, "start": [0, 0, 3]}]},
        {"movers": [{"size": -0.3, "start": [0, 0, 3]}]},
    ], ids=["string", "bool", "null", "nan", "section-list", "short-start",
            "color-string", "movers-object", "spec-list", "seed-huge",
            "start-strings", "seed-2**64", "seed-negative",
            "depth-sigma-negative", "high-fraction-above-one",
            "mover-size-zero", "mover-size-negative"])
    def test_malformed_value_rejected(self, raw):
        with pytest.raises(ValueError):
            SceneSpec.from_dict(raw)

    def test_readme_example_parses(self):
        example = re.search(r"```json\n(.*?)```", _readme_section(
            "Generate a synthetic scene"), re.S).group(1)
        spec = SceneSpec.from_dict(json.loads(example))
        assert spec.frames == 6 and len(spec.movers) == 1

    def test_readme_table_names_the_spec_keys(self):
        # each row of the spec table is `section` | `key` (default), ...
        rows = re.findall(r"^\| (top level|`\w+`) \| (.*) \|$",
                          _readme_section("Generate a synthetic scene"), re.M)
        table = {section.strip("`"): tuple(re.findall(r"`(\w+)`", keys))
                 for section, keys in rows}
        assert table == {section or "top level": keys
                         for section, keys in _SPEC_KEYS.items()}

    def test_default_palette_assigns_colors(self):
        raw = {"movers": [{"shape": "sphere", "size": 0.3, "start": [0, 0, 3]},
                          {"shape": "box", "size": 0.3, "start": [1, 0, 3]}]}
        spec = SceneSpec.from_dict(raw)
        assert not np.allclose(spec.movers[0].color, spec.movers[1].color)


class TestRender:
    def test_wall_depth_is_exact(self):
        # camera centers sit at z=0 looking down +z, so every wall pixel
        # has camera depth exactly WALL_Z
        spec = _static_spec()
        bundle, gt = generate(spec)
        wall = gt.true_depths[0] == np.float32(WALL_Z)
        assert wall.any()
        center = gt.true_depths[0, 0, spec.width // 2]
        assert center == np.float32(WALL_Z)

    def test_floor_depth_matches_formula(self):
        spec = _static_spec()
        bundle, gt = generate(spec)
        cam = bundle.cameras[0]
        v = spec.height - 1
        expected = cam.fy * FLOOR_Y / (v - cam.cy)
        if expected < WALL_Z:  # floor visible at the bottom row
            got = float(gt.true_depths[0, v, spec.width // 2])
            assert got == pytest.approx(expected, abs=1e-4)

    def test_every_pixel_hit(self):
        bundle, gt = generate(_static_spec())
        assert (gt.true_depths > 0).all()

    def test_static_scene_has_empty_masks(self):
        bundle, gt = generate(_static_spec())
        assert not bundle.gt_masks.any()
        assert (gt.instances == -1).all()

    def test_mover_renders_in_every_frame(self):
        bundle, _ = generate(_mover_spec())
        for f in range(bundle.frames):
            assert bundle.gt_masks[f].sum() > 50

    def test_zero_velocity_mover_is_static(self):
        spec = _mover_spec(velocity=(0.0, 0.0, 0.0))
        bundle, gt = generate(spec)
        assert (gt.instances == 0).any()  # rendered
        assert not bundle.gt_masks.any()         # but not labeled dynamic

    def test_mover_nearer_than_background(self):
        bundle, gt = generate(_mover_spec())
        on = gt.instances[0] >= 0
        assert (gt.true_depths[0][on] < 7.0).all()

    def test_box_mover_renders(self):
        mover = MoverSpec(shape="box", size=0.6,
                          start=np.array([0.0, 0.0, 3.0]),
                          velocity=np.array([0.1, 0.0, 0.0]),
                          color=np.array([0.2, 0.5, 0.9]))
        spec = SceneSpec(frames=4, width=64, height=48, patch=8,
                         movers=[mover])
        bundle, gt = generate(spec)
        assert bundle.gt_masks[0].sum() > 20
        on = gt.instances[0] == 0
        diff = np.abs(bundle.images[0][on] - np.array([0.2, 0.5, 0.9]))
        assert diff.max() < 1e-6

    def test_bundle_validates(self):
        bundle, _ = generate(_mover_spec())
        validate_bundle(bundle)


def _box_spec():
    mover = MoverSpec(shape="box", size=0.6, start=np.array([0.0, 0.0, 3.0]),
                      velocity=np.array([0.1, 0.05, 0.0]),
                      color=np.array([0.2, 0.5, 0.9]))
    return SceneSpec(frames=4, width=64, height=48, patch=8, movers=[mover])


def _coincident_spec():
    # two spheres on one track: every ray that meets them meets both at
    # the same parameter, and the lower mover index must take it
    movers = [MoverSpec(shape="sphere", size=0.5, start=np.array([0.3, 0.0, 3.2]),
                        velocity=np.array([0.05, 0.1, 0.0]), color=np.array(rgb))
              for rgb in ((0.9, 0.2, 0.1), (0.1, 0.3, 0.9))]
    return SceneSpec(frames=4, width=64, height=48, patch=8, movers=movers)


_ORACLE_SPECS = {
    **{f"corpus-{k:02d}": spec for k, spec in enumerate(corpus_specs())},
    "box": _box_spec(),
    "static-mover": _mover_spec(frames=4, velocity=(0.0, 0.0, 0.0)),
    "coincident": _coincident_spec(),
}
# CI's bounded-memory scene is corpus member 0 at 640x480x12
_TRACK_SPECS = {**_ORACLE_SPECS, "ci-640x480x12": corpus_specs(
    1, frames=12, width=640, height=480)[0]}


def _assert_frames_match_oracle(spec, bundle, gt):
    """Depth, colour and instance maps equal a frame-by-frame render."""
    for f, cam in enumerate(bundle.cameras):
        depth, color, instance = render_frame(spec, cam, f)
        np.testing.assert_array_equal(gt.true_depths[f],
                                      depth.astype(np.float32))
        np.testing.assert_array_equal(
            bundle.images[f], np.clip(color, 0.0, 1.0).astype(np.float32))
        np.testing.assert_array_equal(gt.instances[f], instance)


class TestSharedRays:
    """Rays cast once per scene render what per-frame rays would."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_SPECS))
    def test_matches_per_frame_render(self, name):
        spec = _ORACLE_SPECS[name]
        bundle, gt = generate(spec)
        _assert_frames_match_oracle(spec, bundle, gt)

    def test_coincident_movers_lower_index_wins(self):
        bundle, gt = generate(_coincident_spec())
        assert (gt.instances == 0).sum() > 100
        assert not (gt.instances == 1).any()
        on = gt.instances == 0
        np.testing.assert_array_equal(
            bundle.images[on], np.broadcast_to(
                np.float32([0.9, 0.2, 0.1]), (int(on.sum()), 3)))

    def test_rays_computed_once_per_scene(self, monkeypatch):
        calls = []
        cast = synthetic._ray_directions

        def recorded(pixels, cam):
            calls.append(len(pixels))
            return cast(pixels, cam)

        monkeypatch.setattr(synthetic, "_ray_directions", recorded)
        spec = _mover_spec(frames=6)
        generate(spec)
        assert calls == [spec.width * spec.height]

    @pytest.mark.parametrize("name", sorted(_TRACK_SPECS))
    def test_track_cameras_differ_only_in_centre_x(self, name):
        # generate casts the first camera's rays for every frame, which
        # holds while the track shares K, R and the centre's y and z
        first, *rest = _TRACK_SPECS[name].cameras()
        for cam in rest:
            np.testing.assert_array_equal(cam.K, first.K)
            np.testing.assert_array_equal(cam.R, first.R)
            np.testing.assert_array_equal(cam.center[1:], first.center[1:])


class TestRigidConsistency:
    """Reprojecting true depth between frames must land on the surface."""

    def test_static_scene_consistency(self):
        spec = _static_spec(frames=4)
        bundle, gt = generate(spec)
        rng = np.random.default_rng(42)
        h, w = spec.height, spec.width
        rows = rng.integers(0, h, 200)
        cols = rng.integers(0, w, 200)
        pixels = np.stack([cols, rows], axis=1).astype(np.float64)
        for tgt in range(1, spec.frames):
            depths = gt.true_depths[0, rows, cols].astype(np.float64)
            uv, z = project_rigid_batch(pixels, depths, bundle.cameras[0],
                                        bundle.cameras[tgt])
            inb = ((z > 0) & (uv[:, 0] >= 0) & (uv[:, 0] <= w - 1)
                   & (uv[:, 1] >= 0) & (uv[:, 1] <= h - 1))
            assert inb.sum() > 100
            oracle, _ = cast_depth(spec, bundle.cameras[tgt], tgt, uv[inb])
            ok = oracle > 0
            assert ok.all()
            np.testing.assert_allclose(z[inb], oracle, atol=1e-3)

    def test_background_consistency_with_mover(self):
        spec = _mover_spec(frames=5)
        bundle, gt = generate(spec)
        rng = np.random.default_rng(42)
        static = np.flatnonzero((gt.instances[0] < 0).ravel())
        pick = rng.choice(static, size=300, replace=False)
        rows, cols = np.unravel_index(pick, (spec.height, spec.width))
        pixels = np.stack([cols, rows], axis=1).astype(np.float64)
        depths = gt.true_depths[0, rows, cols].astype(np.float64)
        uv, z = project_rigid_batch(pixels, depths, bundle.cameras[0],
                                    bundle.cameras[3])
        inb = ((z > 0) & (uv[:, 0] >= 0) & (uv[:, 0] <= spec.width - 1)
               & (uv[:, 1] >= 0) & (uv[:, 1] <= spec.height - 1))
        oracle, inst = cast_depth(spec, bundle.cameras[3], 3, uv[inb])
        # only compare where the same static surface is visible; the mover
        # may legitimately occlude a background point in the target view
        unoccluded = inst < 0
        assert unoccluded.sum() > 200
        np.testing.assert_allclose(z[inb][unoccluded], oracle[unoccluded],
                                   atol=1e-3)


class TestMoverConsistency:
    """Rendered mover silhouettes agree with dynamic projection."""

    def test_dynamic_projection_lands_on_silhouette(self):
        spec = _mover_spec(frames=6)
        bundle, gt = generate(spec)
        interior = ndimage.binary_erosion(gt.instances[0] == 0,
                                          iterations=2)
        rows, cols = np.nonzero(interior)
        assert len(rows) > 30
        pixels = np.stack([cols, rows], axis=1).astype(np.float64)
        depths = gt.true_depths[0, rows, cols].astype(np.float64)
        for tgt in (2, 5):
            disp = gt.displacement(0, 0, tgt)
            disps = np.broadcast_to(disp, (len(rows), 3))
            uv, z = project_dynamic_world_batch(
                pixels, depths, bundle.cameras[0], bundle.cameras[tgt], disps)
            r = np.clip(np.rint(uv[:, 1]).astype(int), 0, spec.height - 1)
            c = np.clip(np.rint(uv[:, 0]).astype(int), 0, spec.width - 1)
            hits = gt.instances[tgt, r, c] == 0
            assert hits.mean() > 0.99

    def test_dynamic_projection_matches_world_translation(self):
        # moving the 3-D point and projecting it directly is the oracle
        spec = _mover_spec(frames=4)
        bundle, gt = generate(spec)
        interior = ndimage.binary_erosion(gt.instances[0] == 0, iterations=1)
        rows, cols = np.nonzero(interior)
        pixels = np.stack([cols, rows], axis=1).astype(np.float64)
        depths = gt.true_depths[0, rows, cols].astype(np.float64)
        disp = gt.displacement(0, 0, 3)
        uv, z = project_dynamic_world_batch(
            pixels, depths, bundle.cameras[0], bundle.cameras[3],
            np.broadcast_to(disp, (len(rows), 3)))
        world = unproject_pixels(pixels, depths, bundle.cameras[0]) + disp
        uv_direct, z_direct = project_points(world, bundle.cameras[3])
        np.testing.assert_allclose(uv, uv_direct, atol=1e-9)
        np.testing.assert_allclose(z, z_direct, atol=1e-9)

    def test_displacement_is_velocity_times_steps(self):
        spec = _mover_spec(velocity=(0.1, -0.02, 0.05))
        _, gt = generate(spec)
        np.testing.assert_allclose(gt.displacement(0, 1, 4),
                                   [0.3, -0.06, 0.15], atol=1e-12)


class TestNoiseAndLogits:
    def test_noise_free_depth_is_exact(self):
        bundle, gt = generate(_static_spec())
        np.testing.assert_array_equal(bundle.depths, gt.true_depths)
        assert (bundle.confidence_logits == 40.0).all()

    def test_noisy_depth_perturbs_most_pixels(self):
        spec = _static_spec()
        spec.depth_sigma = 0.02
        bundle, gt = generate(spec)
        diff = bundle.depths - gt.true_depths
        assert (diff != 0).mean() > 0.9
        assert np.abs(diff).mean() < 0.1
        assert (bundle.depths > 0).all()

    def test_logits_encode_inverse_variance(self):
        spec = _static_spec()
        spec.depth_sigma = 0.02
        spec.high_fraction = 0.3
        bundle, _ = generate(spec)
        sigma = np.stack([_sigma_map(spec, f) for f in range(spec.frames)])
        expected = np.float32(-2.0) * np.log(sigma.astype(np.float32))
        np.testing.assert_allclose(bundle.confidence_logits, expected,
                                   atol=1e-5)

    def test_high_noise_tiles_have_ten_x_sigma(self):
        spec = _static_spec()
        spec.depth_sigma = 0.02
        spec.high_fraction = 0.3
        sigma = np.stack([_sigma_map(spec, f) for f in range(spec.frames)])
        values = np.unique(sigma)
        assert len(values) == 2
        assert values[1] == pytest.approx(10 * values[0], rel=1e-6)
        frac = (sigma == values[1]).mean()
        assert 0.05 < frac < 0.7

    def test_noise_differs_between_frames(self):
        spec = _static_spec()
        spec.depth_sigma = 0.02
        bundle, gt = generate(spec)
        d0 = bundle.depths[0] - gt.true_depths[0]
        d1 = bundle.depths[1] - gt.true_depths[1]
        assert not np.allclose(d0, d1)


class TestAttention:
    def test_shapes(self):
        spec = _mover_spec()
        bundle, _ = generate(spec)
        hp, wp = spec.height // spec.patch, spec.width // spec.patch
        assert bundle.attention.shape == (spec.frames, 8, hp, wp)

    def test_signal_heads_follow_silhouette(self):
        spec = _mover_spec()
        bundle, _ = generate(spec)
        hp, wp = spec.height // spec.patch, spec.width // spec.patch
        pooled = bundle.gt_masks[0].reshape(hp, spec.patch, wp, spec.patch
                                     ).mean(axis=(1, 3))
        signal = bundle.attention[0, 0].astype(np.float64)
        # peak of the signal head sits on the densest silhouette patch
        assert signal.max() > 0
        peak = np.unravel_index(signal.argmax(), signal.shape)
        assert pooled[peak] > 0.5

    def test_signal_heads_identical(self):
        spec = _mover_spec()
        bundle, _ = generate(spec)
        np.testing.assert_array_equal(bundle.attention[0, 0],
                                      bundle.attention[0, 1])

    def test_noise_heads_bounded_and_distinct(self):
        spec = _mover_spec()
        bundle, _ = generate(spec)
        for h in range(SIGNAL_HEADS, 8):
            head = bundle.attention[0, h]
            assert (head >= NOISE_BASE - 1e-6).all()
            assert (head <= NOISE_BASE + NOISE_AMP + 1e-6).all()
        assert not np.array_equal(bundle.attention[0, 2],
                                  bundle.attention[0, 3])

    def test_variance_weighting_prefers_signal(self):
        spec = _mover_spec()
        bundle, _ = generate(spec)
        weights = attention.effective_weights(
            bundle.attention[0].astype(np.float64))
        assert weights[:2].sum() > 0.5


class TestDeterminism:
    def _digest_dir(self, root: Path) -> dict:
        table = {}
        for path in sorted(root.rglob("*")):
            if path.is_file():
                table[str(path.relative_to(root))] = hashlib.sha256(
                    path.read_bytes()).hexdigest()
        return table

    def test_same_seed_same_bytes(self, tmp_path):
        spec = _mover_spec(seed=9)
        spec.depth_sigma = 0.02
        spec.high_fraction = 0.25
        generate(spec, tmp_path / "a")
        generate(spec, tmp_path / "b")
        da = self._digest_dir(tmp_path / "a")
        db = self._digest_dir(tmp_path / "b")
        assert da and da == db

    def test_seed_changes_outputs(self, tmp_path):
        spec_a = _mover_spec(seed=1)
        spec_a.depth_sigma = 0.02
        spec_b = _mover_spec(seed=2)
        spec_b.depth_sigma = 0.02
        ba, _ = generate(spec_a)
        bb, _ = generate(spec_b)
        assert not np.array_equal(ba.depths, bb.depths)
        assert not np.array_equal(ba.attention, bb.attention)

    def _assert_every_file_named(self, root: Path):
        # the two manifests and the one file per stack that they name
        named = {"scene.json", "gt.json"}
        for manifest in named.copy():
            raw = json.loads((root / manifest).read_text())
            named.update(v for v in raw.values() if isinstance(v, str))
        assert len(named) == 9
        assert {p.name for p in root.iterdir()} == named

    def test_every_file_is_named_by_a_manifest(self, tmp_path):
        spec = _mover_spec(seed=4)
        spec.depth_sigma = 0.02
        generate(spec, tmp_path)
        self._assert_every_file_named(tmp_path)

    def test_every_file_is_named_after_regenerating_shorter(self, tmp_path):
        # a stack file holds every frame, so a longer scene leaves none
        generate(_mover_spec(seed=4, frames=9), tmp_path)
        spec = _mover_spec(seed=4)
        spec.depth_sigma = 0.02
        generate(spec, tmp_path)
        self._assert_every_file_named(tmp_path)

    def test_regenerating_keeps_other_files(self, tmp_path):
        # generate replaces its own stack files and touches no other file
        generate(_mover_spec(seed=4, frames=8), tmp_path)
        others = ["notes.txt", "img_0007.dmt", "mask_0007.pgm", "img_7.dmt"]
        for name in others:
            (tmp_path / name).write_text("kept")
        generate(_mover_spec(seed=4, frames=6), tmp_path)
        assert all((tmp_path / name).read_text() == "kept" for name in others)
        assert load_scene(tmp_path).frames == 6

    def test_scene_roundtrip_via_loader(self, tmp_path):
        spec = _mover_spec(seed=3)
        bundle, gt = generate(spec, tmp_path)
        loaded = load_scene(tmp_path)
        np.testing.assert_array_equal(loaded.depths, bundle.depths)
        np.testing.assert_array_equal(loaded.attention, bundle.attention)
        shape = (spec.frames, spec.height, spec.width)
        manifest = json.loads((tmp_path / "scene.json").read_text())
        np.testing.assert_array_equal(
            read_stack(tmp_path, manifest, "gt_masks", shape[0], shape[1:],
                       ext="pgm"), bundle.gt_masks)
        gt2 = load_ground_truth(tmp_path, shape)
        np.testing.assert_array_equal(gt2.true_depths, gt.true_depths)
        np.testing.assert_array_equal(gt2.instances, gt.instances)
        np.testing.assert_array_equal(gt2.mover_positions, gt.mover_positions)


class TestGroundTruthChecks:
    SPEC = _mover_spec(seed=3, frames=4)
    SHAPE = (SPEC.frames, SPEC.height, SPEC.width)

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("gt") / "scene"
        generate(self.SPEC, root)
        return root

    @pytest.mark.parametrize("breakage", sorted(GT_BREAKAGES))
    def test_malformed_ground_truth_rejected(self, scene, tmp_path,
                                             breakage):
        broken = tmp_path / "scene"
        shutil.copytree(scene, broken)
        manifest = json.loads((broken / "gt.json").read_text())
        GT_BREAKAGES[breakage](manifest, broken)
        (broken / "gt.json").write_text(json.dumps(manifest))
        with pytest.raises(SceneFormatError):
            load_ground_truth(broken, self.SHAPE)

    @pytest.mark.parametrize("breakage, match", [
        ("short-list", r"instances file \S*gt_inst.dmt holds 3 frames, "
                       "expected 4"),
        ("per-frame-list",
         "'true_depths' lists one file per frame.*dynmask generate"),
    ])
    def test_stack_errors_name_the_file_or_key(self, scene, tmp_path,
                                               breakage, match):
        broken = tmp_path / "scene"
        shutil.copytree(scene, broken)
        manifest = json.loads((broken / "gt.json").read_text())
        GT_BREAKAGES[breakage](manifest, broken)
        (broken / "gt.json").write_text(json.dumps(manifest))
        with pytest.raises(SceneFormatError, match=match):
            load_ground_truth(broken, self.SHAPE)


class TestCorrupt:
    def test_input_untouched(self):
        bundle, _ = generate(_mover_spec())
        before = bundle.depths.copy(), bundle.attention.copy()
        corrupt(bundle, outlier_points=10, seed=1)
        np.testing.assert_array_equal(bundle.depths, before[0])
        np.testing.assert_array_equal(bundle.attention, before[1])

    def test_outlier_cells_reach_head_maximum(self):
        bundle, _ = generate(_mover_spec())
        out = corrupt(bundle, outlier_points=12, seed=7)
        cells = count_injected_cells(bundle, out)
        assert len(cells) == 12
        head_max = bundle.attention.max(axis=(2, 3))
        for f, pi, pj in cells:
            np.testing.assert_allclose(out.attention[f, :, pi, pj],
                                       head_max[f])

    def test_outliers_leave_one_valid_pixel(self):
        bundle, _ = generate(_mover_spec())
        out = corrupt(bundle, outlier_points=12, seed=7)
        patch = bundle.patch
        for f, pi, pj in count_injected_cells(bundle, out):
            block = out.depths[f, pi * patch:(pi + 1) * patch,
                               pj * patch:(pj + 1) * patch]
            assert (block > 0).sum() == 1

    def test_purification_removes_injected_outliers(self):
        bundle, _ = generate(_mover_spec(seed=2))
        out = corrupt(bundle, outlier_points=40, seed=11)
        masks = np.zeros((out.frames, out.height, out.width), dtype=bool)
        for f in range(out.frames):
            sal = attention.aggregate(out.attention[f].astype(np.float64))
            masks[f] = attention.binarize(sal, 0.5, patch=out.patch)
        cloud = purification.unproject_mask(out, masks)
        purified = purification.purify(cloud, tau=16)

        patch = out.patch
        centers = {(f, pi * patch + patch // 2, pj * patch + patch // 2)
                   for f, pi, pj in count_injected_cells(bundle, out)}
        pixels = list(zip(*(a.tolist() for a in np.unravel_index(
            cloud.pixel_ids, masks.shape))))
        injected_ids = [i for i in range(len(cloud)) if pixels[i] in centers]
        assert len(injected_ids) == len(centers) == 40
        removed = (~purified.alive[injected_ids]).mean()
        assert removed >= 0.9

        # the dense mover cluster must survive nearly untouched
        interior = np.stack([ndimage.binary_erosion(bundle.gt_masks[f], iterations=2)
                             for f in range(out.frames)])
        cluster = [i for i in range(len(cloud)) if interior[pixels[i]]]
        assert len(cluster) > 100
        survived = purified.alive[cluster].mean()
        assert survived >= 0.99

    def test_zero_arguments_is_identity(self):
        bundle, _ = generate(_mover_spec())
        out = corrupt(bundle)
        np.testing.assert_array_equal(out.depths, bundle.depths)
        np.testing.assert_array_equal(out.attention, bundle.attention)

    def test_corrupt_deterministic(self):
        bundle, _ = generate(_mover_spec())
        a = corrupt(bundle, outlier_points=8, seed=3)
        b = corrupt(bundle, outlier_points=8, seed=3)
        np.testing.assert_array_equal(a.depths, b.depths)
        np.testing.assert_array_equal(a.attention, b.attention)
