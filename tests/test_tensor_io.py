"""Round-trip and rejection tests for the tensor container and scene bundles."""

import numpy as np
import pytest

from dynmask import tensor_io
from dynmask.geometry import CameraModel
from dynmask.tensor_io import (SceneBundle, SceneFormatError, TensorFormatError,
                               load_scene, read_pgm, read_tensor, save_scene,
                               validate_bundle, write_pgm, write_tensor)


class TestTensorRoundTrip:
    def test_shapes_and_values(self, tmp_path):
        gen = np.random.default_rng(42)
        for shape in [(4,), (3, 5), (2, 3, 4), (2, 2, 2, 2), (1, 2, 3, 4, 5)]:
            arr = gen.standard_normal(shape).astype(np.float32)
            p = tmp_path / "t.dmt"
            write_tensor(arr, p)
            out = read_tensor(p)
            assert out.shape == arr.shape
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, arr)

    def test_file_size_formula(self, tmp_path):
        arr = np.ones((3, 7, 2), dtype=np.float32)
        p = tmp_path / "t.dmt"
        write_tensor(arr, p)
        assert p.stat().st_size == 5 + 4 * 3 + 4 * (3 * 7 * 2)

    def test_header_layout(self, tmp_path):
        p = tmp_path / "t.dmt"
        write_tensor(np.zeros((2, 3), dtype=np.float32), p)
        raw = p.read_bytes()
        assert raw[:4] == b"DMT1"
        assert raw[4] == 2
        assert np.frombuffer(raw, "<u4", count=2, offset=5).tolist() == [2, 3]

    def test_float64_input_narrowed(self, tmp_path):
        arr = np.array([1.0, np.pi], dtype=np.float64)
        p = tmp_path / "t.dmt"
        write_tensor(arr, p)
        np.testing.assert_array_equal(read_tensor(p), arr.astype(np.float32))

    def test_infinity_survives(self, tmp_path):
        # only NaN is banned; infinities round-trip
        p = tmp_path / "t.dmt"
        write_tensor(np.array([np.inf, -np.inf, 0.0]), p)
        out = read_tensor(p)
        assert np.isposinf(out[0]) and np.isneginf(out[1])


class TestTensorRejection:
    def test_write_nan(self, tmp_path):
        with pytest.raises(TensorFormatError, match="NaN"):
            write_tensor(np.array([1.0, np.nan]), tmp_path / "t.dmt")
        # validation precedes writing, so no partial file remains
        assert not (tmp_path / "t.dmt").exists()

    def test_write_rank(self, tmp_path):
        with pytest.raises(TensorFormatError):
            write_tensor(np.zeros((1,) * 6), tmp_path / "t.dmt")

    def test_write_zero_extent(self, tmp_path):
        with pytest.raises(TensorFormatError, match="extent"):
            write_tensor(np.zeros((3, 0)), tmp_path / "t.dmt")

    def test_read_bad_magic(self, tmp_path):
        p = tmp_path / "bad.dmt"
        p.write_bytes(b"XXXX" + bytes([1]) + (4).to_bytes(4, "little") + b"\0" * 16)
        with pytest.raises(TensorFormatError, match="magic"):
            read_tensor(p)

    def test_read_truncated(self, tmp_path):
        p = tmp_path / "t.dmt"
        write_tensor(np.arange(6, dtype=np.float32).reshape(2, 3), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-4])
        with pytest.raises(TensorFormatError, match="size"):
            read_tensor(p)

    def test_read_trailing_garbage(self, tmp_path):
        p = tmp_path / "t.dmt"
        write_tensor(np.arange(4, dtype=np.float32), p)
        p.write_bytes(p.read_bytes() + b"\0\0\0\0")
        with pytest.raises(TensorFormatError, match="size"):
            read_tensor(p)

    def test_read_nan_payload(self, tmp_path):
        p = tmp_path / "t.dmt"
        header = b"DMT1" + bytes([1]) + (1).to_bytes(4, "little")
        p.write_bytes(header + np.array([np.nan], "<f4").tobytes())
        with pytest.raises(TensorFormatError, match="NaN"):
            read_tensor(p)

    def test_read_bad_rank(self, tmp_path):
        p = tmp_path / "t.dmt"
        p.write_bytes(b"DMT1" + bytes([6]) + b"\x01\0\0\0" * 6 + b"\0" * 4)
        with pytest.raises(TensorFormatError, match="rank"):
            read_tensor(p)

    def test_read_zero_extent(self, tmp_path):
        p = tmp_path / "t.dmt"
        p.write_bytes(b"DMT1" + bytes([1]) + (0).to_bytes(4, "little"))
        with pytest.raises(TensorFormatError, match="extent"):
            read_tensor(p)


class TestPnm:
    def test_pgm_mask_round_trip(self, tmp_path):
        gen = np.random.default_rng(7)
        mask = gen.random((20, 30)) > 0.5
        p = tmp_path / "m.pgm"
        write_pgm(mask, p)
        out = read_pgm(p)
        np.testing.assert_array_equal(out > 127, mask)
        assert set(np.unique(out)) <= {0, 255}

    def test_pgm_comment_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\xff\xff\x00")
        np.testing.assert_array_equal(read_pgm(p),
                                      [[0, 255], [255, 0]])


def _tiny_bundle(frames=2, h=8, w=12, heads=3, patch=4, seed=0):
    gen = np.random.default_rng(seed)
    cams = [CameraModel(fx=10.0, fy=10.0, cx=w / 2, cy=h / 2,
                        R=np.eye(3), t=np.array([0.1 * f, 0.0, 0.0]))
            for f in range(frames)]
    return SceneBundle(
        images=gen.random((frames, h, w, 3)).astype(np.float32),
        depths=(gen.random((frames, h, w)).astype(np.float32) + 0.5),
        confidence_logits=gen.standard_normal((frames, h, w)).astype(np.float32),
        attention=gen.random((frames, heads, h // patch, w // patch)).astype(np.float32),
        cameras=cams, patch=patch,
        gt_masks=gen.random((frames, h, w)) > 0.7,
        gt_cameras=cams,
    )


class TestSceneBundle:
    def test_save_load_round_trip(self, tmp_path):
        bundle = _tiny_bundle()
        save_scene(bundle, tmp_path / "scene")
        out = load_scene(tmp_path / "scene")
        np.testing.assert_array_equal(out.images, bundle.images)
        np.testing.assert_array_equal(out.depths, bundle.depths)
        np.testing.assert_array_equal(out.confidence_logits, bundle.confidence_logits)
        np.testing.assert_array_equal(out.attention, bundle.attention)
        np.testing.assert_array_equal(out.gt_masks, bundle.gt_masks)
        assert out.patch == bundle.patch
        for a, b in zip(out.cameras, bundle.cameras):
            np.testing.assert_allclose(a.K, b.K)
            np.testing.assert_allclose(a.R, b.R)
            np.testing.assert_allclose(a.t, b.t)

    def test_properties(self):
        bundle = _tiny_bundle()
        assert (bundle.frames, bundle.height, bundle.width, bundle.heads) == (2, 8, 12, 3)

    def test_patch_divisibility(self):
        bundle = _tiny_bundle()
        bundle.patch = 5
        with pytest.raises(SceneFormatError, match="patch"):
            validate_bundle(bundle)

    def test_depth_shape_mismatch(self):
        bundle = _tiny_bundle()
        bundle.depths = bundle.depths[:, :4, :]
        with pytest.raises(SceneFormatError):
            validate_bundle(bundle)

    def test_negative_depth(self):
        bundle = _tiny_bundle()
        bundle.depths[0, 0, 0] = -1.0
        with pytest.raises(SceneFormatError, match="depth"):
            validate_bundle(bundle)

    def test_image_range(self):
        bundle = _tiny_bundle()
        bundle.images[0, 0, 0, 0] = 1.5
        with pytest.raises(SceneFormatError, match="image"):
            validate_bundle(bundle)

    def test_camera_count_mismatch(self):
        bundle = _tiny_bundle()
        bundle.cameras = bundle.cameras[:1]
        with pytest.raises(SceneFormatError, match="camera"):
            validate_bundle(bundle)

    @pytest.mark.parametrize("name", ["images", "depths", "confidence_logits",
                                      "attention"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_tensor_rejected(self, name, value):
        bundle = _tiny_bundle()
        getattr(bundle, name)[(0,) * getattr(bundle, name).ndim] = value
        with pytest.raises(SceneFormatError, match="non-finite"):
            validate_bundle(bundle)

    @pytest.mark.parametrize("which", ["cameras", "gt_cameras"])
    @pytest.mark.parametrize("params", [
        {"fx": np.inf}, {"cy": np.nan}, {"t": np.array([0.0, np.inf, 0.0])},
        {"R": np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, np.nan]])},
    ])
    def test_non_finite_camera_rejected(self, which, params):
        bundle = _tiny_bundle()
        cams = list(getattr(bundle, which))
        base = dict(fx=cams[1].fx, fy=cams[1].fy, cx=cams[1].cx,
                    cy=cams[1].cy, R=cams[1].R, t=cams[1].t)
        if "R" in params:
            # a non-finite rotation never makes it into a camera
            with pytest.raises(ValueError, match="non-finite"):
                CameraModel(**{**base, **params})
            return
        cams[1] = CameraModel(**{**base, **params})
        setattr(bundle, which, cams)
        with pytest.raises(SceneFormatError, match="non-finite"):
            validate_bundle(bundle)

    def test_load_rejects_infinite_depth(self, tmp_path):
        # the container round-trips inf, the scene loader refuses it
        bundle = _tiny_bundle()
        save_scene(bundle, tmp_path / "scene")
        depth = read_tensor(tmp_path / "scene" / "depth_0000.dmt")
        depth[2, 3] = np.inf
        write_tensor(depth, tmp_path / "scene" / "depth_0000.dmt")
        with pytest.raises(SceneFormatError, match="non-finite.*depths"):
            load_scene(tmp_path / "scene")

    def test_load_rejects_bad_rotation(self, tmp_path):
        bundle = _tiny_bundle()
        save_scene(bundle, tmp_path / "scene")
        import json
        mpath = tmp_path / "scene" / "scene.json"
        manifest = json.loads(mpath.read_text())
        manifest["cameras"][0]["R"][0] = 2.0
        mpath.write_text(json.dumps(manifest))
        with pytest.raises(SceneFormatError, match="camera"):
            load_scene(tmp_path / "scene")

    def test_load_missing_tensor(self, tmp_path):
        bundle = _tiny_bundle()
        save_scene(bundle, tmp_path / "scene")
        (tmp_path / "scene" / "depth_0001.dmt").unlink()
        with pytest.raises(SceneFormatError, match="missing"):
            load_scene(tmp_path / "scene")

    def test_manifest_is_sorted_json(self, tmp_path):
        save_scene(_tiny_bundle(), tmp_path / "scene")
        text = (tmp_path / "scene" / "scene.json").read_text()
        assert text.index('"cameras"') < text.index('"frames"') < text.index('"width"')


def test_write_json_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    tensor_io.write_json({"b": 1, "a": [1, 2]}, p1)
    tensor_io.write_json({"a": [1, 2], "b": 1}, p2)
    assert p1.read_bytes() == p2.read_bytes()
