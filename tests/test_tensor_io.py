"""Round-trip and rejection tests for the tensor container and scene bundles."""

import json

import numpy as np
import pytest

from dynmask import tensor_io
from dynmask.geometry import CameraModel
from dynmask.tensor_io import (SceneBundle, SceneFormatError, TensorFormatError,
                               load_scene, read_pgm, read_stack, read_tensor,
                               save_scene, validate_bundle, write_pgm,
                               write_stack, write_tensor)


class TestWriteAtomic:
    def test_failed_write_leaves_no_file(self, tmp_path):
        p = tmp_path / "x.bin"
        with pytest.raises(TypeError):
            tensor_io.write_atomic(p, b"ok", object())
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        p = tmp_path / "x.bin"
        tensor_io.write_atomic(p, b"old")
        with pytest.raises(TypeError):
            tensor_io.write_atomic(p, b"new", object())
        assert list(tmp_path.iterdir()) == [p]
        assert p.read_bytes() == b"old"


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

    def test_pgm_marks_every_set_pixel(self, tmp_path):
        # a mask of any dtype is written as 0/255: nonzero is set
        p = tmp_path / "m.pgm"
        write_pgm(np.array([[0, 1, 200]], dtype=np.uint8), p)
        np.testing.assert_array_equal(read_pgm(p), [[0, 255, 255]])

    def test_pgm_comment_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\xff\xff\x00")
        np.testing.assert_array_equal(read_pgm(p),
                                      [[0, 255], [255, 0]])

    @pytest.mark.parametrize("raw, match", [
        (b"P6\n2 2\n255\n" + bytes(4), "magic"),
        (b"P5\nab 2\n255\n" + bytes(4), "whole numbers"),
        (b"P5\n-2 2\n255\n" + bytes(4), "whole numbers"),
        (b"P5\n2 2.0\n255\n" + bytes(4), "whole numbers"),
        (b"P5\n0 2\n255\n", "dims"),
        (b"P5\n2 2\n65535\n" + bytes(8), "maxval"),
        (b"P5\n2 2\n", "truncated PGM header"),
        (b"P5\n2 2\n255\n" + bytes(3), "payload size 3 bytes, expected 4"),
        (b"P5\n2 2\n255\n" + bytes(704), "payload size 704 bytes"),
        (b"P5\n2 2\n255", "payload size 0 bytes"),
    ])
    def test_pgm_malformed_rejected(self, tmp_path, raw, match):
        # every error names the file, and the payload size is exact
        p = tmp_path / "bad.pgm"
        p.write_bytes(raw)
        with pytest.raises(TensorFormatError, match=match) as err:
            read_pgm(p)
        assert str(err.value).startswith(f"{p}: ")


DROP = object()  # marks a manifest entry to delete


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
    )


def _load_with_gt_masks(root):
    """Load a scene as `dynmask mask` does, then read its ground-truth
    masks as `dynmask eval` does; returns (bundle, masks)."""
    bundle = load_scene(root)
    manifest = json.loads((root / "scene.json").read_text())
    masks = read_stack(root, manifest, "gt_masks", bundle.frames,
                       (bundle.height, bundle.width), ext="pgm")
    return bundle, masks


class TestSceneBundle:
    def test_save_load_round_trip(self, tmp_path):
        bundle = _tiny_bundle()
        save_scene(bundle, tmp_path / "scene")
        out, gt_masks = _load_with_gt_masks(tmp_path / "scene")
        np.testing.assert_array_equal(out.images, bundle.images)
        np.testing.assert_array_equal(out.depths, bundle.depths)
        np.testing.assert_array_equal(out.confidence_logits, bundle.confidence_logits)
        np.testing.assert_array_equal(out.attention, bundle.attention)
        # the loader reads the pipeline's inputs only
        assert out.gt_masks is None
        np.testing.assert_array_equal(gt_masks, bundle.gt_masks)
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

    @pytest.mark.parametrize("which", ["cameras"])
    @pytest.mark.parametrize("params", [
        {"fx": np.inf}, {"cy": np.nan}, {"t": np.array([0.0, np.inf, 0.0])},
        {"R": np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, np.nan]])},
        {"fx": np.nan},
    ])
    def test_non_finite_camera_rejected(self, which, params):
        # a non-finite camera never gets built, so no bundle can hold one
        cam = getattr(_tiny_bundle(), which)[1]
        base = dict(fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy, R=cam.R,
                    t=cam.t)
        with pytest.raises(ValueError, match="non-finite"):
            CameraModel(**{**base, **params})

    def test_load_rejects_infinite_depth(self, tmp_path):
        # the container round-trips inf, the scene loader refuses it
        bundle = _tiny_bundle()
        save_scene(bundle, tmp_path / "scene")
        depth = read_tensor(tmp_path / "scene" / "depth.dmt")
        depth[0, 2, 3] = np.inf
        write_tensor(depth, tmp_path / "scene" / "depth.dmt")
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
        (tmp_path / "scene" / "depth.dmt").unlink()
        with pytest.raises(SceneFormatError, match="missing depths file"):
            load_scene(tmp_path / "scene")

    @pytest.mark.parametrize("where, value, match", [
        (("attentions",), DROP, "attentions"),
        # a list under a stack key is the per-frame layout of earlier versions
        (("depths",), ["depth_0000.dmt"], "'depths' lists one file per frame"),
        (("images",), 7, "'images' is missing or not a file name"),
        (("gt_masks",), ["gt_mask_0000.pgm"],
         "'gt_masks' lists one file per frame.*dynmask generate"),
        (("frames",), "2", "frames"),
        (("patch",), 2.5, "patch"),
        (("heads",), DROP, "heads"),
        (("height",), 16, "height"),
        (("cameras",), {}, "cameras"),
        (("cameras", 0), [1, 2], "camera"),
        (("cameras", 0, "t"), DROP, "camera missing"),
        (("cameras", 0, "fx"), None, "camera"),
        (("cameras", 0, "R"), [1.0] * 8, "camera"),
        (("cameras", 0, "fx"), True, "cameras.0. fx"),
        (("cameras", 0, "fx"), "38.4", "cameras.0. fx"),
        (("cameras", 1, "R"), ["1", "0", "0", "0", "1", "0", "0", "0", "1"],
         "cameras.1. R"),
        (("frames",), 10 ** 400, "frames"),
    ], ids=["missing-stack", "short-stack", "non-string-name",
            "short-gt-masks", "frames-string", "patch-fraction",
            "missing-heads", "height-mismatch", "cameras-object",
            "camera-list", "camera-no-t", "camera-fx-null", "camera-short-R",
            "camera-fx-bool", "camera-fx-string", "camera-R-strings",
            "frames-huge"])
    def test_malformed_manifest_rejected(self, tmp_path, where, value, match):
        save_scene(_tiny_bundle(), tmp_path / "scene")
        path = tmp_path / "scene" / "scene.json"
        manifest = json.loads(path.read_text())
        parent = manifest
        for key in where[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[where[-1]]
        else:
            parent[where[-1]] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(SceneFormatError, match=match):
            _load_with_gt_masks(tmp_path / "scene")

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]"],
                             ids=["not-json", "list"])
    def test_manifest_not_an_object(self, tmp_path, text):
        save_scene(_tiny_bundle(), tmp_path / "scene")
        (tmp_path / "scene" / "scene.json").write_text(text)
        with pytest.raises(SceneFormatError, match="scene.json"):
            load_scene(tmp_path / "scene")

    def test_frames_of_one_stack_differ_in_shape(self, tmp_path):
        # a stack whose frames differ from the images' in shape is refused;
        # a reader that knows the frame shape names the file
        root = tmp_path / "scene"
        save_scene(_tiny_bundle(), root)
        write_tensor(np.ones((2, 8, 6)), root / "conf.dmt")
        with pytest.raises(SceneFormatError, match=r"confidence dims \(8, 6\)"):
            load_scene(root)
        manifest = json.loads((root / "scene.json").read_text())
        with pytest.raises(SceneFormatError, match=(
                rf"confidences file {root / 'conf.dmt'} frame shape "
                r"\(8, 6\) != \(8, 12\)")):
            read_stack(root, manifest, "confidences", 2, (8, 12))

    @pytest.mark.parametrize("frames", [1, 3])
    def test_stack_file_with_wrong_frame_count(self, tmp_path, frames):
        root = tmp_path / "scene"
        save_scene(_tiny_bundle(), root)
        write_tensor(np.ones((frames, 8, 12)), root / "depth.dmt")
        with pytest.raises(SceneFormatError, match=(
                f"depths file {root / 'depth.dmt'} holds {frames} frames, "
                "expected 2")):
            load_scene(root)

    @pytest.mark.parametrize("rows, match", [
        (17, "17 rows do not split into 2 frames"),
        (18, r"frame shape \(9, 12\) != \(8, 12\)"),
    ])
    def test_gt_mask_rows_not_frames_times_height(self, tmp_path, rows,
                                                  match):
        root = tmp_path / "scene"
        save_scene(_tiny_bundle(), root)
        write_pgm(np.zeros((rows, 12), dtype=bool), root / "gt_mask.pgm")
        load_scene(root)  # reads no ground truth
        with pytest.raises(SceneFormatError, match=match) as err:
            _load_with_gt_masks(root)
        assert f"gt_masks file {root / 'gt_mask.pgm'}" in str(err.value)

    @pytest.mark.parametrize("gt_mask", ["missing", "malformed"])
    def test_load_reads_no_ground_truth(self, tmp_path, gt_mask):
        # the loader reads the pipeline's inputs only, so a scene whose
        # gt_mask.pgm is gone or broken still loads
        root = tmp_path / "scene"
        save_scene(_tiny_bundle(), root)
        if gt_mask == "missing":
            (root / "gt_mask.pgm").unlink()
        else:
            (root / "gt_mask.pgm").write_bytes(b"P6\n")
        assert load_scene(root).gt_masks is None

    def test_one_file_per_stack(self, tmp_path):
        bundle = _tiny_bundle()
        save_scene(bundle, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "attn.dmt", "conf.dmt", "depth.dmt", "gt_mask.pgm", "img.dmt",
            "scene.json"]
        # the masks are one PGM of the frames stacked top to bottom
        np.testing.assert_array_equal(
            read_pgm(tmp_path / "gt_mask.pgm") > 127,
            bundle.gt_masks.reshape(-1, bundle.width))

    def test_manifest_is_sorted_json(self, tmp_path):
        save_scene(_tiny_bundle(), tmp_path / "scene")
        text = (tmp_path / "scene" / "scene.json").read_text()
        assert text.index('"cameras"') < text.index('"frames"') < text.index('"width"')


class TestStackFrames:
    """A stack is one file, written over no other."""

    def test_other_files_kept(self, tmp_path):
        others = ["depth_0004.dmt", "gt_img_0004.dmt", "img_0004.pgm",
                  "img_0004.txt", "img_0004.dmt.bak", "img_7.dmt",
                  "img_notes.dmt", "notes.txt"]
        for name in others:
            (tmp_path / name).write_text("kept")
        assert write_stack(np.ones((3, 2, 3)), tmp_path, "img") == "img.dmt"
        assert all((tmp_path / name).read_text() == "kept" for name in others)


def test_write_json_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    tensor_io.write_json({"b": 1, "a": [1, 2]}, p1)
    tensor_io.write_json({"a": [1, 2], "b": 1}, p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("value, kind, want", [
    (True, "bool", True), (3, "int", 3), (3.0, "int", 3),
    pytest.param(10 ** 300, "int", 10 ** 300, id="1e300-int"),
    (0, "float", 0.0), (-2.5, "float", -2.5),
])
def test_json_value_accepted(value, kind, want):
    got = tensor_io.json_value(value, kind, "x")
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("value, kind", [
    (1, "bool"), ("true", "bool"), (None, "bool"), (3.7, "int"),
    (True, "int"), ("3", "int"),
    pytest.param(10 ** 400, "int", id="1e400-int"),
    pytest.param(-(10 ** 400), "float", id="-1e400-float"),
    (float("nan"), "float"), (float("inf"), "float"), (False, "float"),
    ("0.5", "float"), (None, "float"), ([1.0], "float"),
])
def test_json_value_rejected(value, kind):
    with pytest.raises(SceneFormatError, match="where"):
        tensor_io.json_value(value, kind, "where", SceneFormatError)


def test_json_vector_and_object():
    vec = tensor_io.json_vector([1, 2.5, 3], 3, "v")
    assert vec.dtype == np.float64 and vec.tolist() == [1.0, 2.5, 3.0]
    for bad in ([1, 2], [1, 2, "3"], "1 2 3", None):
        with pytest.raises(ValueError, match="v"):
            tensor_io.json_vector(bad, 3, "v")
    assert tensor_io.json_object({"a": 1}, "o", ("a", "b")) == {"a": 1}
    with pytest.raises(ValueError, match="unknown o keys: .'c'"):
        tensor_io.json_object({"a": 1, "c": 2}, "o", ("a", "b"))
    with pytest.raises(ValueError, match="o must be a JSON object"):
        tensor_io.json_object([], "o", ("a",))
