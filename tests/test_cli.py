"""Tests for the command-line interface.

Covers exit codes (0 success, 1 usage, 2 data), artifact layout, byte
determinism of the pipeline outputs, and agreement between CLI runs and
direct library calls on the same scene.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from dynmask import cli, evaluation, tensor_io
from dynmask.cli import main
from dynmask.pipeline import PipelineConfig, run
from dynmask.synthetic import SceneSpec, _sigma_map
from dynmask.tensor_io import (load_scene, read_pgm, read_stack, read_tensor,
                               write_pgm, write_stack, write_tensor)
from oracles import GT_BREAKAGES

SPEC = {
    "seed": 9,
    "frames": 5,
    "width": 96,
    "height": 72,
    "patch": 8,
    "movers": [
        {"shape": "sphere", "size": 0.35, "start": [0.2, -0.2, 3.0],
         "velocity": [0.01, 0.12, 0.0], "color": [0.85, 0.3, 0.1]},
    ],
    "noise": {"depth_sigma": 0.02, "high_fraction": 0.25},
}

STATIC_SPEC = {"seed": 4, "frames": 4, "width": 80, "height": 64,
               "patch": 8, "movers": []}


def _write_spec(path, spec):
    path.write_text(json.dumps(spec))
    return str(path)


def _digest_dir(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(
                p.read_bytes()).hexdigest()
    return out


# the input tensors of a scene, which only `dynmask mask` reads
INPUT_FILES = ("img.dmt", "depth.dmt", "conf.dmt", "attn.dmt")
# the ground truth of a scene, which `dynmask mask` never reads
GT_FILES = ("gt_mask.pgm", "gt_depth.dmt", "gt_inst.dmt", "gt.json")
# every file of a generated scene directory: one file per stack
SCENE_FILES = {*INPUT_FILES, *GT_FILES, "scene.json"}


def _scene_argv(command, scene, pred_dir, out):
    """argv that runs `command` on `scene`, writing under `out`."""
    if command == "eval":
        return ["eval", str(pred_dir), str(scene),
                "--out", str(out / "report.json")]
    return [command, str(scene), "--out", str(out)]


def _per_command(cases, ids):
    """pytest params running each case under every command that reads
    scene.json; mask's cases keep their plain ids."""
    return [pytest.param(command, *case,
                         id=case_id if command == "mask"
                         else f"{command}-{case_id}")
            for command in ("mask", "eval", "residuals")
            for case, case_id in zip(cases, ids)]


def _eval_and_residuals(scene, pred_dir, out):
    """Every file `dynmask eval` and `dynmask residuals` write for `scene`,
    by path under `out`."""
    assert main(["eval", str(pred_dir), str(scene),
                 "--out", str(out / "report.json")]) == 0
    assert main(["residuals", str(scene), "--out", str(out / "res")]) == 0
    return {p.relative_to(out): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("scene")
    spec = _write_spec(base / "spec.json", SPEC)
    out = base / "bundle"
    assert main(["generate", spec, "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def pred_dir(tmp_path_factory, scene_dir):
    out = tmp_path_factory.mktemp("pred") / "masks"
    assert main(["mask", str(scene_dir), "--out", str(out)]) == 0
    return out


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_missing_required_out(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "spec.json", SPEC)
        assert main(["generate", spec]) == 1
        capsys.readouterr()

    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["mask", str(tmp_path), "--out", str(tmp_path / "o"),
                     "--frobnicate"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out


class TestGenerate:
    def test_scene_layout(self, scene_dir):
        manifest = json.loads((scene_dir / "scene.json").read_text())
        assert manifest["frames"] == SPEC["frames"]
        gt = json.loads((scene_dir / "gt.json").read_text())
        # each stack is one file that its manifest names
        assert {manifest[key] for key in ("images", "depths", "confidences",
                                          "attentions", "gt_masks")} | {
            gt["true_depths"], gt["instances"], "scene.json", "gt.json"
        } == SCENE_FILES
        assert {p.name for p in scene_dir.iterdir()} == SCENE_FILES
        # generated scenes load back cleanly, the pipeline's inputs only
        bundle = load_scene(scene_dir)
        assert bundle.frames == SPEC["frames"]
        assert bundle.gt_masks is None

    def test_byte_deterministic(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", SPEC)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", spec, "--out", str(a)]) == 0
        assert main(["generate", spec, "--out", str(b)]) == 0
        assert _digest_dir(a) == _digest_dir(b)

    def test_seed_override_changes_output(self, tmp_path):
        # each spec file overrides SPEC's seed
        a, b = tmp_path / "a", tmp_path / "b"
        for seed, out in ((1, a), (2, b)):
            spec = _write_spec(tmp_path / f"spec{seed}.json",
                               {**SPEC, "seed": seed})
            assert main(["generate", spec, "--out", str(out)]) == 0
        assert _digest_dir(a) != _digest_dir(b)

    @pytest.mark.parametrize("seed, code", [
        (2 ** 64 - 1, 0), (2 ** 64, 2), (-1, 2),
    ], ids=["largest", "2**64", "negative"])
    def test_seed_override_range(self, tmp_path, capsys, seed, code):
        # random streams key on the seed modulo 2**64, so seed 2**64 used
        # to write the scene of seed 0
        spec = _write_spec(tmp_path / "spec.json", {**SPEC, "seed": seed})
        out = tmp_path / "o"
        assert main(["generate", spec, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert ("dynmask generate: error: seed" in err) == bool(code)
        assert out.exists() == (not code)

    def test_seed_flag_is_a_usage_error(self, tmp_path, capsys):
        # the seed is set in the spec only
        spec = _write_spec(tmp_path / "spec.json", SPEC)
        out = tmp_path / "o"
        assert main(["generate", spec, "--out", str(out),
                     "--seed", "1"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", str(bad), "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("change", [
        {"movers": [{"shape": "sphere", "start": [0, 0, 3]}]},
        {"noise": {"depth_sigma": 0.02, "high_frac": 0.25}},
        {"frames": 3.7}, {"seed": 10 ** 400},
    ], ids=["mover-without-size", "unknown-key", "fractional-frames",
            "huge-seed"])
    def test_malformed_spec_is_data_error(self, tmp_path, capsys, change):
        path = _write_spec(tmp_path / "spec.json", dict(SPEC, **change))
        out = tmp_path / "o"
        assert main(["generate", path, "--out", str(out)]) == 2
        assert "dynmask generate: error:" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_mover_shape(self, tmp_path, capsys):
        spec = dict(SPEC, movers=[{"shape": "pyramid", "size": 1.0,
                                   "start": [0, 0, 3]}])
        path = _write_spec(tmp_path / "spec.json", spec)
        assert main(["generate", path, "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()


class TestMask:
    def test_artifacts_exist(self, pred_dir):
        for f in range(SPEC["frames"]):
            assert (pred_dir / f"mask_{f:04d}.pgm").exists()
        assert (pred_dir / "cloud.ply").exists()
        assert (pred_dir / "pipeline.json").exists()
        timing = json.loads((pred_dir / "timing.json").read_text())
        assert set(timing["seconds"]) == {"saliency", "unproject",
                                          "purification", "refinement",
                                          "write"}

    def test_pipeline_json_contents(self, pred_dir):
        blob = json.loads((pred_dir / "pipeline.json").read_text())
        assert blob["config"] == PipelineConfig().to_dict()
        for key in ("initial_mask_pixels", "final_mask_pixels",
                    "final_points"):
            assert key in blob["counts"]
        assert len(blob["head_weights"]) == SPEC["frames"]

    def test_deterministic_artifacts(self, tmp_path, scene_dir):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["mask", str(scene_dir), "--out", str(a)]) == 0
        assert main(["mask", str(scene_dir), "--out", str(b)]) == 0
        da, db = _digest_dir(a), _digest_dir(b)
        # timing is wall clock and may differ; everything else is fixed
        da.pop("timing.json"), db.pop("timing.json")
        assert da == db

    def test_shorter_scene_replaces_longer_masks(self, tmp_path):
        # masking a 6-frame scene into the directory of an 8-frame run
        # removes the two masks the shorter scene has no frame for
        small = {**SPEC, "width": 32, "height": 24, "frames": 8}
        out = tmp_path / "pred"
        for frames in (8, 6):
            spec = _write_spec(tmp_path / f"spec{frames}.json",
                               {**small, "frames": frames})
            scene = tmp_path / f"scene{frames}"
            assert main(["generate", spec, "--out", str(scene)]) == 0
            assert main(["mask", str(scene), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("mask_*.pgm")) == [
            f"mask_{f:04d}.pgm" for f in range(6)]
        assert main(["eval", str(out), str(tmp_path / "scene6")]) == 0

    def test_needs_no_ground_truth(self, tmp_path, scene_dir, pred_dir):
        # mask reads the pipeline's inputs only: with the ground-truth files
        # gone, though scene.json still names gt_mask.pgm, it writes the
        # same bytes
        bare = tmp_path / "bare"
        shutil.copytree(scene_dir, bare)
        for name in GT_FILES:
            (bare / name).unlink()
        assert "gt_masks" in json.loads((bare / "scene.json").read_text())
        out = tmp_path / "pred"
        assert main(["mask", str(bare), "--out", str(out)]) == 0
        written = _digest_dir(out)
        written.pop("timing.json")
        assert set(written) == {"cloud.ply", "pipeline.json", *(
            f"mask_{f:04d}.pgm" for f in range(SPEC["frames"]))}
        full = _digest_dir(pred_dir)
        assert written == {name: full[name] for name in written}

    def test_keeps_files_that_are_no_frame_mask(self, tmp_path, scene_dir):
        # only numbered masks past the scene's frames are removed
        out = tmp_path / "pred"
        out.mkdir()
        others = ["mask_notes.pgm", "mask_7.pgm", "mask_0099.png"]
        for name in others:
            (out / name).write_text("kept")
        assert main(["mask", str(scene_dir), "--out", str(out)]) == 0
        assert all((out / name).read_text() == "kept" for name in others)

    def test_matches_library_run(self, scene_dir, pred_dir):
        bundle = load_scene(scene_dir)
        result = run(bundle, PipelineConfig())
        for f in range(bundle.frames):
            got = read_pgm(pred_dir / f"mask_{f:04d}.pgm") > 127
            assert np.array_equal(got, result.masks[f])

    def test_disable_flags_recorded_and_applied(self, tmp_path, scene_dir,
                                                pred_dir):
        out = tmp_path / "ablated"
        assert main(["mask", str(scene_dir), "--out", str(out),
                     "--disable-uncertainty",
                     "--disable-attention-weighting"]) == 0
        cfg = json.loads((out / "pipeline.json").read_text())["config"]
        assert cfg["enable_uncertainty"] is False
        assert cfg["enable_attention_weighting"] is False
        assert cfg["enable_purification"] is True
        default = (pred_dir / "mask_0000.pgm").read_bytes()
        assert (out / "mask_0000.pgm").read_bytes() != default

    def test_config_file_applied(self, tmp_path, scene_dir):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"theta_dyn": 0.3}))
        out = tmp_path / "out"
        assert main(["mask", str(scene_dir), "--out", str(out),
                     "--config", str(cfg_path)]) == 0
        blob = json.loads((out / "pipeline.json").read_text())
        assert blob["config"]["theta_dyn"] == 0.3

    def test_unknown_config_key(self, tmp_path, scene_dir, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert main(["mask", str(scene_dir), "--out",
                     str(tmp_path / "out"), "--config", str(cfg_path)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [
        {"enable_purification": "false"}, {"tau": 16.9}, {"tau": True},
        {"r_factor": "0.02"}, {"theta_dyn": float("nan")},
        {"occlusion_tolerance": float("inf")}, {"tau": 10 ** 400},
        {"theta_dyn": 10 ** 400},
    ])
    def test_mistyped_config_value(self, tmp_path, scene_dir, capsys, raw):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert main(["mask", str(scene_dir), "--out", str(out),
                     "--config", str(cfg_path)]) == 2
        assert next(iter(raw)) in capsys.readouterr().err
        assert not out.exists()

    def test_infinite_depth_rejected(self, tmp_path, scene_dir, capsys):
        # one inf depth pixel used to make the purification radius
        # infinite and empty every mask with exit 0
        bad = tmp_path / "bad"
        shutil.copytree(scene_dir, bad)
        depth = read_tensor(bad / "depth.dmt")
        depth[0, 0, 0] = np.inf
        write_tensor(depth, bad / "depth.dmt")
        out = tmp_path / "out"
        assert main(["mask", str(bad), "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_memory_is_data_error(self, tmp_path, scene_dir, capsys,
                                         monkeypatch):
        # an input too large for memory is a data error, not a traceback
        def exhausted(bundle, config):
            raise MemoryError()

        monkeypatch.setattr(cli, "run", exhausted)
        out = tmp_path / "out"
        assert main(["mask", str(scene_dir), "--out", str(out)]) == 2
        assert "error: MemoryError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, field",
                             _per_command([("R",), ("fx",)], ["R", "fx"]))
    def test_camera_missing_field(self, tmp_path, scene_dir, pred_dir, capsys,
                                  command, field):
        bad = tmp_path / "bad"
        shutil.copytree(scene_dir, bad)
        manifest = json.loads((bad / "scene.json").read_text())
        del manifest["cameras"][1][field]
        (bad / "scene.json").write_text(json.dumps(manifest))
        assert main(_scene_argv(command, bad, pred_dir, tmp_path / "out")) == 2
        assert (f"dynmask {command}: error: camera missing"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("command, key, value", _per_command(
        [("frames", 10 ** 400), ("fx", True), ("fx", "38.4")],
        ["huge-frames", "fx-bool", "fx-string"]))
    def test_mistyped_manifest_value(self, tmp_path, scene_dir, pred_dir,
                                     capsys, command, key, value):
        # a bool or string focal length used to load; a 400-digit frame
        # count used to end in an OverflowError traceback
        bad = tmp_path / "bad"
        shutil.copytree(scene_dir, bad)
        manifest = json.loads((bad / "scene.json").read_text())
        (manifest["cameras"][0] if key == "fx" else manifest)[key] = value
        (bad / "scene.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        assert main(_scene_argv(command, bad, pred_dir, out)) == 2
        assert f"{key} " in capsys.readouterr().err
        assert not out.exists()

    def test_missing_scene(self, tmp_path, capsys):
        assert main(["mask", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()


class TestMaskFiles:
    """Prediction masks are mask_NNNN.pgm, one a frame; those past a
    scene's end are found by the same rule in mask and eval."""

    def test_five_digit_frames_are_frames(self, tmp_path):
        for name in ("mask_0002.pgm", "mask_0003.pgm", "mask_10000.pgm",
                     "mask_7.pgm", "mask_0003.dmt", "gt_mask_0004.pgm"):
            (tmp_path / name).write_text("")
        assert cli._stale_masks(tmp_path, 3) == [
            tmp_path / "mask_0003.pgm", tmp_path / "mask_10000.pgm"]

    def test_missing_directory_has_no_stale_frames(self, tmp_path):
        assert cli._stale_masks(tmp_path / "absent", 3) == []


class TestEval:
    def test_report_metrics(self, scene_dir, pred_dir):
        assert main(["eval", str(pred_dir), str(scene_dir)]) == 0
        report = json.loads((pred_dir / "report.json").read_text())
        assert set(report) == {
            "jm", "fm", "jr", "fr", "jaccard_frames", "boundary_frames",
            "acc_mean", "acc_median", "comp_mean", "comp_median",
            "dist_mean", "dist_median"}
        for key in ("jm", "fm", "jr", "fr"):
            assert isinstance(report[key], float)
            assert 0.0 <= report[key] <= 1.0
        for key in ("acc_mean", "comp_mean", "dist_mean"):
            assert report[key] > 0.0

    def test_matches_library_metrics(self, scene_dir, pred_dir):
        frames, hw = SPEC["frames"], (SPEC["height"], SPEC["width"])
        manifest = json.loads((scene_dir / "scene.json").read_text())
        gt_masks = read_stack(scene_dir, manifest, "gt_masks", frames, hw,
                              ext="pgm")
        pred = np.stack([read_pgm(pred_dir / f"mask_{f:04d}.pgm") > 127
                         for f in range(frames)])
        expected = evaluation.evaluate_masks(pred, gt_masks)
        report = json.loads((pred_dir / "report.json").read_text())
        assert report["jm"] == pytest.approx(expected.jm, abs=1e-12)
        assert report["fm"] == pytest.approx(expected.fm, abs=1e-12)

    def test_out_flag(self, tmp_path, scene_dir, pred_dir):
        target = tmp_path / "custom" / "report.json"
        assert main(["eval", str(pred_dir), str(scene_dir),
                     "--out", str(target)]) == 0
        assert target.exists()

    def test_missing_prediction_masks(self, tmp_path, scene_dir, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["eval", str(empty), str(scene_dir)]) == 2
        capsys.readouterr()

    def test_wrong_size_prediction_mask(self, tmp_path, scene_dir, pred_dir,
                                        capsys):
        broken = tmp_path / "pred"
        shutil.copytree(pred_dir, broken)
        write_pgm(np.zeros((8, 8), dtype=bool), broken / "mask_0001.pgm")
        assert main(["eval", str(broken), str(scene_dir)]) == 2
        assert "mask_0001.pgm" in capsys.readouterr().err

    def test_prediction_mask_beyond_scene_frames(self, tmp_path, scene_dir,
                                                 pred_dir, capsys):
        # a prediction made for a longer scene is not scored
        longer = tmp_path / "pred"
        shutil.copytree(pred_dir, longer)
        shutil.copy(longer / "mask_0000.pgm", longer / "mask_0099.pgm")
        assert main(["eval", str(longer), str(scene_dir)]) == 2
        assert str(longer / "mask_0099.pgm") in capsys.readouterr().err

    def test_ignores_files_that_are_no_frame_mask(self, tmp_path, scene_dir,
                                                  pred_dir):
        extra = tmp_path / "pred"
        shutil.copytree(pred_dir, extra)
        for name in ("mask_notes.pgm", "mask_7.pgm"):
            (extra / name).write_text("not a mask")
        assert main(["eval", str(extra), str(scene_dir)]) == 0
        assert main(["eval", str(pred_dir), str(scene_dir),
                     "--out", str(tmp_path / "report.json")]) == 0
        assert ((extra / "report.json").read_bytes()
                == (tmp_path / "report.json").read_bytes())

    @pytest.mark.parametrize("header", [b"P5\nab 24\n255\n",
                                        b"P5\n-32 24\n255\n",
                                        b"P5\n32 24\n65535\n"])
    def test_malformed_prediction_mask_named(self, tmp_path, scene_dir,
                                             pred_dir, capsys, header):
        broken = tmp_path / "pred"
        shutil.copytree(pred_dir, broken)
        path = broken / "mask_0001.pgm"
        path.write_bytes(header + path.read_bytes().split(b"\n", 3)[3])
        assert main(["eval", str(broken), str(scene_dir)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_trailing_bytes_in_prediction_mask(self, tmp_path, scene_dir,
                                               pred_dir, capsys):
        broken = tmp_path / "pred"
        shutil.copytree(pred_dir, broken)
        path = broken / "mask_0001.pgm"
        path.write_bytes(path.read_bytes() + bytes(700))
        assert main(["eval", str(broken), str(scene_dir)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_wrong_size_gt_mask_named(self, tmp_path, scene_dir, pred_dir,
                                      capsys):
        broken = tmp_path / "scene"
        shutil.copytree(scene_dir, broken)
        write_pgm(np.zeros((SPEC["frames"] * 8, 8), dtype=bool),
                  broken / "gt_mask.pgm")
        assert main(["eval", str(pred_dir), str(broken),
                     "--out", str(tmp_path / "report.json")]) == 2
        assert str(broken / "gt_mask.pgm") in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("rows", [
        SPEC["frames"] * SPEC["height"] + 1,
        SPEC["frames"] * (SPEC["height"] + 1),
    ], ids=["not-whole-frames", "taller-frames"])
    @pytest.mark.parametrize("command", ["mask", "eval"])
    def test_gt_mask_rows_not_frames_times_height(self, tmp_path, scene_dir,
                                                  pred_dir, capsys, command,
                                                  rows):
        broken = tmp_path / "scene"
        shutil.copytree(scene_dir, broken)
        write_pgm(np.zeros((rows, SPEC["width"]), dtype=bool),
                  broken / "gt_mask.pgm")
        out = tmp_path / "out"
        code = main(_scene_argv(command, broken, pred_dir, out))
        err = capsys.readouterr().err
        if command == "mask":
            # mask reads no ground truth
            assert code == 0 and err == ""
            return
        assert code == 2
        assert f"gt_masks file {broken / 'gt_mask.pgm'}" in err
        assert not out.exists()

    def test_null_fields_without_ground_truth(self, tmp_path, scene_dir,
                                              pred_dir):
        bare = tmp_path / "bare"
        shutil.copytree(scene_dir, bare)
        manifest = json.loads((bare / "scene.json").read_text())
        manifest.pop("gt_masks")
        (bare / "scene.json").write_text(json.dumps(manifest))
        target = tmp_path / "report.json"
        assert main(["eval", str(pred_dir), str(bare),
                     "--out", str(target)]) == 0
        report = json.loads(target.read_text())
        assert report["jm"] is None
        assert report["acc_mean"] is None

    @pytest.mark.parametrize("cut", [-1, 1], ids=["truncated", "trailing"])
    def test_malformed_cloud_is_data_error(self, tmp_path, scene_dir,
                                           pred_dir, cut, capsys):
        broken = tmp_path / "pred"
        shutil.copytree(pred_dir, broken)
        raw = (broken / "cloud.ply").read_bytes()
        (broken / "cloud.ply").write_bytes(
            raw[:-1] if cut < 0 else raw + b"\0")
        assert main(["eval", str(broken), str(scene_dir)]) == 2
        assert "body has" in capsys.readouterr().err


@pytest.mark.parametrize("breakage", sorted(GT_BREAKAGES))
@pytest.mark.parametrize("command", ["eval", "residuals"])
def test_malformed_ground_truth_is_data_error(tmp_path, scene_dir, pred_dir,
                                              capsys, command, breakage):
    broken = tmp_path / "scene"
    shutil.copytree(scene_dir, broken)
    manifest = json.loads((broken / "gt.json").read_text())
    GT_BREAKAGES[breakage](manifest, broken)
    (broken / "gt.json").write_text(json.dumps(manifest))
    argv = ([command, str(pred_dir), str(broken), "--out",
             str(tmp_path / "report.json")] if command == "eval"
            else [command, str(broken), "--out", str(tmp_path / "res")])
    assert main(argv) == 2
    assert f"dynmask {command}: error:" in capsys.readouterr().err
    # the ground truth is checked before any output is written
    assert not (tmp_path / "res").exists()


def test_old_layout_scene_gives_identical_outputs(tmp_path, scene_dir,
                                                  pred_dir, capsys):
    # older scene directories also stored a copy of the cameras in
    # scene.json and the applied noise sigma as a gt.json stack; the
    # loaders ignore both
    old = tmp_path / "old-scene"
    shutil.copytree(scene_dir, old)
    scene = json.loads((old / "scene.json").read_text())
    scene["gt_cameras"] = scene["cameras"]
    (old / "scene.json").write_text(json.dumps(scene))
    spec = SceneSpec.from_dict(SPEC)
    gt = json.loads((old / "gt.json").read_text())
    gt["sigma_maps"] = write_stack(
        np.stack([_sigma_map(spec, f) for f in range(spec.frames)]), old,
        "gt_sigma")
    (old / "gt.json").write_text(json.dumps(gt))
    outputs = {root: _eval_and_residuals(root, pred_dir,
                                         tmp_path / f"out-{root.name}")
               for root in (scene_dir, old)}
    capsys.readouterr()
    assert len(outputs[old]) == 2 + SPEC["frames"] - 1
    assert outputs[old] == outputs[scene_dir]


def test_eval_and_residuals_need_no_input_tensors(tmp_path, scene_dir,
                                                  pred_dir, capsys):
    # eval and residuals score against the ground truth only, so a scene
    # without its images, depths, confidences and attentions gives the
    # same bytes; mask still needs them
    bare = tmp_path / "bare"
    shutil.copytree(scene_dir, bare)
    for name in INPUT_FILES:
        (bare / name).unlink()
    outputs = {root: _eval_and_residuals(root, pred_dir,
                                         tmp_path / f"out-{root.name}")
               for root in (scene_dir, bare)}
    assert len(outputs[bare]) == 2 + SPEC["frames"] - 1
    assert outputs[bare] == outputs[scene_dir]
    assert main(["mask", str(bare), "--out", str(tmp_path / "pred")]) == 2
    assert "dynmask mask: error: missing images file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["mask", "eval", "residuals"])
def test_per_frame_layout_is_data_error(tmp_path, scene_dir, pred_dir,
                                        capsys, command):
    # earlier versions listed one file per frame under each stack key; such
    # a directory is refused with a pointer to regenerate it
    old = tmp_path / "old"
    shutil.copytree(scene_dir, old)
    for manifest, keys in (("scene.json", ("images", "depths", "confidences",
                                           "attentions", "gt_masks")),
                           ("gt.json", ("true_depths", "instances"))):
        raw = json.loads((old / manifest).read_text())
        for key in keys:
            stem = raw[key].rsplit(".", 1)
            raw[key] = [f"{stem[0]}_{f:04d}.{stem[1]}"
                        for f in range(SPEC["frames"])]
        (old / manifest).write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(_scene_argv(command, old, pred_dir, out)) == 2
    err = capsys.readouterr().err
    assert f"dynmask {command}: error: manifest '" in err
    assert "lists one file per frame" in err and "dynmask generate" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "residuals"])
def test_no_input_tensor_opened(tmp_path, scene_dir, pred_dir, capsys,
                                monkeypatch, command):
    opened = []

    def spy(path):
        assert Path(path).name not in INPUT_FILES, \
            f"{command} opened the input tensor {path}"
        opened.append(Path(path).name)
        return read_tensor(path)

    monkeypatch.setattr(tensor_io, "read_tensor", spy)
    assert main(_scene_argv(command, scene_dir, pred_dir,
                            tmp_path / "out")) == 0
    capsys.readouterr()
    # the spy saw the ground truth that gt.json names
    assert "gt_depth.dmt" in opened


class TestResiduals:
    def test_static_scene_near_zero(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "spec.json", STATIC_SPEC)
        scene = tmp_path / "scene"
        assert main(["generate", spec, "--out", str(scene)]) == 0
        out = tmp_path / "res"
        assert main(["residuals", str(scene), "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "residuals.json").read_text())
        assert len(report["pairs"]) == STATIC_SPEC["frames"] - 1
        assert report["overall"]["background_median"] <= 1e-6
        assert report["overall"]["mover_median"] is None
        for f in range(STATIC_SPEC["frames"] - 1):
            assert (out / f"residual_{f:04d}_{f + 1:04d}.dmt").exists()

    def test_mover_separates_from_background(self, scene_dir, tmp_path,
                                             capsys):
        out = tmp_path / "res"
        assert main(["residuals", str(scene_dir), "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads((out / "residuals.json").read_text())
        # residuals live in normalized image units; the mover must sit
        # orders of magnitude above the numerically-zero background
        assert report["overall"]["background_median"] <= 1e-6
        assert report["overall"]["mover_median"] >= 0.01

    def test_faster_mover_larger_residual(self, tmp_path, capsys):
        medians = []
        for tag, vy in (("slow", 0.1), ("fast", 0.2)):
            spec = json.loads(json.dumps(SPEC))
            spec["movers"][0]["velocity"] = [0.0, vy, 0.0]
            path = _write_spec(tmp_path / f"{tag}.json", spec)
            scene = tmp_path / f"scene_{tag}"
            assert main(["generate", path, "--out", str(scene)]) == 0
            out = tmp_path / f"res_{tag}"
            assert main(["residuals", str(scene), "--out", str(out)]) == 0
            report = json.loads((out / "residuals.json").read_text())
            medians.append(report["overall"]["mover_median"])
        capsys.readouterr()
        assert medians[1] > 1.5 * medians[0]

    def test_degenerate_baseline_names_frame_pair(self, tmp_path, capsys):
        spec = _write_spec(tmp_path / "spec.json", STATIC_SPEC)
        scene = tmp_path / "scene"
        assert main(["generate", spec, "--out", str(scene)]) == 0
        capsys.readouterr()
        # frame 1's camera sits where frame 0's does: a zero baseline
        manifest = json.loads((scene / "scene.json").read_text())
        manifest["cameras"][1] = manifest["cameras"][0]
        (scene / "scene.json").write_text(json.dumps(manifest))
        assert main(["residuals", str(scene),
                     "--out", str(tmp_path / "res")]) == 2
        err = capsys.readouterr().err
        assert "frames 0 and 1: baseline" in err

    def test_needs_no_gt_masks(self, tmp_path, scene_dir, capsys):
        # the maps come from gt.json alone; scene.json's gt masks are eval's
        bare = tmp_path / "bare"
        shutil.copytree(scene_dir, bare)
        manifest = json.loads((bare / "scene.json").read_text())
        (bare / manifest.pop("gt_masks")).unlink()
        (bare / "scene.json").write_text(json.dumps(manifest))
        for root in (scene_dir, bare):
            assert main(["residuals", str(root),
                         "--out", str(tmp_path / f"res-{root.name}")]) == 0
        capsys.readouterr()
        assert (_digest_dir(tmp_path / "res-bare")
                == _digest_dir(tmp_path / f"res-{scene_dir.name}"))

    def test_requires_ground_truth(self, tmp_path, scene_dir, capsys):
        bare = tmp_path / "bare"
        shutil.copytree(scene_dir, bare)
        (bare / "gt.json").unlink()
        assert main(["residuals", str(bare),
                     "--out", str(tmp_path / "res")]) == 2
        assert "ground truth" in capsys.readouterr().err
