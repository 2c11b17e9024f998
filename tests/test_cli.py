"""Tests for the command-line interface.

Covers exit codes (0 success, 1 usage, 2 data), artifact layout, byte
determinism of the pipeline outputs, and agreement between CLI runs and
direct library calls on the same scene.
"""

import hashlib
import json
import shutil

import numpy as np
import pytest

from dynmask import cli, evaluation
from dynmask.cli import main
from dynmask.pipeline import PipelineConfig, run
from dynmask.tensor_io import load_scene, read_pgm, read_tensor, write_tensor

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
        assert (scene_dir / "gt.json").exists()
        for name in (manifest["images"] + manifest["depths"]
                     + manifest["confidences"] + manifest["attentions"]):
            assert (scene_dir / name).exists()
        # generated scenes load back cleanly
        bundle = load_scene(scene_dir)
        assert bundle.frames == SPEC["frames"]
        assert bundle.gt_masks is not None

    def test_byte_deterministic(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", SPEC)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", spec, "--out", str(a)]) == 0
        assert main(["generate", spec, "--out", str(b)]) == 0
        assert _digest_dir(a) == _digest_dir(b)

    def test_seed_override_changes_output(self, tmp_path):
        spec = _write_spec(tmp_path / "spec.json", SPEC)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["generate", spec, "--out", str(a), "--seed", "1"]) == 0
        assert main(["generate", spec, "--out", str(b), "--seed", "2"]) == 0
        assert _digest_dir(a) != _digest_dir(b)

    def test_missing_spec_file(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["generate", str(bad), "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

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
        assert (pred_dir / "timing.json").exists()

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
        {"occlusion_tolerance": float("inf")},
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
        depth = read_tensor(bad / "depth_0000.dmt")
        depth[0, 0] = np.inf
        write_tensor(depth, bad / "depth_0000.dmt")
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

    def test_missing_scene(self, tmp_path, capsys):
        assert main(["mask", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "out")]) == 2
        capsys.readouterr()


class TestEval:
    def test_report_metrics(self, scene_dir, pred_dir):
        assert main(["eval", str(pred_dir), str(scene_dir)]) == 0
        report = json.loads((pred_dir / "report.json").read_text())
        for key in ("jm", "fm", "jr", "fr"):
            assert isinstance(report[key], float)
            assert 0.0 <= report[key] <= 1.0
        # estimated cameras equal the true track here, so ATE vanishes
        assert report["ate"] == pytest.approx(0.0, abs=1e-12)
        for key in ("acc_mean", "comp_mean", "dist_mean"):
            assert report[key] > 0.0

    def test_matches_library_metrics(self, scene_dir, pred_dir):
        bundle = load_scene(scene_dir)
        pred = np.stack([read_pgm(pred_dir / f"mask_{f:04d}.pgm") > 127
                         for f in range(bundle.frames)])
        expected = evaluation.evaluate_masks(pred, bundle.gt_masks)
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

    def test_null_fields_without_ground_truth(self, tmp_path, scene_dir,
                                              pred_dir):
        bare = tmp_path / "bare"
        shutil.copytree(scene_dir, bare)
        manifest = json.loads((bare / "scene.json").read_text())
        manifest.pop("gt_masks")
        manifest.pop("gt_cameras")
        (bare / "scene.json").write_text(json.dumps(manifest))
        target = tmp_path / "report.json"
        assert main(["eval", str(pred_dir), str(bare),
                     "--out", str(target)]) == 0
        report = json.loads(target.read_text())
        assert report["jm"] is None
        assert report["ate"] is None
        assert report["acc_mean"] is None


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

    def test_requires_ground_truth(self, tmp_path, scene_dir, capsys):
        bare = tmp_path / "bare"
        shutil.copytree(scene_dir, bare)
        (bare / "gt.json").unlink()
        assert main(["residuals", str(bare),
                     "--out", str(tmp_path / "res")]) == 2
        assert "ground truth" in capsys.readouterr().err
