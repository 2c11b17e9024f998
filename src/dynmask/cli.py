"""Command-line entry points: generate, mask, eval, residuals.

Exit codes: 0 success, 1 usage error (bad flags/arguments), 2 data error
(unreadable or inconsistent inputs).  Every command is a thin wrapper over
the library functions, so scripted runs and in-process calls produce
identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, purification, synthetic
from .evaluation import MetricReport
from .geometry import epipolar_residual_batch, essential_from_poses, \
    project_dynamic_world_batch
from .pipeline import PipelineConfig, run
from .tensor_io import (SceneBundle, SceneFormatError, load_scene, read_pgm,
                        write_json, write_pgm, write_tensor)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; this project reserves 2 for
    data errors, so usage problems are remapped to exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dynmask",
                     description="Dynamic-region masking from multi-view "
                                 "bundles with attention saliency, density "
                                 "purification, and cross-view consistency.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", parents=[],
                           help="render a synthetic scene bundle from a "
                                "JSON spec")
    p_gen.add_argument("spec", help="scene spec JSON file")
    p_gen.add_argument("--out", required=True, help="output scene directory")
    p_gen.add_argument("--seed", type=int, default=None,
                       help="override the seed in the spec")
    p_gen.set_defaults(func=cmd_generate)

    p_mask = sub.add_parser("mask", help="run the mask pipeline on a scene "
                                         "directory")
    p_mask.add_argument("scene", help="scene directory (from generate)")
    p_mask.add_argument("--out", required=True, help="output directory")
    p_mask.add_argument("--config", default=None,
                        help="pipeline config JSON file")
    p_mask.add_argument("--disable-attention-weighting", action="store_true",
                        help="uniform head averaging instead of variance "
                             "weighting")
    p_mask.add_argument("--disable-purification", action="store_true",
                        help="skip the density filter")
    p_mask.add_argument("--disable-uncertainty", action="store_true",
                        help="skip cross-view consistency refinement")
    p_mask.set_defaults(func=cmd_mask)

    p_eval = sub.add_parser("eval", help="score predicted masks against "
                                         "ground truth")
    p_eval.add_argument("pred", help="prediction directory (from mask)")
    p_eval.add_argument("scene", help="scene directory with ground truth")
    p_eval.add_argument("--out", default=None,
                        help="report path (default: <pred>/report.json)")
    p_eval.set_defaults(func=cmd_eval)

    p_res = sub.add_parser("residuals",
                           help="epipolar residual maps from ground-truth "
                                "geometry")
    p_res.add_argument("scene", help="scene directory with ground truth")
    p_res.add_argument("--out", required=True, help="output directory")
    p_res.set_defaults(func=cmd_residuals)
    return parser


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as f:
        raw = json.load(f)
    if args.seed is not None:
        raw["seed"] = args.seed
    spec = synthetic.SceneSpec.from_dict(raw)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    bundle, gt = synthetic.generate(spec, out)
    print(f"generated {bundle.frames} frames ({bundle.width}x{bundle.height}),"
          f" {len(spec.movers)} movers, seed {spec.seed} -> {out}")
    return EXIT_OK


def cmd_mask(args) -> int:
    bundle = load_scene(args.scene)
    config = (PipelineConfig.from_json(args.config) if args.config
              else PipelineConfig())
    if args.disable_attention_weighting:
        config.enable_attention_weighting = False
    if args.disable_purification:
        config.enable_purification = False
    if args.disable_uncertainty:
        config.enable_uncertainty = False

    result = run(bundle, config)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for f in range(bundle.frames):
        write_pgm(result.masks[f], out / f"mask_{f:04d}.pgm")
    purification.write_ply(result.cloud, out / "cloud.ply")
    write_json({
        "config": config.to_dict(),
        "counts": result.counts,
        "head_weights": [[float(v) for v in row]
                         for row in result.head_weights],
    }, out / "pipeline.json")
    # timing varies run to run, so it lives outside the deterministic
    # pipeline.json (same inputs must produce identical bytes there)
    write_json({"seconds": result.timings}, out / "timing.json")
    print(f"masked {bundle.frames} frames: "
          f"{result.counts['initial_points']} points lifted, "
          f"{result.counts['final_points']} kept -> {out}")
    return EXIT_OK


def _load_pred_masks(pred_dir: Path, frames: int) -> np.ndarray:
    masks = []
    for f in range(frames):
        path = pred_dir / f"mask_{f:04d}.pgm"
        if not path.exists():
            raise SceneFormatError(f"missing prediction mask {path}")
        masks.append(read_pgm(path) > 127)
    return np.stack(masks)


def cmd_eval(args) -> int:
    pred_dir = Path(args.pred)
    bundle = load_scene(args.scene)
    pred_masks = _load_pred_masks(pred_dir, bundle.frames)

    if bundle.gt_masks is not None:
        report = evaluation.evaluate_masks(pred_masks, bundle.gt_masks)
    else:
        report = MetricReport()

    if bundle.gt_cameras is not None:
        report.ate = evaluation.ate(bundle.cameras, bundle.gt_cameras)

    cloud_path = pred_dir / "cloud.ply"
    gt_path = Path(args.scene) / "gt.json"
    if (cloud_path.exists() and gt_path.exists()
            and bundle.gt_masks is not None):
        positions, _, alive = purification.read_ply(cloud_path)
        pred_points = positions[alive]
        gt = synthetic.load_ground_truth(args.scene, bundle)
        # the reference surface is the true dynamic geometry: ground-truth
        # silhouettes lifted with noise-free depth
        gt_cloud = purification.unproject_mask(
            _with_depths(bundle, gt.true_depths), bundle.gt_masks)
        if len(pred_points) and len(gt_cloud):
            stats = evaluation.cloud_metrics(pred_points,
                                             gt_cloud.positions)
            report.acc_mean = stats["acc_mean"]
            report.acc_median = stats["acc_median"]
            report.comp_mean = stats["comp_mean"]
            report.comp_median = stats["comp_median"]
            report.dist_mean = stats["dist_mean"]
            report.dist_median = stats["dist_median"]

    out_path = Path(args.out) if args.out else pred_dir / "report.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(report.to_dict(), out_path)
    jm = "n/a" if report.jm is None else f"{report.jm:.4f}"
    fm = "n/a" if report.fm is None else f"{report.fm:.4f}"
    print(f"eval: JM {jm}, FM {fm} -> {out_path}")
    return EXIT_OK


def _with_depths(bundle: SceneBundle, depths: np.ndarray) -> SceneBundle:
    """Shallow bundle copy with the depth stack swapped out."""
    return SceneBundle(images=bundle.images, depths=depths,
                       confidence_logits=bundle.confidence_logits,
                       attention=bundle.attention, cameras=bundle.cameras,
                       patch=bundle.patch, gt_masks=bundle.gt_masks,
                       gt_cameras=bundle.gt_cameras)


def cmd_residuals(args) -> int:
    scene = Path(args.scene)
    bundle = load_scene(scene)
    if not (scene / "gt.json").exists():
        raise SceneFormatError(f"{scene}: residuals need ground truth "
                               "(gt.json)")
    gt = synthetic.load_ground_truth(scene, bundle)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    h, w = bundle.height, bundle.width
    pairs = []
    for f in range(bundle.frames - 1):
        ref_cam, tgt_cam = gt.cameras[f], gt.cameras[f + 1]
        ess = essential_from_poses(ref_cam, tgt_cam, unit_baseline=True)

        rows, cols = np.nonzero(gt.true_depths[f] > 0)
        pixels = np.column_stack([cols, rows]).astype(np.float64)
        depths = gt.true_depths[f][rows, cols].astype(np.float64)
        disp = np.zeros((len(rows), 3))
        inst = gt.instances[f][rows, cols]
        for i in range(gt.mover_positions.shape[0]):
            sel = inst == i
            if sel.any():
                disp[sel] = gt.displacement(i, f, f + 1)

        uv_tgt, _ = project_dynamic_world_batch(pixels, depths, ref_cam,
                                                tgt_cam, disp)
        delta = np.abs(epipolar_residual_batch(pixels, uv_tgt, ess, ref_cam))

        res_map = np.zeros((h, w), dtype=np.float32)
        res_map[rows, cols] = delta.astype(np.float32)
        write_tensor(res_map, out / f"residual_{f:04d}_{f + 1:04d}.dmt")

        mover = inst >= 0
        entry = {
            "ref": f, "tgt": f + 1,
            "background_median": float(np.median(delta[~mover]))
            if (~mover).any() else None,
            "background_max": float(delta[~mover].max())
            if (~mover).any() else None,
            "mover_median": float(np.median(delta[mover]))
            if mover.any() else None,
            "mover_max": float(delta[mover].max()) if mover.any() else None,
        }
        pairs.append(entry)

    bg = [p["background_median"] for p in pairs
          if p["background_median"] is not None]
    mv = [p["mover_median"] for p in pairs if p["mover_median"] is not None]
    summary = {
        "pairs": pairs,
        "overall": {
            "background_median": float(np.median(bg)) if bg else None,
            "mover_median": float(np.median(mv)) if mv else None,
        },
    }
    write_json(summary, out / "residuals.json")
    bg_txt = ("n/a" if summary["overall"]["background_median"] is None
              else f"{summary['overall']['background_median']:.3e}")
    mv_txt = ("n/a" if summary["overall"]["mover_median"] is None
              else f"{summary['overall']['mover_median']:.3e}")
    print(f"residuals over {len(pairs)} pairs: background median {bg_txt}, "
          f"mover median {mv_txt} -> {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (1) or --help (0)
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        message = str(exc) or type(exc).__name__  # a bare MemoryError is blank
        print(f"dynmask {args.command}: error: {message}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
