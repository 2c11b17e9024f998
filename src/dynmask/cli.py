"""Command-line entry points: generate, mask, eval, residuals.

Exit codes: 0 success, 1 usage error (bad flags/arguments), 2 data error
(unreadable or inconsistent inputs).  Every command is a thin wrapper over
the library functions, so scripted runs and in-process calls produce
identical artifacts.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation, purification, synthetic
from .evaluation import MetricReport
from .geometry import (epipolar_residual_batch, essential_from_poses,
                       project_points, unproject_pixels)
from .pipeline import PipelineConfig, run
from .tensor_io import (SceneFormatError, _read_header, load_scene,
                        read_pgm, read_stack, write_json, write_pgm,
                        write_tensor)

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

    p_gen = sub.add_parser("generate",
                           help="render a synthetic scene bundle from a "
                                "JSON spec")
    p_gen.add_argument("spec", help="scene spec JSON file")
    p_gen.add_argument("--out", required=True, help="output scene directory")
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
    spec = synthetic.SceneSpec.from_json(args.spec)
    out = Path(args.out)
    bundle, gt = synthetic.generate(spec, out)
    print(f"generated {bundle.frames} frames ({bundle.width}x{bundle.height}),"
          f" {len(spec.movers)} movers, seed {spec.seed} -> {out}")
    return EXIT_OK


def _mask_name(f: int) -> str:
    """File name of frame `f`'s prediction mask; `mask` writes one PGM a
    frame, and `eval` reads them."""
    return f"mask_{f:04d}.pgm"


def _stale_masks(directory: Path, frames: int) -> list[Path]:
    """Files in `directory` named ``mask_<4 or more digits>.pgm`` that
    are not one of the first `frames` frames' masks, sorted."""
    names = {_mask_name(f) for f in range(frames)}
    return sorted(path for path in directory.glob("mask_*.pgm")
                  if path.name not in names
                  and re.fullmatch(r"mask_\d{4,}\.pgm", path.name))


def cmd_mask(args) -> int:
    # the pipeline's inputs only: no ground-truth file is opened
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

    t0 = time.perf_counter()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # masks an earlier run wrote for a longer scene would fail its eval
    for path in _stale_masks(out, bundle.frames):
        path.unlink()
    for f in range(bundle.frames):
        write_pgm(result.masks[f], out / _mask_name(f))
    purification.write_ply(result.cloud, out / "cloud.ply")
    write_json({
        "config": config.to_dict(),
        "counts": result.counts,
        "head_weights": [[float(v) for v in row]
                         for row in result.head_weights],
    }, out / "pipeline.json")
    result.timings["write"] = time.perf_counter() - t0
    # timing varies run to run, so it lives outside the deterministic
    # pipeline.json (same inputs must produce identical bytes there)
    write_json({"seconds": result.timings}, out / "timing.json")
    print(f"masked {bundle.frames} frames: "
          f"{result.counts['initial_points']} points lifted, "
          f"{result.counts['final_points']} kept -> {out}")
    return EXIT_OK


def _load_pred_masks(pred_dir: Path, shape: tuple[int, int, int]
                     ) -> np.ndarray:
    """The prediction masks of a scene of (T, H, W) `shape`, as bools."""
    frames, hw = shape[0], shape[1:]
    names = [_mask_name(f) for f in range(frames)]
    # a prediction made for a longer scene must not be scored silently
    extra = _stale_masks(pred_dir, frames)
    if extra:
        raise SceneFormatError(
            f"unexpected prediction mask {extra[0]}: the scene has "
            f"{frames} frames ({names[0]} to {names[-1]})")
    masks = []
    for name in names:
        path = pred_dir / name
        if not path.exists():
            raise SceneFormatError(f"missing prediction mask {path}")
        mask = read_pgm(path) > 127
        if mask.shape != hw:
            raise SceneFormatError(
                f"{path}: mask dims {mask.shape} != scene dims {hw}")
        masks.append(mask)
    return np.stack(masks)


def cmd_eval(args) -> int:
    # eval scores against the ground truth only: scene.json's header and
    # gt masks and gt.json's stacks; the input tensors are never opened
    pred_dir, scene = Path(args.pred), Path(args.scene)
    header = _read_header(scene)
    shape = (header.frames, header.height, header.width)
    gt_masks = (read_stack(scene, header.manifest, "gt_masks", shape[0],
                           shape[1:], ext="pgm")
                if "gt_masks" in header.manifest else None)
    pred_masks = _load_pred_masks(pred_dir, shape)

    report = (MetricReport() if gt_masks is None
              else evaluation.evaluate_masks(pred_masks, gt_masks))

    cloud_path = pred_dir / "cloud.ply"
    if (cloud_path.exists() and (scene / "gt.json").exists()
            and gt_masks is not None):
        positions, _, alive = purification.read_ply(cloud_path)
        pred_points = positions[alive]
        gt = synthetic.load_ground_truth(scene, shape)
        # the reference surface is the true dynamic geometry: ground-truth
        # silhouettes lifted with noise-free depth
        *_, gt_points = purification._lift(gt.true_depths, header.cameras,
                                           gt_masks)
        if len(pred_points) and len(gt_points):
            report = replace(report, **evaluation.cloud_metrics(
                pred_points, gt_points))

    out_path = Path(args.out) if args.out else pred_dir / "report.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_json(report.to_dict(), out_path)
    jm = "n/a" if report.jm is None else f"{report.jm:.4f}"
    fm = "n/a" if report.fm is None else f"{report.fm:.4f}"
    print(f"eval: JM {jm}, FM {fm} -> {out_path}")
    return EXIT_OK


def _stat(reduce, values) -> float | None:
    """`reduce(values)` as a float, or None when there are no values."""
    return float(reduce(values)) if len(values) else None


def cmd_residuals(args) -> int:
    scene = Path(args.scene)
    header = _read_header(scene)
    if not (scene / "gt.json").exists():
        raise SceneFormatError(f"{scene}: residuals need ground truth "
                               "(gt.json)")
    h, w = header.height, header.width
    gt = synthetic.load_ground_truth(scene, (header.frames, h, w))

    # steps[i, f] is mover i's world displacement from frame f to f + 1;
    # the last row, which instance -1 indexes, keeps static points still
    steps = np.diff(gt.mover_positions, axis=1)
    steps = np.concatenate([steps, np.zeros((1,) + steps.shape[1:])])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pairs = []
    for f in range(header.frames - 1):
        ref_cam, tgt_cam = header.cameras[f], header.cameras[f + 1]
        try:
            ess = essential_from_poses(ref_cam, tgt_cam)
        except ValueError as exc:
            raise ValueError(f"frames {f} and {f + 1}: {exc}") from exc

        rows, cols = np.nonzero(gt.true_depths[f] > 0)
        pixels = np.column_stack([cols, rows]).astype(np.float64)
        depths = gt.true_depths[f][rows, cols].astype(np.float64)
        inst = gt.instances[f][rows, cols]
        moved = unproject_pixels(pixels, depths, ref_cam)
        moved += steps[inst, f]
        uv_tgt, _ = project_points(moved, tgt_cam)
        delta = np.abs(epipolar_residual_batch(pixels, uv_tgt, ess, ref_cam,
                                               tgt_cam))

        res_map = np.zeros((h, w), dtype=np.float32)
        res_map[rows, cols] = delta.astype(np.float32)
        write_tensor(res_map, out / f"residual_{f:04d}_{f + 1:04d}.dmt")

        mover = inst >= 0
        pairs.append({
            "ref": f, "tgt": f + 1,
            "background_median": _stat(np.median, delta[~mover]),
            "background_max": _stat(np.max, delta[~mover]),
            "mover_median": _stat(np.median, delta[mover]),
            "mover_max": _stat(np.max, delta[mover]),
        })

    overall = {key: _stat(np.median, [p[key] for p in pairs
                                      if p[key] is not None])
               for key in ("background_median", "mover_median")}
    write_json({"pairs": pairs, "overall": overall}, out / "residuals.json")
    bg_txt, mv_txt = ("n/a" if v is None else f"{v:.3e}"
                      for v in overall.values())
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
