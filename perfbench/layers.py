"""Which calls the traced run wraps, and the per-layer metrics built from them.

Layers are the package's modules.  Each wrap point is the module attribute
a caller looks the function up by, so a function imported into another
module is wrapped there (``cli.run``, ``crossview.mask_from_cloud``,
``purification.unproject_pixels``).  Metric names use the module that
defines the function.  Per-pass values are totals over one mask pass and
one eval pass over all of a workload's scenes, so a function both commands
call counts both: ``purification.unproject_mask.points`` includes the
ground-truth cloud that eval lifts.
"""

from __future__ import annotations

import os


def _kept(cloud_out):
    """Alive points in and out of a call that filters `cloud`."""
    def count(args, result):
        return {"attempted": args["cloud"].alive_count,
                "kept": cloud_out(result).alive_count}
    return count


def _score_counts(args, result):
    point_views = args["cloud"].alive_count * args["bundle"].frames
    return {"point_views": point_views, "visible": int(result[1].sum())}


def _bundle_bytes(args, bundle):
    arrays = (bundle.images, bundle.depths, bundle.confidence_logits,
              bundle.attention, bundle.gt_masks)
    return {"bytes": sum(a.nbytes for a in arrays if a is not None)}


# (module, attribute, layer, count(arguments, result) or None, peak memory)
PASS_WRAPS = (
    ("cli", "load_scene", "tensor_io.load_scene", _bundle_bytes, False),
    ("tensor_io", "validate_bundle", "tensor_io.validate_bundle", None, False),
    ("tensor_io", "read_pgm", "tensor_io.read_pgm", None, False),
    ("cli", "read_pgm", "tensor_io.read_pgm", None, False),
    ("cli", "write_pgm", "tensor_io.write_pgm", None, False),
    ("cli", "run", "pipeline.run", None, False),
    ("attention", "aggregate", "attention.aggregate", None, False),
    ("attention", "binarize", "attention.binarize", None, False),
    ("purification", "unproject_mask", "purification.unproject_mask",
     lambda args, cloud: {"points": len(cloud)}, False),
    ("purification", "unproject_pixels", "geometry.unproject_pixels",
     None, False),
    ("purification", "purify", "purification.purify",
     _kept(lambda cloud: cloud), True),
    ("purification", "mask_from_cloud", "purification.mask_from_cloud",
     None, False),
    ("crossview", "mask_from_cloud", "purification.mask_from_cloud",
     None, False),
    ("crossview", "activate_confidence", "crossview.activate_confidence",
     None, False),
    ("crossview", "refine_masks", "crossview.refine_masks",
     _kept(lambda result: result[1]), False),
    ("crossview", "score_cloud", "crossview.score_cloud", _score_counts, True),
    ("crossview", "bilinear_sample", "crossview.bilinear_sample", None, False),
    ("crossview", "close_masks", "crossview.close_masks", None, False),
    ("geometry", "project_points", "geometry.project_points", None, False),
    ("purification", "write_ply", "purification.write_ply",
     lambda args, result: {"bytes": os.path.getsize(args["path"])}, False),
    ("purification", "read_ply", "purification.read_ply", None, False),
    ("evaluation", "evaluate_masks", "evaluation.evaluate_masks", None, False),
    ("evaluation", "cloud_metrics", "evaluation.cloud_metrics", None, False),
)

SETUP_WRAPS = (
    ("synthetic", "generate", "synthetic.generate", None, False),
    ("synthetic", "save_scene", "tensor_io.save_scene", None, False),
)


def install(tracer, dynmask, wraps, memory: bool = False) -> None:
    """Wrap every call site in `wraps`; with `memory`, take peak memory too.

    Peak memory comes from tracemalloc, which slows every allocation, so
    it is measured on a pass whose times are not reported.
    """
    for module, attr, layer, count, peak in wraps:
        tracer.wrap(getattr(dynmask, module), attr, layer, count,
                    peak and memory)


def _total(layer, key="s", scale=1.0):
    return lambda t: t.get(layer, {}).get(key, 0) * scale


def _ratio(layer, num, den):
    def ratio(t):
        entry = t.get(layer, {})
        return entry[num] / entry[den] if entry.get(den) else 0.0
    return ratio


# The end-to-end metric each layer should move, and on which workload:
#   pipeline.run.self_s, attention.*, tensor_io.*   mask_s, eval_s  corpus
#   purification.purify.*               mask_s, peak_rss_mb  dense (0 on nopurify)
#   crossview.*, geometry.*, purification.write_ply.*       mask_s  nopurify
#   purification.read_ply.s, evaluation.*                   eval_s  nopurify
#   synthetic.generate.s, tensor_io.save_scene.s            setup_s

# (metric, unit, value from the span totals of one pass)
PASS_METRICS = (
    ("pipeline.run.s", "s", _total("pipeline.run")),
    ("pipeline.run.self_s", "s", _total("pipeline.run", "self_s")),
    ("attention.aggregate.s", "s", _total("attention.aggregate")),
    ("attention.aggregate.calls", "count",
     _total("attention.aggregate", "calls")),
    ("attention.binarize.s", "s", _total("attention.binarize")),
    ("purification.unproject_mask.s", "s",
     _total("purification.unproject_mask")),
    ("purification.unproject_mask.points", "count",
     _total("purification.unproject_mask", "points")),
    ("purification.purify.s", "s", _total("purification.purify")),
    ("purification.purify.keep_ratio", "fraction",
     _ratio("purification.purify", "kept", "attempted")),
    ("purification.mask_from_cloud.s", "s",
     _total("purification.mask_from_cloud")),
    ("purification.write_ply.s", "s", _total("purification.write_ply")),
    ("purification.write_ply.mb", "MB",
     _total("purification.write_ply", "bytes", 1e-6)),
    ("purification.read_ply.s", "s", _total("purification.read_ply")),
    ("crossview.refine_masks.s", "s", _total("crossview.refine_masks")),
    ("crossview.refine_masks.keep_ratio", "fraction",
     _ratio("crossview.refine_masks", "kept", "attempted")),
    ("crossview.score_cloud.s", "s", _total("crossview.score_cloud")),
    ("crossview.score_cloud.point_views", "count",
     _total("crossview.score_cloud", "point_views")),
    ("crossview.score_cloud.visible_ratio", "fraction",
     _ratio("crossview.score_cloud", "visible", "point_views")),
    ("crossview.bilinear_sample.s", "s", _total("crossview.bilinear_sample")),
    ("crossview.bilinear_sample.calls", "count",
     _total("crossview.bilinear_sample", "calls")),
    ("crossview.close_masks.s", "s", _total("crossview.close_masks")),
    ("crossview.activate_confidence.s", "s",
     _total("crossview.activate_confidence")),
    ("geometry.project_points.s", "s", _total("geometry.project_points")),
    ("geometry.unproject_pixels.s", "s", _total("geometry.unproject_pixels")),
    ("tensor_io.load_scene.s", "s", _total("tensor_io.load_scene")),
    ("tensor_io.load_scene.mb", "MB",
     _total("tensor_io.load_scene", "bytes", 1e-6)),
    ("tensor_io.validate_bundle.s", "s", _total("tensor_io.validate_bundle")),
    ("tensor_io.write_pgm.s", "s", _total("tensor_io.write_pgm")),
    ("tensor_io.read_pgm.s", "s", _total("tensor_io.read_pgm")),
    ("evaluation.evaluate_masks.s", "s", _total("evaluation.evaluate_masks")),
    ("evaluation.cloud_metrics.s", "s", _total("evaluation.cloud_metrics")),
)

# from the pass traced with `memory`
MEMORY_METRICS = (
    ("purification.purify.peak_mb", "MB",
     _total("purification.purify", "peak_mb")),
    ("crossview.score_cloud.peak_mb", "MB",
     _total("crossview.score_cloud", "peak_mb")),
)

# from the traced set-up processes, per set-up
SETUP_METRICS = (
    ("synthetic.generate.s", "s", _total("synthetic.generate")),
    ("tensor_io.save_scene.s", "s", _total("tensor_io.save_scene")),
)

OVERHEAD_METRIC = ("trace.overhead_frac", "fraction")
