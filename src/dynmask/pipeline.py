"""End-to-end mask extraction: saliency, lifting, filtering, refinement.

The full chain is

    aggregate -> binarize -> unproject -> purify -> cross-view refine

with three independently toggleable mechanisms: variance-based attention
weighting (off = uniform head average), density purification (off = keep
the raw cloud), and uncertainty-aware cross-view refinement (off = skip
the scoring stage entirely).  With all three off the output reduces to the
binarized uniform-average saliency, which is the ablation baseline; each
toggle then restores one mechanism, so ablations compose cumulatively.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import attention, crossview, purification
from .purification import DynamicPointCloud
from .tensor_io import SceneBundle


@dataclass
class PipelineConfig:
    """Every tunable constant of the mask pipeline, with defaults."""

    eps: float = 1e-8                 # variance-weight regularizer
    theta_saliency: float = 0.5       # binarization threshold
    r_factor: float = 0.02            # purification radius, fraction of diagonal
    tau: int = 16                     # minimum neighbor count
    lam: float = 1.0 / 3.0            # color-residual weight in the score
    theta_dyn: float = 0.1            # dynamic-score threshold
    occlusion_tolerance: float = 0.05  # relative depth slack for visibility
    enable_attention_weighting: bool = True
    enable_purification: bool = True
    enable_uncertainty: bool = True

    def __post_init__(self) -> None:
        # types first, so the range checks below compare finite numbers
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "bool":
                ok, kind = isinstance(value, bool), "true or false"
            elif f.type == "int":
                ok = (isinstance(value, numbers.Integral)
                      and not isinstance(value, bool))
                kind = "an integer"
            else:
                ok = (isinstance(value, numbers.Real)
                      and not isinstance(value, bool)
                      and math.isfinite(value))
                kind = "a finite number"
            if not ok:
                raise ValueError(f"{f.name} {value!r} must be {kind}")
        if self.eps <= 0:
            raise ValueError(f"eps {self.eps} must be > 0")
        if not 0.0 <= self.theta_saliency <= 1.0:
            raise ValueError(f"theta_saliency {self.theta_saliency} "
                             "must be in [0, 1]")
        if self.r_factor < 0:
            raise ValueError(f"r_factor {self.r_factor} must be >= 0")
        if self.tau < 0:
            raise ValueError(f"tau {self.tau} must be >= 0")
        if self.lam < 0:
            raise ValueError(f"lam {self.lam} must be >= 0")
        if self.theta_dyn < 0:
            raise ValueError(f"theta_dyn {self.theta_dyn} must be >= 0")
        if self.occlusion_tolerance < 0:
            raise ValueError(f"occlusion_tolerance "
                             f"{self.occlusion_tolerance} must be >= 0")

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged = dict(raw)
        tau = merged.get("tau")
        if isinstance(tau, float) and tau.is_integer():
            merged["tau"] = int(tau)  # JSON writers may emit 16 as 16.0
        return cls(**merged)

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class PipelineResult:
    """Everything one pipeline run produced, for writing and inspection."""

    masks: np.ndarray                 # (T, H, W) final binary masks
    initial_masks: np.ndarray         # (T, H, W) binarized saliency
    saliency: np.ndarray              # (T, H', W') fused normalized maps
    head_weights: np.ndarray          # (T, heads) weights actually used
    cloud: DynamicPointCloud          # final labeled cloud
    counts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def run(bundle: SceneBundle, config: PipelineConfig | None = None
        ) -> PipelineResult:
    """Run the mask pipeline on a loaded bundle."""
    cfg = config or PipelineConfig()
    t, heads = bundle.frames, bundle.heads
    hp = bundle.height // bundle.patch
    wp = bundle.width // bundle.patch

    timings: dict = {}
    t0 = time.perf_counter()
    saliency = np.zeros((t, hp, wp))
    head_weights = np.zeros((t, heads))
    initial = np.zeros((t, bundle.height, bundle.width), dtype=bool)
    for f in range(t):
        maps = bundle.attention[f].astype(np.float64)
        fused = attention.aggregate(maps, eps=cfg.eps,
                                    weighted=cfg.enable_attention_weighting)
        saliency[f] = fused.values
        head_weights[f] = fused.head_weights
        initial[f] = attention.binarize(fused, cfg.theta_saliency,
                                        patch=bundle.patch)
    timings["saliency"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cloud = purification.unproject_mask(bundle, initial, saliency)
    counts = {
        "initial_mask_pixels": int(initial.sum()),
        "initial_points": len(cloud),
    }
    timings["unproject"] = time.perf_counter() - t0

    if cfg.enable_purification:
        t0 = time.perf_counter()
        cloud = purification.purify(cloud, tau=cfg.tau, r_factor=cfg.r_factor)
        counts["after_purification"] = int(cloud.alive_count)
        timings["purification"] = time.perf_counter() - t0

    if cfg.enable_uncertainty:
        t0 = time.perf_counter()
        conf = crossview.activate_confidence(
            bundle.confidence_logits.astype(np.float64))
        masks, cloud = crossview.refine_masks(
            cloud, bundle, conf, theta_dyn=cfg.theta_dyn, lam=cfg.lam,
            occlusion_tol=cfg.occlusion_tolerance)
        counts["after_refinement"] = int(cloud.alive_count)
        timings["refinement"] = time.perf_counter() - t0
    elif cfg.enable_purification:
        # no cross-view stage: the purified cloud is the final verdict
        masks = purification.mask_from_cloud(cloud, bundle)
    else:
        # nothing touched the 3-D cloud, so the saliency masks pass
        # through unchanged (the ablation baseline path)
        masks = initial.copy()

    counts["final_mask_pixels"] = int(masks.sum())
    counts["final_points"] = int(cloud.alive_count)
    return PipelineResult(masks=masks, initial_masks=initial,
                          saliency=saliency, head_weights=head_weights,
                          cloud=cloud, counts=counts, timings=timings)
