"""Training-free separation of dynamic regions in multi-view captures.

The package turns a bundle of posed RGB-D frames with attention maps and
depth-confidence logits into per-frame dynamic masks and a labeled 3-D
point cloud, using three mechanisms: variance-weighted attention fusion,
density-based point purification, and confidence-weighted cross-view
consistency scoring.  A synthetic scene generator with exact ground truth
and a metric suite close the loop for end-to-end evaluation.
"""

from .evaluation import MetricReport, evaluate_masks
from .pipeline import PipelineConfig, PipelineResult, run
from .synthetic import SceneSpec, generate
from .tensor_io import (SceneBundle, SceneFormatError, TensorFormatError,
                        load_scene)

__version__ = "0.1.0"

__all__ = [
    "MetricReport", "evaluate_masks",
    "PipelineConfig", "PipelineResult", "run",
    "SceneSpec", "generate",
    "SceneBundle", "SceneFormatError", "TensorFormatError", "load_scene",
    "__version__",
]
