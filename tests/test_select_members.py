"""The benchmark's member selector lifts the cloud the pipeline lifts.

perfbench/select_members.py chooses the 320x240x8 benchmark scenes by
the size of this cloud, so a drift from `pipeline.run` would make it
choose by the wrong measure.
"""

from pathlib import Path

import numpy as np

import dynmask
from dynmask import pipeline, synthetic


def test_lifted_cloud_matches_pipeline(monkeypatch):
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import select_members

    spec = synthetic.corpus_specs(1, frames=3, width=32, height=24)[0]
    bundle, _ = synthetic.generate(spec)
    cloud, r_factor = select_members.lifted_cloud(dynmask, bundle)
    assert len(cloud) > 0
    assert r_factor == pipeline.PipelineConfig().r_factor
    np.testing.assert_array_equal(cloud.positions,
                                  pipeline.run(bundle).cloud.positions)
