"""Derive ``members.json``: which 320x240x8 family members the seeds pick.

Purification time on one scene grows with the pair work of its voxel scan
(points times candidates in the 27 surrounding cells), which varies more
than threefold across members of ``synthetic.corpus_specs``.  So that a
seed changes the scenes but not the amount of work, the 320x240x8
workloads draw only members like member 0, the 320x240x8 reference scene:

* ``band``: lifted points within BAND of member 0's (nopurify workload);
* ``dense``: members of ``band`` whose pair work, and largest pair work
  in one voxel (which sets peak memory), are also within BAND of member
  0's (dense workload).

Both lists keep index order, so they start at member 0 and the default
seed picks it.  The benchmark only reads the lists, so a later change to
the package cannot change which scenes a seed picks.  Run from the
checkout root (about 15 minutes on 2 CPUs):

    python3 perfbench/select_members.py --scan 1000
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import common

BAND = 0.10
SIZE = {"frames": 8, "width": 320, "height": 240}
OUT = Path(__file__).resolve().parent / "members.json"


def lifted_cloud(dynmask, bundle):
    """The cloud `pipeline.run` lifts before purification, default config."""
    import numpy as np
    cfg = dynmask.pipeline.PipelineConfig()
    initial = np.zeros((bundle.frames, bundle.height, bundle.width), dtype=bool)
    for f in range(bundle.frames):
        fused = dynmask.attention.aggregate(bundle.attention[f].astype(np.float64),
                                            eps=cfg.eps)
        initial[f] = dynmask.attention.binarize(fused, cfg.theta_saliency,
                                                patch=bundle.patch)
    return dynmask.purification.unproject_mask(bundle, initial), cfg.r_factor


def pair_work(positions, radius: float) -> tuple[int, int]:
    """Members x points in the 27 cells around, over voxels of edge `radius`.

    Returns the sum over voxels, which sets purification time, and the
    largest term, which sets its peak memory.
    """
    import numpy as np
    keys, counts = np.unique(np.floor(positions / radius).astype(np.int64),
                             axis=0, return_counts=True)
    occupancy = {tuple(k): int(c) for k, c in zip(keys.tolist(), counts)}
    work = peak = 0
    for (x, y, z), members in occupancy.items():
        cand = sum(occupancy.get((x + dx, y + dy, z + dz), 0)
                   for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                   for dz in (-1, 0, 1))
        work += members * cand
        peak = max(peak, members * cand)
    return work, peak


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scan", type=int, default=1000,
                        help="family members to examine, from member 0")
    args = parser.parse_args()
    common.cap_blas_threads()
    dynmask = common.import_dynmask()
    from dynmask import purification, synthetic

    stats = []
    for k, spec in enumerate(synthetic.corpus_specs(args.scan, **SIZE)):
        bundle, _ = synthetic.generate(spec)
        cloud, r_factor = lifted_cloud(dynmask, bundle)
        radius = r_factor * purification.scene_diagonal(cloud)
        work, peak = pair_work(cloud.positions, radius)
        stats.append({"member": k, "points": len(cloud), "pair_work": work,
                      "peak_work": peak})
        print(json.dumps(stats[-1]), flush=True)

    ref = stats[0]

    def near(entry, key):
        return abs(entry[key] - ref[key]) <= BAND * ref[key]

    band = [s["member"] for s in stats if near(s, "points")]
    dense = [s["member"] for s in stats
             if all(near(s, key) for key in ("points", "pair_work",
                                             "peak_work"))]
    OUT.write_text(json.dumps({
        "family": SIZE, "band": BAND, "scanned": args.scan,
        "reference": ref, "band_members": band, "dense_members": dense,
    }, indent=1) + "\n")
    print(f"{len(band)} band members, {len(dense)} dense members -> {OUT}")


if __name__ == "__main__":
    main()
