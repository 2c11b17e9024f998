"""Set-up step of a benchmark run: generate a workload's scenes onto disk.

Runs in its own process, started by ``run.py``, so the measuring process's
peak memory leaves set-up out.  Prints one JSON line with the seconds spent
in generating and saving the scenes and, with ``--trace 1``, the span
totals of that work.

    python3 perfbench/setup_scenes.py --workload NAME --seed N --out DIR
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import common


def generate_scenes(synthetic, specs, out: Path) -> list[Path]:
    """Render and save each spec as ``out/scene_NN``, in order."""
    dirs = [out / f"scene_{j:02d}" for j in range(len(specs))]
    for spec, scene in zip(specs, dirs):
        synthetic.generate(spec, scene)
    return dirs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    common.cap_blas_threads()
    dynmask = common.import_dynmask()
    import layers
    import spans
    from workloads import WORKLOADS

    specs = WORKLOADS[args.workload].specs(dynmask.synthetic, args.seed)
    with spans.Tracer() as tracer:
        if args.trace:
            layers.install(tracer, dynmask, layers.SETUP_WRAPS)
        t0 = time.perf_counter()
        generate_scenes(dynmask.synthetic, specs, Path(args.out))
        seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds,
                      "spans": spans.totals(tracer.spans)}))


if __name__ == "__main__":
    main()
