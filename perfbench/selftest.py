"""Quick self-test of the benchmark harness on one tiny scene (a few seconds).

Checks the span self-time arithmetic, that every metric name is valid and
matches ``BENCHMARK.json``, and that a traced pass fires a span at every
wrap point and writes the same bytes as an untraced one.  Run from the
checkout root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import common

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def check_self_times(spans) -> None:
    S = spans.Span
    recorded = [
        S("root", "m.root", 0.0, 10.0),
        S("a", "m.a", 1.0, 3.0, parent=0),
        S("b", "m.b", 2.0, 5.0, parent=0),       # overlaps a
        S("c", "m.c", 9.0, 12.0, parent=0),      # runs past its parent
        S("d", "m.d", 1.5, 2.5, parent=1),       # grandchild of root
    ]
    got = spans.self_times(recorded)
    want = [10.0 - 4.0 - 1.0, 2.0 - 1.0, 3.0, 3.0, 1.0]
    check(all(abs(g - w) < 1e-12 for g, w in zip(got, want)),
          f"self times {got}, want {want}")
    totals = spans.totals(recorded)
    check(totals["root"]["self_s"] == 5.0 and totals["a"]["calls"] == 1,
          f"totals {totals}")


def check_names(run, layers) -> None:
    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    names = [n for n, _ in e2e + layer] + [w["name"] for w in bench["workloads"]]
    for name in names:
        check(NAME.fullmatch(name) is not None, f"bad metric name {name!r}")
    for _, unit in e2e + layer:
        check(UNIT.fullmatch(unit) is not None, f"bad unit {unit!r}")
    check(len(set(names)) == len(names), "a name is used twice")
    check(e2e == list(run.END_TO_END), "end-to-end metrics differ from run.py")
    emitted = [(n, u) for n, u, *_ in (*layers.PASS_METRICS,
                                       *layers.MEMORY_METRICS,
                                       *layers.SETUP_METRICS,
                                       layers.OVERHEAD_METRIC)]
    check(sorted(layer) == sorted(emitted),
          "per-layer metrics differ from layers.py")
    from workloads import WORKLOADS
    check([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
          "workloads differ from workloads.py")


def check_traced_pass(dynmask, run, layers, spans, setup_scenes) -> None:
    work = common.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    spec = dynmask.synthetic.corpus_specs(1, frames=3, width=32, height=24)[0]
    with spans.Tracer() as tracer:
        layers.install(tracer, dynmask, layers.SETUP_WRAPS)
        scenes = setup_scenes.generate_scenes(dynmask.synthetic, [spec],
                                              work / "scenes")
        fired = {s.site for s in tracer.spans}
        wrapped = set(tracer.sites())

    plain = run.run_pass(dynmask, scenes, (), work / "plain", "timed",
                         check_ply=True)
    with spans.Tracer() as tracer:
        layers.install(tracer, dynmask, layers.PASS_WRAPS, memory=True)
        traced = run.run_pass(dynmask, scenes, (), work / "traced", "traced")
        # the only path on which the pipeline itself calls mask_from_cloud
        run.run_pass(dynmask, scenes, ("--disable-uncertainty",),
                     work / "nouncert", "traced")
        recorded = tracer.take()
        fired |= {s.site for s in recorded}
        wrapped |= set(tracer.sites())
    shutil.rmtree(work)

    check(not any(plain.failed) and not any(traced.failed),
          f"failed jobs: plain {plain.failed}, traced {traced.failed}")
    check(plain.digests == traced.digests, "traced pass changed the outputs")
    check(wrapped - fired == set(), f"no span at {sorted(wrapped - fired)}")
    by_index = dict(enumerate(recorded))
    for span in recorded:
        if span.name == "crossview.score_cloud":
            check(by_index[span.parent].name == "crossview.refine_masks",
                  "score_cloud span not nested in refine_masks")
    totals = spans.totals(recorded)
    check(totals["purification.purify"]["peak_mb"] > 0,
          "no peak memory recorded for purify")
    check(all(v >= 0 for v in spans.self_times(recorded)),
          "negative self time")


def main() -> int:
    common.cap_blas_threads()
    dynmask = common.import_dynmask()
    import layers
    import run
    import setup_scenes
    import spans

    check_self_times(spans)
    check_names(run, layers)
    check_traced_pass(dynmask, run, layers, spans, setup_scenes)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
