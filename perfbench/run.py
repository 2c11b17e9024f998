"""Benchmark of the ``dynmask mask`` and ``dynmask eval`` commands.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload, one after another

One run of one workload, a single process in a closed loop over its scenes:

1. Set-up, SETUPS times, each in a fresh process: generate the scenes the
   seed picks (``workloads.py``) and save them.  ``setup_s`` is the median.
2. In this process, with its address space capped so that a run out of
   memory fails a job instead of the machine: one warm-up pass, then timed
   passes until ``--seconds`` have passed (at least one); a warm-up that
   alone took ``--seconds`` is instead the only pass, and timed.  A pass
   calls ``cli.main`` for ``dynmask mask`` on every scene, then for
   ``dynmask eval`` on every prediction, repeating the eval loop until it
   has taken EVAL_MIN_S.  End-to-end times are medians over the timed
   mask loops and eval loops.
3. With ``--trace 1``, traced passes follow for another ``--seconds``
   (at least one): calls into each module are wrapped from outside
   (``layers.py``) and the per-layer metrics are medians over these
   passes.  ``trace.overhead_frac`` compares their mask time with the
   untraced passes of the same run.

Checks, each failure counted against its scene job: both commands exit 0;
masks, ``pipeline.json``, ``cloud.ply`` and the eval report are
byte-identical in every pass of a run, traced or not; the warm-up's
``cloud.ply`` reads back with every lifted point and
``counts["final_points"]`` alive; JM and FM lie in [0, 1].  The set-ups
must produce identical scene files.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` scene jobs, and the metrics: the end-to-end
ones untraced, the per-layer ones with ``--trace 1``.  The environment,
the scene specs, the config and every pass are written to
``.perfbench/<workload>-seed<N>-trace<T>/result.json``, the spans of the
traced passes to ``spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import common

HERE = Path(__file__).resolve().parent
SETUPS = 3
ADDRESS_SPACE_CAP_MB = 6144          # and at most 3/4 of physical memory
SETUP_TIMEOUT_S = 150
EVAL_MIN_S = 2.0

# (metric, unit); the order BENCHMARK.json lists them in
END_TO_END = (
    ("setup_s", "s"),
    ("mask_s", "s"),
    ("mask_mpix_per_s", "Mpx/s"),
    ("eval_s", "s"),
    ("peak_rss_mb", "MB"),
    ("jm", "fraction"),
    ("fm", "fraction"),
    ("ok_frac", "fraction"),
)


class SetupFailed(RuntimeError):
    """A set-up process failed, so there are no scenes to measure."""


@dataclass
class PassResult:
    kind: str                  # "warmup", "timed" or "traced"
    mask_s: float = 0.0
    eval_s: list = field(default_factory=list)    # one per eval loop
    digests: list = field(default_factory=list)   # per scene, None if failed
    reports: list = field(default_factory=list)   # per scene eval report
    counts: list = field(default_factory=list)    # per scene pipeline counts
    failed: list = field(default_factory=list)    # per scene, bool
    config: dict | None = None
    layers: dict | None = None                    # span totals when traced


def call_cli(cli, argv: list[str]) -> int:
    """`cli.main(argv)` with its chatter dropped; an exception fails the job."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    except Exception:  # a job boundary: record it and go on to the next job
        traceback.print_exc(file=sys.stderr)
        return -1


def digest(pred: Path) -> str:
    """Hash of every deterministic artifact of one scene's mask and eval."""
    h = hashlib.sha256()
    files = sorted(pred.glob("mask_*.pgm")) + [
        pred / name for name in ("pipeline.json", "cloud.ply", "report.json")]
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def ply_round_trip_ok(purification, pred: Path, counts: dict) -> bool:
    positions, _, alive = purification.read_ply(pred / "cloud.ply")
    return (len(positions) == counts["initial_points"]
            and int(alive.sum()) == counts["final_points"])


def report_ok(report: dict) -> bool:
    return all(isinstance(report.get(key), float) and 0.0 <= report[key] <= 1.0
               for key in ("jm", "fm"))


def run_pass(dynmask, scenes: list[Path], flags, out: Path, kind: str,
             check_ply: bool = False, eval_min_s: float = 0.0) -> PassResult:
    """One `dynmask mask` loop over `scenes`, then `dynmask eval` loops.

    The eval loop over the predictions repeats until the loops have taken
    `eval_min_s` (at least once), so that short evals are timed often
    enough to give a steady median.
    """
    res = PassResult(kind)
    preds = [out / scene.name for scene in scenes]
    codes = []
    for scene, pred in zip(scenes, preds):
        t0 = time.perf_counter()
        codes.append(call_cli(dynmask.cli, ["mask", str(scene), "--out",
                                            str(pred), *flags]))
        res.mask_s += time.perf_counter() - t0
    while not res.eval_s or sum(res.eval_s) < eval_min_s:
        t0 = time.perf_counter()
        for j, (scene, pred) in enumerate(zip(scenes, preds)):
            if codes[j] == 0:
                codes[j] = call_cli(dynmask.cli,
                                    ["eval", str(pred), str(scene)])
        res.eval_s.append(time.perf_counter() - t0)
    for code, pred in zip(codes, preds):
        ok, report, counts, sha = code == 0, None, None, None
        try:
            if ok:
                report = json.loads((pred / "report.json").read_text())
                pipeline_json = json.loads((pred / "pipeline.json").read_text())
                counts = pipeline_json["counts"]
                res.config = res.config or pipeline_json["config"]
                ok = report_ok(report) and (
                    not check_ply
                    or ply_round_trip_ok(dynmask.purification, pred, counts))
                sha = digest(pred)
        except Exception:  # a broken artifact fails this job only
            traceback.print_exc(file=sys.stderr)
            ok = False
        res.failed.append(not ok)
        res.reports.append(report)
        res.counts.append(counts)
        res.digests.append(sha if ok else None)
    shutil.rmtree(out, ignore_errors=True)
    return res


def repeat_for(seconds: float, one_pass) -> list[PassResult]:
    """Passes until `seconds` have passed, at least one."""
    done = []
    deadline = time.perf_counter() + seconds
    while not done or time.perf_counter() < deadline:
        done.append(one_pass(len(done)))
    return done


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0"
                 + path.read_bytes())
    return h.hexdigest()


def run_setups(workload: str, seed: int, trace: int, run_dir: Path) -> list:
    results = []
    for k in range(SETUPS):
        out = run_dir / f"setup{k}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_scenes.py"), "--workload",
             workload, "--seed", str(seed), "--out", str(out), "--trace",
             str(trace)], capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise SetupFailed(f"set-up {k} exited {proc.returncode}:\n"
                              f"{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["digest"] = tree_digest(out)
        results.append(result)
        if k:
            shutil.rmtree(out)
    return results


def cap_address_space() -> int:
    """Cap this process's virtual memory; returns the cap in MB."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20
    cap_mb = min(ADDRESS_SPACE_CAP_MB, physical * 3 // 4)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap_mb = min(cap_mb, hard // 2**20)
    resource.setrlimit(resource.RLIMIT_AS, (cap_mb * 2**20, hard))
    return cap_mb


def git_sha() -> str | None:
    if not (common.ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(common.ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(blas: dict, workload, seed: int, specs) -> dict:
    import numpy
    import scipy
    return {
        "git_sha": git_sha(), "nproc": common.nproc(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas,
        "workload": workload.name, "seed": seed,
        "members": workload.members(seed), "mask_flags": list(workload.flags),
        "scene_specs": [json.loads(json.dumps(asdict(s), default=lambda o:
                                              o.tolist())) for s in specs],
    }


def median_of(values) -> float:
    return statistics.median(list(values))


def end_to_end(setups, warmup, timed, pixels: int, ok_frac: float) -> dict:
    mask_s = median_of(p.mask_s for p in timed)
    reports = [r for r in warmup.reports if r is not None]
    return {
        "setup_s": median_of(s["seconds"] for s in setups),
        "mask_s": mask_s,
        "mask_mpix_per_s": pixels / 1e6 / mask_s,
        "eval_s": median_of(t for p in timed for t in p.eval_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jm": statistics.fmean(r["jm"] for r in reports) if reports else 0.0,
        "fm": statistics.fmean(r["fm"] for r in reports) if reports else 0.0,
        "ok_frac": ok_frac,
    }


def per_layer(layers, setups, warmup, timed, traced) -> dict:
    out = {name: median_of(value(p.layers) for p in traced)
           for name, _, value in layers.PASS_METRICS}
    out.update({name: value(warmup.layers)
                for name, _, value in layers.MEMORY_METRICS})
    out.update({name: median_of(value(s["spans"]) for s in setups)
                for name, _, value in layers.SETUP_METRICS})
    out[layers.OVERHEAD_METRIC[0]] = (median_of(p.mask_s for p in traced)
                                      / median_of(p.mask_s for p in timed) - 1)
    return out


def measure(workload, seed: int, seconds: float, trace: int) -> dict:
    blas = common.cap_blas_threads()
    dynmask = common.import_dynmask()
    import layers
    import spans

    specs = workload.specs(dynmask.synthetic, seed)
    env = environment(blas, workload, seed, specs)
    run_dir = common.ROOT / ".perfbench" / f"{workload.name}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setups = run_setups(workload.name, seed, trace, run_dir)
    setup_same = len({s["digest"] for s in setups}) == 1
    scenes = sorted(p for p in (run_dir / "setup0").iterdir() if p.is_dir())
    env["address_space_cap_mb"] = cap_address_space()

    def one(kind, check_ply=False, eval_min_s=0.0):
        return lambda i: run_pass(dynmask, scenes, workload.flags,
                                  run_dir / f"{kind}{i}", kind, check_ply,
                                  eval_min_s)

    with spans.Tracer() as tracer:
        if trace:  # the untimed warm-up is where peak memory is traced
            layers.install(tracer, dynmask, layers.PASS_WRAPS, memory=True)
        warmup = one("warmup", True, EVAL_MIN_S)(0)
        warmup.layers = spans.totals(tracer.take())
    # an untraced warm-up that alone took --seconds is timed as the only
    # pass: warm-up costs are a negligible share of it, and timing noise
    # comes mostly from drift in machine speed that consecutive passes
    # share, so a second pass would cost much and steady little
    single = not trace and warmup.mask_s + sum(warmup.eval_s) >= seconds
    timed = [] if single else repeat_for(seconds, one("timed", False,
                                                      EVAL_MIN_S))
    traced, recorded = [], []
    if trace:
        with spans.Tracer() as tracer:
            layers.install(tracer, dynmask, layers.PASS_WRAPS)

            def traced_pass(i):
                res = one("traced")(i)
                taken = tracer.take()
                recorded.append(taken)
                res.layers = spans.totals(taken)
                return res
            traced = repeat_for(seconds, traced_pass)
        spans.dump(recorded, run_dir / "spans.jsonl")

    all_passes = [warmup, *timed, *traced]
    for p in all_passes[1:]:  # every pass must reproduce the warm-up bytes
        p.failed = [bad or sha != ref for bad, sha, ref
                    in zip(p.failed, p.digests, warmup.digests)]
    pixels = sum(s.width * s.height * s.frames for s in specs)
    attempted = sum(len(p.failed) for p in all_passes)
    failed = sum(sum(p.failed) for p in all_passes)
    metrics = (per_layer(layers, setups, warmup, timed, traced) if trace
               else end_to_end(setups, warmup, timed or [warmup], pixels,
                               1.0 - failed / attempted))
    units = dict(END_TO_END) if not trace else {
        name: unit for name, unit, *_ in
        (*layers.PASS_METRICS, *layers.MEMORY_METRICS, *layers.SETUP_METRICS,
         layers.OVERHEAD_METRIC)}
    result = {
        "correct": failed == 0 and setup_same,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    env["config"] = warmup.config
    (run_dir / "result.json").write_text(json.dumps({
        "result": result, "environment": env, "setups": setups,
        "setups_identical": setup_same,
        "passes": [{k: v for k, v in asdict(p).items() if k != "digests"}
                   for p in all_passes],
    }, indent=1) + "\n")
    shutil.rmtree(run_dir / "setup0")
    return result


def run_all(args) -> int:
    """Each workload in its own process; metrics prefixed by workload name."""
    from workloads import WORKLOADS
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(result)}", flush=True)
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         args.trace)
    except (common.SourceMissing, SetupFailed) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, entry in result["metrics"].items():
        print(f"{name:40s} {entry['value']:14.6g} {entry['unit']}",
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
