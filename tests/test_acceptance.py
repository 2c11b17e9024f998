"""End-to-end acceptance gate: ten checks covering geometric soundness,
filter efficacy, metric self-consistency, invariances, and determinism.

Each test prints one PASS/FAIL line with the measured numbers; run with

    pytest tests/test_acceptance.py -v -s

to see the full scoreboard.  Every check draws its expected values from an
independent oracle (closed-form geometry, brute-force enumeration, or a
ground-truth generator), never from the code under test.
"""

import hashlib
import json
import time

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from dynmask import attention, crossview, evaluation, purification, synthetic
from dynmask.cli import main
from dynmask.geometry import (CameraModel, epipolar_residual_batch,
                              essential_from_poses)
from dynmask.pipeline import PipelineConfig, run
from dynmask.purification import (DynamicPointCloud, build_index, purify,
                                  radius_neighbors)
from oracles import (BehindCameraError, corrupt, epipolar_residual,
                     jaccard_mean, project_dynamic, project_rigid_batch,
                     residual_first_order)


def _line(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {num:02d} {name}: {detail}")


def _cloud_of(points):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(points)
    return DynamicPointCloud(positions=points,
                             pixel_ids=np.zeros(n, dtype=np.int64),
                             saliencies=np.ones(n),
                             alive=np.ones(n, dtype=bool))


@pytest.fixture(scope="module")
def corpus():
    """The 20-scene synthetic corpus, generated once per session."""
    bundles = []
    for spec in synthetic.corpus_specs():
        bundles.append(synthetic.generate(spec))
    return bundles


def test_01_static_scene_epipolar_soundness():
    # noise-free static geometry must satisfy the two-view constraint at
    # every rendered pixel, and fast enough for interactive use
    t0 = time.perf_counter()
    spec = synthetic.SceneSpec(seed=1, frames=10, width=256, height=256,
                               patch=8, movers=[], depth_sigma=0.0)
    bundle, gt = synthetic.generate(spec)
    worst = 0.0
    total = 0
    for f in range(bundle.frames - 1):
        ref, tgt = bundle.cameras[f], bundle.cameras[f + 1]
        ess = essential_from_poses(ref, tgt)
        rows, cols = np.nonzero(gt.true_depths[f] > 0)
        pixels = np.column_stack([cols, rows]).astype(np.float64)
        depths = gt.true_depths[f][rows, cols].astype(np.float64)
        uv, _ = project_rigid_batch(pixels, depths, ref, tgt)
        delta = np.abs(epipolar_residual_batch(pixels, uv, ess, ref))
        worst = max(worst, float(delta.max()))
        total += len(delta)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _line(1, "static epipolar soundness", ok,
          f"max |delta| {worst:.2e} over {total} pixels "
          f"(limit 1e-6), {elapsed:.2f}s (limit 5s)")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_02_first_order_residual_accuracy():
    # small displacements: the linearized residual must track the exact
    # one within 15% on at least 95% of sampled configurations
    gen = np.random.default_rng(42)
    w = h = 64
    ref = CameraModel(fx=1.2 * w, fy=1.2 * w, cx=w / 2, cy=h / 2,
                      R=np.eye(3), t=np.zeros(3))
    within = 0
    n_samples = 0
    while n_samples < 500:
        yaw = float(gen.uniform(-2.0, 2.0))
        rot = Rotation.from_euler("y", yaw, degrees=True).as_matrix()
        t = np.array([gen.uniform(0.2, 0.6) * gen.choice([-1, 1]),
                      gen.uniform(-0.1, 0.1), 0.0])
        tgt = CameraModel(fx=1.2 * w, fy=1.2 * w, cx=w / 2, cy=h / 2,
                          R=rot, t=t)
        pix = gen.uniform([4, 4], [w - 4, h - 4])
        depth = float(gen.uniform(2.0, 8.0))
        disp = gen.uniform(-1, 1, 3)
        disp *= gen.uniform(0.2, 1.0) * 0.02 * depth / np.linalg.norm(disp)
        motion = tgt.R @ disp
        try:
            uv_t, _ = project_dynamic(pix, depth, ref, tgt, motion)
        except BehindCameraError:
            continue
        ess = essential_from_poses(ref, tgt)
        exact = epipolar_residual(pix, uv_t, ess, ref)
        approx = residual_first_order(pix, depth, ref, tgt, motion)
        n_samples += 1
        if abs(exact) < 1e-15:
            within += abs(approx) < 1e-12
        else:
            within += abs(approx - exact) <= 0.15 * abs(exact)
    frac = within / n_samples
    ok = frac >= 0.95
    _line(2, "first-order residual accuracy", ok,
          f"{within}/{n_samples} within 15% ({frac:.1%}, need >= 95%)")
    assert frac >= 0.95


def test_03_neighbor_counts_match_brute_force():
    # the spatial index must agree with O(N^2) enumeration, integer-exact
    t0 = time.perf_counter()
    gen = np.random.default_rng(42)
    sizes = ([int(v) for v in gen.integers(10, 300, 80)]
             + [int(v) for v in gen.integers(300, 1500, 15)]
             + [int(v) for v in gen.integers(1500, 5001, 5)])
    mismatches = 0
    for n in sizes:
        pts = gen.uniform(-1, 1, (n, 3))
        r = float(gen.uniform(0.05, 0.6))
        cloud = _cloud_of(pts)
        index = build_index(cloud)
        counts = np.array([radius_neighbors(cloud, index, i, r)
                           for i in range(n)])
        brute = np.zeros(n, dtype=np.int64)
        for s in range(0, n, 512):
            e = min(s + 512, n)
            d2 = ((pts[s:e, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
            brute[s:e] = (d2 <= r * r).sum(axis=1) - 1
        mismatches += int((counts != brute).sum())
    ok = mismatches == 0
    _line(3, "neighbor counts vs brute force", ok,
          f"{len(sizes)} clouds (N up to {max(sizes)}), "
          f"{mismatches} mismatches, {time.perf_counter() - t0:.1f}s")
    assert mismatches == 0


def test_04_outlier_purification_efficacy():
    # isolated points must die, dense-cluster points must survive
    worst_removed = 1.0
    worst_lost = 0.0
    for seed in range(20):
        gen = np.random.default_rng(seed)
        center = np.array([0.5, 0.5, 0.5])
        v = gen.normal(size=(5000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        radii = 0.12 * gen.uniform(0, 1, 5000) ** (1 / 3)
        cluster = center + v * radii[:, None]
        outliers = []
        while len(outliers) < 50:
            p = gen.uniform(0, 1, 3)
            if np.linalg.norm(p - center) < 0.21:
                continue
            if outliers and np.min(np.linalg.norm(
                    np.asarray(outliers) - p, axis=1)) < 0.09:
                continue
            outliers.append(p)
        pts = np.vstack([cluster, outliers])
        filtered = purify(_cloud_of(pts), tau=16, r_factor=0.02)
        removed = float((~filtered.alive[5000:]).mean())
        lost = float((~filtered.alive[:5000]).mean())
        worst_removed = min(worst_removed, removed)
        worst_lost = max(worst_lost, lost)
    ok = worst_removed >= 0.90 and worst_lost <= 0.01
    _line(4, "outlier purification efficacy", ok,
          f"20 seeds, 50 outliers each: worst removal {worst_removed:.1%} "
          f"(need >= 90%), worst cluster loss {worst_lost:.2%} (cap 1%)")
    assert worst_removed >= 0.90
    assert worst_lost <= 0.01


def test_05_variance_weighting_beats_uniform(corpus):
    # with noise heads present, variance weighting must win per scene and
    # in the corpus mean
    wins = 0
    jm_weighted, jm_uniform = [], []
    for bundle, _ in corpus:
        assert bundle.heads - 2 >= 4  # noise heads dominate the stack
        masks_w = np.zeros_like(bundle.gt_masks)
        masks_u = np.zeros_like(bundle.gt_masks)
        for f in range(bundle.frames):
            maps = bundle.attention[f].astype(np.float64)
            masks_w[f] = attention.binarize(
                attention.aggregate(maps, weighted=True), 0.5,
                patch=bundle.patch)
            masks_u[f] = attention.binarize(
                attention.aggregate(maps, weighted=False), 0.5,
                patch=bundle.patch)
        jw = jaccard_mean(masks_w, bundle.gt_masks)
        ju = jaccard_mean(masks_u, bundle.gt_masks)
        jm_weighted.append(jw)
        jm_uniform.append(ju)
        wins += jw > ju
    gain = (np.mean(jm_weighted) - np.mean(jm_uniform)) / np.mean(jm_uniform)
    ok = wins >= 18 and gain >= 0.05
    _line(5, "variance weighting vs uniform", ok,
          f"wins {wins}/20 (need >= 18), corpus-mean gain {gain:+.1%} "
          f"(need >= +5%)")
    assert wins >= 18
    assert gain >= 0.05


def test_06_confidence_weighting_lowers_false_positives():
    # heteroscedastic depth noise with consistent logits: weighting by
    # confidence must flag fewer static points than uniform weighting
    wins = 0
    fpr_conf_all, fpr_unif_all = [], []
    for seed in range(20):
        spec = synthetic.SceneSpec(seed=seed, frames=5, width=96, height=72,
                                   patch=8, movers=[], depth_sigma=0.03,
                                   high_fraction=0.3)
        bundle, _ = synthetic.generate(spec)
        gen = np.random.default_rng(seed + 500)
        masks = np.zeros((bundle.frames, bundle.height, bundle.width),
                         dtype=bool)
        for f in range(bundle.frames):
            rows = gen.integers(0, bundle.height, 250)
            cols = gen.integers(0, bundle.width, 250)
            masks[f, rows, cols] = True
        cloud = purification.unproject_mask(bundle, masks)
        conf = crossview.activate_confidence(
            bundle.confidence_logits.astype(np.float64))
        s_conf, n_conf = crossview.score_cloud(cloud, bundle, conf)
        s_unif, n_unif = crossview.score_cloud(cloud, bundle,
                                               np.ones_like(conf))
        fpr_conf = float((s_conf[n_conf > 0] > 0.1).mean())
        fpr_unif = float((s_unif[n_unif > 0] > 0.1).mean())
        fpr_conf_all.append(fpr_conf)
        fpr_unif_all.append(fpr_unif)
        wins += fpr_conf < fpr_unif
    ok = wins >= 18
    _line(6, "confidence weighting static FPR", ok,
          f"strictly lower in {wins}/20 seeds (need >= 18); "
          f"mean FPR {np.mean(fpr_conf_all):.3f} vs "
          f"{np.mean(fpr_unif_all):.3f}")
    assert wins >= 18


def test_07_ablation_monotonicity(corpus):
    # enabling stages one by one must never cost more than 1% corpus-mean
    # JM per step and must help by >= 10% overall
    stages = [
        ("baseline", PipelineConfig(enable_attention_weighting=False,
                                    enable_purification=False,
                                    enable_uncertainty=False)),
        ("+uncertainty", PipelineConfig(enable_attention_weighting=False,
                                        enable_purification=False,
                                        enable_uncertainty=True)),
        ("+purification", PipelineConfig(enable_attention_weighting=False,
                                         enable_purification=True,
                                         enable_uncertainty=True)),
        ("+attention", PipelineConfig()),
    ]
    scores = np.zeros((len(corpus), len(stages)))
    for k, (bundle, _) in enumerate(corpus):
        noisy = corrupt(bundle, outlier_points=12, seed=1000 + k)
        for j, (_, cfg) in enumerate(stages):
            result = run(noisy, cfg)
            scores[k, j] = jaccard_mean(result.masks, bundle.gt_masks)
    means = scores.mean(axis=0)
    steps = (means[1:] - means[:-1]) / means[:-1]
    overall = (means[-1] - means[0]) / means[0]
    ok = bool(steps.min() >= -0.01 and overall >= 0.10)
    chain = " -> ".join(f"{m:.4f}" for m in means)
    _line(7, "ablation monotonicity", ok,
          f"corpus-mean JM {chain}; steps "
          + ", ".join(f"{s:+.2%}" for s in steps)
          + f"; overall {overall:+.1%} (need >= +10%, no step < -1%)")
    assert steps.min() >= -0.01
    assert overall >= 0.10


def test_08_metric_self_consistency():
    failures = []

    # region overlap identities
    gen = np.random.default_rng(42)
    m = gen.random((3, 20, 30)) > 0.5
    if jaccard_mean(m, m) != 1.0:
        failures.append("identical-mask overlap")
    a = np.zeros((1, 20, 30), bool)
    b = np.zeros((1, 20, 30), bool)
    a[0, 2:8, 2:8] = True
    b[0, 12:18, 12:18] = True
    if jaccard_mean(a, b) != 0.0:
        failures.append("disjoint overlap")
    p = np.zeros((1, 30, 30), bool)
    g = np.zeros((1, 30, 30), bool)
    p[0, 5:15, 5:15] = True
    g[0, 5:15, 10:20] = True
    if jaccard_mean(p, g) != pytest.approx(1 / 3, abs=1e-15):
        failures.append("half-overlap 1/3")

    # boundary identities
    big = np.zeros((1, 256, 256), bool)
    big[0, 60:180, 60:180] = True
    if evaluation.boundary_f_frames(big, big)[0] != 1.0:
        failures.append("identical boundary")
    shifted = np.roll(big, 1, axis=2)
    if evaluation.boundary_f_frames(shifted, big)[0] != 1.0:
        failures.append("1px shift within tolerance")
    if evaluation.boundary_f_frames(np.zeros_like(big), big)[0] != 0.0:
        failures.append("empty prediction boundary")

    # the removed trajectory check drew these; drawing them still keeps the
    # cloud checks below on their original random inputs
    gen.uniform(-2, 2, (6, 3))

    # cloud identities
    pts = gen.uniform(-1, 1, (99, 3))
    stats = evaluation.cloud_metrics(pts, pts)
    if any(v != 0.0 for v in stats.values()):
        failures.append("identical clouds")
    # offset past the max-x point, so 0.25 is provably the nearest distance
    outlier = pts[np.argmax(pts[:, 0])] + np.array([0.25, 0.0, 0.0])
    pred = np.vstack([pts, outlier])
    assert np.min(np.linalg.norm(pts - outlier, axis=1)) == 0.25
    stats = evaluation.cloud_metrics(pred, pts)
    if stats["acc_mean"] != pytest.approx(0.25 / 100, abs=1e-15):
        failures.append("single-outlier accuracy")
    if stats["comp_mean"] != 0.0:
        failures.append("single-outlier completeness")

    # exact agreement with the O(N^2) nearest-neighbor oracle at N=100
    pa = gen.uniform(-1, 1, (100, 3))
    pb = gen.uniform(-1, 1, (100, 3))
    d2 = ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
    acc = np.sqrt(d2.min(axis=1))
    comp = np.sqrt(d2.min(axis=0))
    stats = evaluation.cloud_metrics(pa, pb)
    brute = {
        "acc_mean": float(acc.mean()), "acc_median": float(np.median(acc)),
        "comp_mean": float(comp.mean()),
        "comp_median": float(np.median(comp)),
        "dist_mean": float((acc.mean() + comp.mean()) / 2),
        "dist_median": float((np.median(acc) + np.median(comp)) / 2),
    }
    if stats != brute:
        failures.append("brute-force cloud stats")

    ok = not failures
    _line(8, "metric self-consistency", ok,
          "all identities and the N=100 brute-force check exact"
          if ok else f"failed: {', '.join(failures)}")
    assert not failures


def test_09_invariance_suite():
    failures = []

    # confidence-scale invariance of the dynamic score
    spec = synthetic.SceneSpec(seed=2, frames=5, width=96, height=72,
                               patch=8, movers=[], depth_sigma=0.03,
                               high_fraction=0.3)
    bundle, _ = synthetic.generate(spec)
    gen = np.random.default_rng(7)
    masks = np.zeros((bundle.frames, bundle.height, bundle.width), bool)
    for f in range(bundle.frames):
        masks[f, gen.integers(0, bundle.height, 200),
              gen.integers(0, bundle.width, 200)] = True
    cloud = purification.unproject_mask(bundle, masks)
    conf = crossview.activate_confidence(
        bundle.confidence_logits.astype(np.float64))
    s1, _ = crossview.score_cloud(cloud, bundle, conf)
    s2, _ = crossview.score_cloud(cloud, bundle, conf * 7.3)
    drift = float(np.abs(s1 - s2).max())
    if drift > 1e-9:
        failures.append(f"confidence scale (drift {drift:.1e})")

    # purification: input order must not matter, and raising tau must
    # only shrink the surviving set
    pts = gen.uniform(-1, 1, (600, 3))
    pts[:300] *= 0.1  # a dense core plus sparse fringe
    base = purify(_cloud_of(pts), tau=16, r_factor=0.02)
    perm = gen.permutation(600)
    shuffled = purify(_cloud_of(pts[perm]), tau=16, r_factor=0.02)
    same = np.array_equal(base.alive[perm], shuffled.alive)
    if not same:
        failures.append("purify order dependence")
    stricter = purify(_cloud_of(pts), tau=24, r_factor=0.02)
    if bool(np.any(stricter.alive & ~base.alive)):
        failures.append("tau monotonicity")

    # the removed trajectory check drew these; drawing them still keeps the
    # aggregation check below on its original random input
    gen.uniform(-3, 3, (8, 3))
    gen.normal(0, 0.05, (8, 3))

    # aggregation: appending constant heads must not move the argmax
    maps = gen.random((6, 9, 12))
    fused = attention.aggregate(maps)
    padded = attention.aggregate(
        np.concatenate([maps, np.full((2, 9, 12), 0.7)], axis=0))
    if (int(np.argmax(fused.values)) != int(np.argmax(padded.values))):
        failures.append("aggregate argmax under constant heads")

    ok = not failures
    _line(9, "invariance suite", ok,
          "confidence scale, purify order/tau, "
          "argmax under distractors all hold"
          if ok else f"failed: {', '.join(failures)}")
    assert not failures


def test_10_determinism_and_corpus_runtime(tmp_path):
    # two CLI runs with the same seed must agree byte for byte on every
    # artifact except the wall-clock timing sidecar
    spec = {
        "seed": 5, "frames": 5, "width": 96, "height": 72, "patch": 8,
        "movers": [{"shape": "sphere", "size": 0.35,
                    "start": [0.2, -0.2, 3.0],
                    "velocity": [0.01, 0.12, 0.0]}],
        "noise": {"depth_sigma": 0.02, "high_fraction": 0.25},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    digests = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        scene, pred = root / "scene", root / "pred"
        assert main(["generate", str(spec_path), "--out", str(scene)]) == 0
        assert main(["mask", str(scene), "--out", str(pred)]) == 0
        assert main(["eval", str(pred), str(scene)]) == 0
        tree = {}
        for p in sorted(root.rglob("*")):
            if p.is_file() and p.name != "timing.json":
                tree[str(p.relative_to(root))] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
        digests.append(tree)
    identical = digests[0] == digests[1]

    # the full corpus loop (generate, mask, evaluate every scene) must
    # finish inside the interactive budget
    t0 = time.perf_counter()
    jms = []
    for spec_k in synthetic.corpus_specs():
        bundle, _ = synthetic.generate(spec_k)
        result = run(bundle)
        jms.append(jaccard_mean(result.masks, bundle.gt_masks))
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 120.0
    _line(10, "determinism and corpus runtime", ok,
          f"{len(digests[0])} artifacts byte-identical across runs: "
          f"{identical}; 20-scene corpus in {elapsed:.1f}s "
          f"(limit 120s, mean JM {np.mean(jms):.3f})")
    assert identical
    assert elapsed < 120.0
