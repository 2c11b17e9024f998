"""Tests for the end-to-end mask pipeline and its configuration.

The stage toggles have exact reference semantics: with everything off the
output must equal the binarized uniform-average saliency bit for bit, and
each partially-enabled combination must match the corresponding manual
composition of the stage functions.
"""

import json

import numpy as np
import pytest

from dynmask import attention, purification, synthetic
from dynmask.pipeline import PipelineConfig, PipelineResult, run
from oracles import jaccard_mean


def _mover_spec(seed=5):
    mover = synthetic.MoverSpec(shape="sphere", size=0.35,
                                start=np.array([0.2, -0.2, 3.0]),
                                velocity=np.array([0.01, 0.12, 0.0]),
                                color=np.array([0.85, 0.3, 0.1]))
    return synthetic.SceneSpec(seed=seed, frames=5, width=96, height=72,
                               patch=8, movers=[mover], depth_sigma=0.02,
                               high_fraction=0.25)


@pytest.fixture(scope="module")
def mover_bundle():
    bundle, gt = synthetic.generate(_mover_spec())
    return bundle, gt


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = PipelineConfig()
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_dict_keeps_defaults(self):
        cfg = PipelineConfig.from_dict({"tau": 8, "lam": 0.5})
        assert cfg.tau == 8
        assert cfg.lam == 0.5
        assert cfg.theta_dyn == PipelineConfig().theta_dyn

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            PipelineConfig.from_dict({"taus": 8})

    @pytest.mark.parametrize("raw", [None, [], "tau"])
    def test_config_must_be_an_object(self, raw):
        # null used to raise TypeError and [] to give the defaults
        with pytest.raises(ValueError, match="config must be a JSON object"):
            PipelineConfig.from_dict(raw)

    def test_tau_coerced_to_int(self):
        cfg = PipelineConfig.from_dict({"tau": 12.0})
        assert cfg.tau == 12
        assert isinstance(cfg.tau, int)

    def test_whole_numbers_take_the_field_kind(self):
        # the constructor and from_dict share one rule: 12.0 is the int 12,
        # and 1 is the float 1.0, so pipeline.json echoes one spelling
        cfg = PipelineConfig(tau=12.0)
        assert cfg.tau == 12 and type(cfg.tau) is int
        theta_dyn = PipelineConfig.from_dict({"theta_dyn": 1}).theta_dyn
        assert theta_dyn == 1.0 and type(theta_dyn) is float

    @pytest.mark.parametrize("field,value", [
        ("eps", 0.0), ("eps", -1e-9),
        ("theta_saliency", -0.1), ("theta_saliency", 1.5),
        ("r_factor", -0.01), ("tau", -1), ("lam", -0.2),
        ("theta_dyn", -0.5), ("occlusion_tolerance", -1.0),
    ])
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_enable_flags_must_be_bool(self, value):
        # "false" is truthy: a string flag used to leave the mechanism on
        for name in ("enable_attention_weighting", "enable_purification",
                     "enable_uncertainty"):
            with pytest.raises(ValueError, match=name):
                PipelineConfig.from_dict({name: value})

    @pytest.mark.parametrize("value", [16.9, True, False, "16", None,
                                       pytest.param(10 ** 400, id="huge")])
    def test_tau_must_be_integer(self, value):
        with pytest.raises(ValueError, match="tau"):
            PipelineConfig.from_dict({"tau": value})

    @pytest.mark.parametrize("field", ["eps", "theta_saliency", "r_factor",
                                       "lam", "theta_dyn",
                                       "occlusion_tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf"), "0.5", True, None,
                                       pytest.param(10 ** 400, id="huge")])
    def test_float_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig.from_dict({field: value})

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"theta_dyn": 0.25,
                                    "enable_purification": False}))
        cfg = PipelineConfig.from_json(path)
        assert cfg.theta_dyn == 0.25
        assert cfg.enable_purification is False


class TestToggleSemantics:
    def test_all_disabled_is_binarized_uniform_saliency(self, mover_bundle):
        bundle, _ = mover_bundle
        cfg = PipelineConfig(enable_attention_weighting=False,
                             enable_purification=False,
                             enable_uncertainty=False)
        result = run(bundle, cfg)
        for f in range(bundle.frames):
            maps = bundle.attention[f].astype(np.float64)
            fused = attention.aggregate(maps, weighted=False)
            expected = attention.binarize(fused, cfg.theta_saliency,
                                          patch=bundle.patch)
            assert np.array_equal(result.masks[f], expected)
        assert (result.counts["final_mask_pixels"]
                == result.counts["initial_mask_pixels"])

    def test_all_disabled_uses_uniform_head_weights(self, mover_bundle):
        bundle, _ = mover_bundle
        cfg = PipelineConfig(enable_attention_weighting=False,
                             enable_purification=False,
                             enable_uncertainty=False)
        result = run(bundle, cfg)
        np.testing.assert_allclose(result.head_weights,
                                   1.0 / bundle.heads, atol=1e-12)

    def test_weighting_only_changes_initial_masks(self, mover_bundle):
        bundle, _ = mover_bundle
        off = run(bundle, PipelineConfig(enable_attention_weighting=False,
                                         enable_purification=False,
                                         enable_uncertainty=False))
        cfg = PipelineConfig(enable_attention_weighting=True,
                             enable_purification=False,
                             enable_uncertainty=False)
        on = run(bundle, cfg)
        for f in range(bundle.frames):
            maps = bundle.attention[f].astype(np.float64)
            fused = attention.aggregate(maps, weighted=True)
            expected = attention.binarize(fused, cfg.theta_saliency,
                                          patch=bundle.patch)
            assert np.array_equal(on.masks[f], expected)
        assert not np.array_equal(on.masks, off.masks)

    def test_purification_without_refinement_masks_cloud(self, mover_bundle):
        bundle, _ = mover_bundle
        cfg = PipelineConfig(enable_attention_weighting=True,
                             enable_purification=True,
                             enable_uncertainty=False)
        result = run(bundle, cfg)

        initial = np.zeros_like(result.masks)
        sal = np.zeros((bundle.frames, bundle.height // bundle.patch,
                        bundle.width // bundle.patch))
        for f in range(bundle.frames):
            maps = bundle.attention[f].astype(np.float64)
            fused = attention.aggregate(maps, weighted=True)
            initial[f] = attention.binarize(fused, cfg.theta_saliency,
                                            patch=bundle.patch)
            sal[f] = fused.values
        cloud = purification.unproject_mask(bundle, initial, sal)
        cloud = purification.purify(cloud, tau=cfg.tau,
                                    r_factor=cfg.r_factor)
        expected = purification.mask_from_cloud(cloud, bundle)
        assert np.array_equal(result.masks, expected)

    def test_refinement_skipped_when_uncertainty_disabled(self, mover_bundle):
        bundle, _ = mover_bundle
        result = run(bundle, PipelineConfig(enable_uncertainty=False))
        assert "after_refinement" not in result.counts
        assert "refinement" not in result.timings

    def test_purification_counts_skipped_when_disabled(self, mover_bundle):
        bundle, _ = mover_bundle
        result = run(bundle, PipelineConfig(enable_purification=False))
        assert "after_purification" not in result.counts
        assert "after_refinement" in result.counts


class TestRunOutputs:
    def test_result_shapes(self, mover_bundle):
        bundle, _ = mover_bundle
        result = run(bundle)
        t, h, w = bundle.frames, bundle.height, bundle.width
        assert isinstance(result, PipelineResult)
        assert result.masks.shape == (t, h, w)
        assert result.masks.dtype == bool
        assert result.head_weights.shape == (t, bundle.heads)

    def test_head_weights_normalized(self, mover_bundle):
        bundle, _ = mover_bundle
        result = run(bundle)
        np.testing.assert_allclose(result.head_weights.sum(axis=1), 1.0,
                                   atol=1e-12)

    def test_counts_populated(self, mover_bundle):
        bundle, _ = mover_bundle
        result = run(bundle)
        for key in ("initial_mask_pixels", "initial_points",
                    "after_purification", "after_refinement",
                    "final_mask_pixels", "final_points"):
            assert key in result.counts
            assert result.counts[key] >= 0
        assert result.counts["initial_points"] <= \
            result.counts["initial_mask_pixels"]
        assert result.counts["after_purification"] <= \
            result.counts["initial_points"]
        assert result.counts["final_points"] == result.cloud.alive_count

    def test_default_config_is_none(self, mover_bundle):
        bundle, _ = mover_bundle
        a = run(bundle)
        b = run(bundle, PipelineConfig())
        assert np.array_equal(a.masks, b.masks)

    def test_deterministic_across_runs(self, mover_bundle):
        bundle, _ = mover_bundle
        a = run(bundle)
        b = run(bundle)
        assert np.array_equal(a.masks, b.masks)
        np.testing.assert_array_equal(a.cloud.positions, b.cloud.positions)
        np.testing.assert_array_equal(a.cloud.alive, b.cloud.alive)


class TestPipelineBehavior:
    def test_mover_recovered(self, mover_bundle):
        bundle, _ = mover_bundle
        result = run(bundle)
        assert jaccard_mean(result.masks, bundle.gt_masks) > 0.5

    def test_static_scene_mostly_suppressed(self):
        # zero-velocity mover: renders, but nothing is dynamic, so the
        # attention heads carry pure noise and refinement must reject
        # nearly all of the spurious saliency
        spec = synthetic.SceneSpec(
            seed=7, frames=5, width=96, height=72, patch=8,
            movers=[synthetic.MoverSpec(
                shape="sphere", size=0.4,
                start=np.array([0.3, -0.1, 3.2]),
                velocity=np.zeros(3),
                color=np.array([0.9, 0.3, 0.2]))],
            depth_sigma=0.0)
        bundle, _ = synthetic.generate(spec)
        assert bundle.gt_masks.sum() == 0
        result = run(bundle)
        assert result.counts["initial_mask_pixels"] > 0
        assert result.counts["final_mask_pixels"] <= \
            0.05 * result.counts["initial_mask_pixels"]

    def test_refinement_beats_baseline_on_noisy_scene(self):
        spec = _mover_spec(seed=11)
        bundle, _ = synthetic.generate(spec)
        baseline = run(bundle, PipelineConfig(
            enable_attention_weighting=False, enable_purification=False,
            enable_uncertainty=False))
        full = run(bundle)
        assert jaccard_mean(full.masks, bundle.gt_masks) > \
            jaccard_mean(baseline.masks, bundle.gt_masks)
