"""The public signatures that carry no option a caller sets.

Each metric convention, batch-norm constant and layer default below is a
module constant, not a parameter; re-adding a parameter is a deliberate
edit of this file.
"""

import dataclasses
import inspect

import pytest

import efanet
from efanet import (analyze, backbone, config, dataio, engine, layers,
                    metrics, model, pipeline)

SIGNATURES = [
    (metrics.s_measure, "(pred, gt)"),
    (metrics.weighted_fmeasure, "(pred, gt)"),
    (metrics.pr_curves, "(samples)"),
    (metrics.mean_curves, "(curve_sets)"),
    # relu applies the block's ReLU in the norm's own graph node
    (engine.batch_norm,
     "(x, gamma, beta, running_mean, running_var, training, relu=False)"),
    (engine.bilinear_resize, "(x, out_h, out_w)"),
    (layers.ConvBNReLU.__init__,
     "(self, cin, cout, k, rng, stride=1, dilation=1, dtype=<class "
     "'numpy.float64'>)"),
    (analyze.analyze_model, "(config: 'ModelConfig', resolution, batch=1)"),
    (dataio.read_mask, "(path)"),
    (backbone.Backbone.forward, "(self, image)"),
    (config.parse_config, "(text) -> 'RunConfig'"),
    (model.boundary_weights, "(mask)"),
    (model.seg_loss, "(side_logits, mask)"),
    (pipeline.rescale, "(image, mask, size)"),
    (pipeline.augment, "(image, mask, rng, config: 'AugConfig')"),
]


@pytest.mark.parametrize("fn, signature", SIGNATURES,
                         ids=[fn.__qualname__ for fn, _ in SIGNATURES])
def test_signature(fn, signature):
    assert str(inspect.signature(fn)) == signature


def test_curve_set_fields():
    assert [f.name for f in dataclasses.fields(metrics.CurveSet)] == [
        "thresholds", "precision", "recall", "fmeasure"]


def test_no_pass_through_wrappers():
    assert not hasattr(backbone, "FeaturePyramid")
    assert not hasattr(metrics.MetricReport, "bucket_report")


def test_package_exports():
    assert efanet.__all__ == [
        "Adam", "Backbone", "BackboneConfig", "EFANet", "LossBreakdown",
        "ModelConfig", "ModelOutput", "RunConfig", "Tensor", "backward",
        "total_loss"]
