import numpy as np

from efanet import engine
from efanet.analyze import (FlopRecorder, analyze_model, count_params,
                            single_conv_cost)
from efanet.backbone import BackboneConfig
from efanet.engine import Tensor
from efanet.layers import Conv2d
from efanet.model import EFANet, ModelConfig


def toy_config():
    return ModelConfig(common_width=8,
                       backbone=BackboneConfig(
                           stem_channels=4,
                           channels_per_level=(4, 6, 8, 10, 12)))


# hand ledger formulas, kept independent of the package's counting code
def conv_p(cin, cout, k):
    return cout * cin * k * k + cout


def bn_p(c):
    return 2 * c


def conv_f(cin, cout, k, res):
    return 2 * cout * cin * k * k * res * res


def build_ledger(res):
    """Per-layer parameter and FLOP ledger for toy_config at `res` input."""
    K = 8
    chans = [4, 6, 8, 10, 12]
    prev = [4, 4, 6, 8, 10]            # stem output feeds level 1
    lres = [res // 2, res // 4, res // 8, res // 16, res // 32]

    params = {"backbone.stem.conv": conv_p(1, 4, 3),
              "backbone.stem.bn": bn_p(4)}
    flops = {"backbone.stem.conv": conv_f(1, 4, 3, res // 2),
             "backbone.stem.bn": 4 * (res // 2) ** 2,
             "backbone.stem": 4 * (res // 2) ** 2}     # the block's ReLU

    def cbr(name, cin, cout, r):
        params[name + ".conv"] = conv_p(cin, cout, 3)
        params[name + ".bn"] = bn_p(cout)
        flops[name + ".conv"] = conv_f(cin, cout, 3, r)
        flops[name + ".bn"] = cout * r * r
        flops[name] = cout * r * r

    def pwc(name, cin, cout, r, calls=1):
        params[name] = conv_p(cin, cout, 1)
        flops[name] = calls * conv_f(cin, cout, 1, r)

    for i in range(5):
        base = f"backbone.levels.level{i + 1}"
        c, r = chans[i], lres[i]
        cbr(base + ".transition", prev[i], c, r)
        cbr(base + ".blocks.block1.block1", c, c, r)
        params[base + ".blocks.block1.conv2"] = conv_p(c, c, 3)
        params[base + ".blocks.block1.bn2"] = bn_p(c)
        flops[base + ".blocks.block1.conv2"] = conv_f(c, c, 3, r)
        flops[base + ".blocks.block1.bn2"] = c * r * r

    pwc("egm.reduce2", 6, K, lres[1])
    pwc("egm.reduce5", 12, K, lres[4])
    cbr("egm.fuse12", chans[0] + K, K, lres[0])
    cbr("egm.fuse_edge", 2 * K, K, lres[0])
    pwc("egm.edge_out", K, 1, lres[0])

    for i in range(5):
        base = f"scms.scm{i + 1}"
        r = lres[i]
        pwc(base + ".pre_a", chans[i], K, r)
        pwc(base + ".pre_b", chans[i], K, r)
        for rate in (2, 4, 8):
            cbr(f"{base}.branches.rate{rate}", K, K, r)
        cbr(base + ".fuse_cat", 3 * K, K, r)
        cbr(base + ".fuse_res", K, K, r)
        cbr(base + ".out", K, K, r)

    for i in range(4):
        base = f"cfms.cfm{i + 1}"
        r = lres[i]
        c, mid = 2 * K, 2 * K // 4
        for b in (1, 2, 3):
            cbr(f"{base}.branch{b}", c, c, r)
        pwc(base + ".local_pwc1", c, mid, r)
        pwc(base + ".local_pwc2", mid, c, r)
        pwc(base + ".global_pwc1", c, mid, 1)
        pwc(base + ".global_pwc2", mid, c, 1)
        cbr(base + ".out", 3 * c, K, r)

    pwc("edge_attn", K, 1, lres[0], calls=4)  # shared across the 4 sides

    for i in range(4):
        base = f"heads.head{i + 1}"
        r = lres[i]
        cbr(base + ".block1", K, K, r)
        cbr(base + ".block2", K, K, r)
        pwc(base + ".out", K, 1, r)

    return params, flops


class TestSingleConv:
    def test_reference_formula(self):
        assert single_conv_cost(3, 8, 3, 16, 16) == (224, 110592)

    def test_measured_against_formula(self):
        conv = Conv2d(3, 8, 3, np.random.default_rng(0), padding=1)
        assert sum(p.data.size for p in conv.parameters()) == 224
        rec = FlopRecorder()
        engine.set_flop_recorder(rec)
        try:
            with engine.no_grad():
                conv(Tensor(np.zeros((1, 3, 16, 16))))
        finally:
            engine.set_flop_recorder(None)
        assert sum(v for (_, kind), v in rec.entries.items()
                   if kind == "conv") == 110592


class TestLedger:
    def test_layer_params_match_exactly(self):
        report = analyze_model(toy_config(), 64)
        params, _ = build_ledger(64)
        assert report.layer_params == params

    def test_conv_bn_relu_flops_match_exactly(self):
        report = analyze_model(toy_config(), 64)
        _, flops = build_ledger(64)
        for name, want in flops.items():
            assert report.layer_flops.get(name) == want, name

    def test_totals_are_sums_of_parts(self):
        report = analyze_model(toy_config(), 64)
        assert report.total_params == sum(report.layer_params.values())
        assert report.total_flops == sum(report.layer_flops.values())
        assert report.total_params == sum(report.module_params.values())
        assert report.total_flops == sum(report.module_flops.values())

    def test_module_grouping(self):
        report = analyze_model(toy_config(), 64)
        for module in ("backbone", "egm", "scms", "cfms", "heads",
                       "edge_attn", "decoder"):
            assert module in report.module_flops or module == "edge_attn"
        want_backbone = sum(v for k, v in report.layer_params.items()
                            if k.startswith("backbone."))
        assert report.module_params["backbone"] == want_backbone


class TestScaling:
    def test_params_independent_of_resolution(self):
        a = analyze_model(toy_config(), 64)
        b = analyze_model(toy_config(), 128)
        assert a.layer_params == b.layer_params

    def test_conv_flops_quadruple_when_resolution_doubles(self):
        a = analyze_model(toy_config(), 64)
        b = analyze_model(toy_config(), 128)
        for name in a.layer_flops:
            if name.endswith(".conv") and "global_pwc" not in name:
                assert b.layer_flops[name] == 4 * a.layer_flops[name], name

    def test_every_layer_doubles_when_batch_doubles(self):
        a = analyze_model(toy_config(), 64, batch=1)
        b = analyze_model(toy_config(), 64, batch=2)
        assert b.layer_flops == {k: 2 * v for k, v in a.layer_flops.items()}


class TestReportRendering:
    def test_render_mentions_convention_and_total(self):
        report = analyze_model(toy_config(), 64)
        text = report.render()
        assert "1 MAC = 2 FLOPs" in text
        assert "TOTAL" in text
        assert str(report.total_params) in text

    def test_count_params_matches_model(self):
        model = EFANet(toy_config(), seed=0)
        per_layer = count_params(model)
        assert sum(per_layer.values()) == sum(
            p.data.size for p in model.parameters())
