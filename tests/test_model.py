import gc
import importlib
import pkgutil
import weakref

import numpy as np
import pytest
from scipy import ndimage

import efanet
from efanet import engine
from efanet import model as M
from efanet.backbone import BackboneConfig
from efanet.engine import Adam, Tensor, backward
from efanet.layers import Module
from efanet.model import (CrossLevelFusion, EFANet, ModelConfig,
                          ScaleAwareConv, boundary_weights, edge_loss,
                          seg_loss, total_loss)
from gradcheck import max_rel_error, numerical_gradient
from test_pipeline import filter_oracle_masks


def tiny_config(**kw):
    backbone = BackboneConfig(stem_channels=4,
                              channels_per_level=(4, 6, 8, 10, 12))
    return ModelConfig(common_width=8, backbone=backbone, **kw)


def make(seed=0, **kw):
    return EFANet(tiny_config(**kw), seed=seed)


def image(size, seed=0, n=1):
    rng = np.random.default_rng(seed)
    return Tensor(rng.random((n, 1, size, size)))


class TestArchitecture:
    @pytest.mark.parametrize("size", [64, 96])
    def test_output_resolutions(self, size):
        net = make()
        net.eval()
        out = net(image(size))
        for s in out.side_logits:
            assert s.shape == (1, 1, size, size)
        assert out.edge_logits.shape == (1, 1, size, size)
        assert out.edge_feature.shape == (1, 8, size // 2, size // 2)
        assert len(out.side_logits) == 4

    def test_modules_define_forward_not_call(self):
        # Module.__call__ is the one place a module's FLOP scope is entered
        classes = []
        for info in pkgutil.iter_modules(efanet.__path__):
            mod = importlib.import_module(f"efanet.{info.name}")
            classes += [c for c in vars(mod).values() if isinstance(c, type)
                        and issubclass(c, Module) and c is not Module
                        and c.__module__ == mod.__name__]
        assert len(classes) >= 10
        for cls in classes:
            assert "__call__" not in vars(cls), cls.__name__

    @pytest.mark.parametrize("kw", [dict(common_width=0),
                                    dict(cfm_reduction=0)])
    def test_nonpositive_width_or_reduction_rejected(self, kw):
        with pytest.raises(ValueError, match="positive"):
            ModelConfig(**kw)

    def test_reduction_must_divide(self):
        with pytest.raises(ValueError, match="cfm_reduction"):
            ModelConfig(common_width=8, cfm_reduction=3)

    def test_seed_determinism(self):
        a, b = make(seed=5), make(seed=5)
        for (na, pa), (nb, pb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_edge_weight_bounds(self):
        net = make()
        net.eval()
        rng = np.random.default_rng(7)
        fcfm = Tensor(rng.random((1, 8, 16, 16)))  # strictly positive feature
        fe = Tensor(rng.standard_normal((1, 8, 32, 32)))
        out = net.edge_weight(fcfm, fe).data
        assert np.all(out >= fcfm.data - 1e-12)
        assert np.all(out <= 2 * fcfm.data + 1e-12)

    def test_scm_branch_impulse_offsets(self):
        """With branch-isolating weights an impulse must touch exactly the
        nine taps at offsets {-r, 0, +r} for each dilation rate."""
        scm = ScaleAwareConv(1, 1, (2, 4, 8), np.random.default_rng(0),
                             np.float64)
        scm.annotate_scopes()
        scm.eval()
        scm.pre_a.weight.data[:] = 1.0
        x = np.zeros((1, 1, 33, 33))
        x[0, 0, 16, 16] = 1.0
        pre = scm.pre_a(Tensor(x))
        for r in (2, 4, 8):
            branch = getattr(scm.branches, f"rate{r}")
            branch.conv.weight.data[:] = 1.0
            out = branch(pre).data[0, 0]
            nz = set(zip(*np.nonzero(out)))
            want = {(16 + dy, 16 + dx) for dy in (-r, 0, r)
                    for dx in (-r, 0, r)}
            assert nz == want, f"rate {r}"

    def test_scm_preserves_resolution(self):
        scm = ScaleAwareConv(3, 8, (2, 4, 8), np.random.default_rng(1),
                             np.float64)
        scm.annotate_scopes()
        scm.eval()
        rng = np.random.default_rng(2)
        out = scm(Tensor(rng.random((1, 3, 20, 20))))
        assert out.shape == (1, 8, 20, 20)

    @pytest.mark.parametrize("training", [True, False])
    def test_cfm_sibling_convs_match_separate_blocks(self, monkeypatch,
                                                     training):
        """A CFM's three branch convs as one conv give the output, every
        parameter and input gradient and the batch-norm running statistics
        of three separate ConvBNReLU calls, to 1e-12 in float64."""
        conv2d, results = engine.conv2d, []

        def counted(*args, **kwargs):
            convs[0] += 1
            return conv2d(*args, **kwargs)

        monkeypatch.setattr(engine, "conv2d", counted)
        for fused in (True, False):
            if not fused:
                monkeypatch.setattr(M, "sibling_blocks",
                                    lambda blocks, x: [b(x) for b in blocks])
            cfm = CrossLevelFusion(4, 2, np.random.default_rng(4), np.float64)
            cfm.set_training(training)
            rng = np.random.default_rng(5)
            fa, fb = (Tensor(rng.normal(size=(3, 4, 9, 10)), requires_grad=True)
                      for _ in range(2))
            convs = [0]
            out = cfm(fa, fb)
            backward((out * rng.normal(size=out.shape)).sum())
            arrays = {"out": out.data, "fa": fa.grad, "fb": fb.grad}
            arrays.update((name, p.grad) for name, p in cfm.named_parameters())
            arrays.update(cfm.named_buffers())
            results.append((convs[0], arrays))
        (n_fused, fused), (n_separate, separate) = results
        # the branches, four 1x1 convs and the output conv
        assert (n_fused, n_separate) == (6, 8)
        assert fused.keys() == separate.keys()
        for name, want in separate.items():
            err = np.max(np.abs(fused[name] - want))
            if training and name.endswith("conv.bias"):
                # batch norm cancels the bias of the conv before it: the
                # exact gradient is 0, and both sides hold rounding noise
                assert max(err, np.max(np.abs(want))) < 1e-12, name
            else:
                assert err <= 1e-12 * np.max(np.abs(want)), name

    def test_backward_reaches_all_parameters(self):
        net = make(seed=1)
        net.train()
        out = net(image(32, seed=3))
        mask = np.zeros((1, 1, 32, 32))
        mask[0, 0, 8:24, 8:24] = 1.0
        edge = np.zeros((1, 1, 32, 32))
        edge[0, 0, 8, 8:24] = 1.0
        loss = total_loss(out, mask, edge, net.config)
        backward(loss.total)
        missing = [n for n, p in net.named_parameters() if p.grad is None]
        assert missing == []


class TestLoss:
    def _mask(self, size=16):
        mask = np.zeros((1, 1, size, size))
        mask[0, 0, 4:12, 4:12] = 1.0
        return mask

    def test_boundary_weight_range_and_interior(self):
        mask = np.zeros((1, 1, 64, 64))
        mask[0, 0, 16:48, 16:48] = 1.0
        w = boundary_weights(mask)
        assert np.all(w >= 1.0) and np.all(w <= 6.0)
        assert w[0, 0, 32, 32] == 1.0            # deep interior
        assert w[0, 0, 2, 2] == 1.0              # far background
        assert w[0, 0, 16, 16] > 1.0             # mask corner

    def test_boundary_weight_kernel_scaling(self):
        # nearest odd to 31 * H / 352, floor 3
        for size, lo, hi, kernel in [(352, 100, 200, 31), (32, 10, 20, 3)]:
            g = np.zeros((1, 1, size, size))
            g[0, 0, lo:hi, lo:hi] = 1.0
            pooled = ndimage.uniform_filter(g, size=(1, 1, kernel, kernel),
                                            mode="nearest")
            np.testing.assert_array_equal(boundary_weights(g),
                                          1.0 + 5.0 * np.abs(pooled - g))

    @pytest.mark.parametrize("mask", filter_oracle_masks())
    def test_box_mean_matches_scipy(self, mask):
        # kernels up to 31 on lines as short as 5, shorter than k // 2
        for k in (3, 5, 7, 9, 15, 31):
            for axis in (0, 1):
                np.testing.assert_array_equal(
                    M._box_mean(mask, k, axis),
                    ndimage.uniform_filter1d(mask, k, axis, mode="nearest"))
            np.testing.assert_array_equal(
                M._box_mean(M._box_mean(mask[None, None], k, -2), k, -1),
                ndimage.uniform_filter(mask[None, None], size=(1, 1, k, k),
                                       mode="nearest"))

    def test_zero_logits_closed_form(self):
        # all-ones mask: w = 1 everywhere, so the loss reduces to
        # ln 2 (BCE at p=0.5) plus 0.5 (IoU with p=0.5 against g=1)
        mask = np.ones((1, 1, 8, 8))
        logits = Tensor(np.zeros((1, 1, 8, 8)))
        val = float(seg_loss([logits], mask)[0].data)
        np.testing.assert_allclose(val, np.log(2.0) + 0.5, atol=1e-12)

    def test_saturated_logits_near_zero(self):
        mask = self._mask()
        logits = Tensor(np.where(mask == 1, 20.0, -20.0))
        assert float(seg_loss([logits], mask)[0].data) < 1e-3

    def test_saturated_logits_stay_finite_float32(self):
        mask = self._mask().astype(np.float32)
        logits = Tensor(np.where(mask == 1, 30.0, -30.0).astype(np.float32))
        val = float(seg_loss([logits], mask)[0].data)
        assert np.isfinite(val) and val < 5e-3

    def test_non_binary_mask_rejected(self):
        mask = np.full((1, 1, 4, 4), 0.5)
        with pytest.raises(ValueError, match="binary"):
            seg_loss([Tensor(np.zeros((1, 1, 4, 4)))], mask)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="seg_loss"):
            seg_loss([Tensor(np.zeros((1, 1, 4, 4)))], np.zeros((1, 1, 8, 8)))

    def test_one_loss_per_side(self):
        mask = self._mask()
        rng = np.random.default_rng(5)
        sides = [Tensor(rng.normal(size=mask.shape)) for _ in range(3)]
        losses = seg_loss(sides, mask)
        assert len(losses) == 3
        for side, loss in zip(sides, losses):   # as if scored alone
            assert float(loss.data) == float(seg_loss([side], mask)[0].data)

    def test_one_weight_map_per_batch(self, monkeypatch):
        shapes = []

        def counting(mask):
            shapes.append(mask.shape)
            return boundary_weights(mask)

        monkeypatch.setattr(M, "boundary_weights", counting)
        net = make(seed=2)
        net.eval()
        out = net(image(32, seed=4, n=2))
        mask = np.zeros((2, 1, 32, 32))
        mask[:, 0, 10:22, 10:22] = 1.0
        total_loss(out, mask, np.zeros_like(mask), net.config)
        assert shapes == [(2, 1, 32, 32)]

    def test_edge_loss_zero_logits(self):
        edge = np.zeros((1, 1, 8, 8))
        edge[0, 0, 3, :] = 1.0
        val = float(edge_loss(Tensor(np.zeros((1, 1, 8, 8))), edge).data)
        np.testing.assert_allclose(val, np.log(2.0), atol=1e-12)

    def test_total_recomposes_exactly(self):
        net = make(seed=2)
        net.eval()
        out = net(image(32, seed=4))
        mask = np.zeros((1, 1, 32, 32))
        mask[0, 0, 10:22, 10:22] = 1.0
        edge = np.zeros((1, 1, 32, 32))
        edge[0, 0, 10, 10:22] = 1.0
        loss = total_loss(out, mask, edge, net.config)
        seg_vals, edge_val, total_val = loss.values()
        recomposed = sum(seg_vals) + net.config.beta_edge * edge_val
        assert abs(total_val - recomposed) < 1e-12

    def test_beta_zero_drops_edge_term(self):
        net = make(seed=2, beta_edge=0.0)
        net.eval()
        out = net(image(32, seed=4))
        mask = np.zeros((1, 1, 32, 32))
        mask[0, 0, 10:22, 10:22] = 1.0
        edge = np.zeros((1, 1, 32, 32))
        loss = total_loss(out, mask, edge, net.config)
        seg_vals, _edge_val, total_val = loss.values()
        assert abs(total_val - sum(seg_vals)) < 1e-12


class TestEndToEndGradient:
    def test_three_parameters_match_finite_differences(self):
        net = make(seed=9)
        net.train()
        x = image(32, seed=10)
        mask = np.zeros((1, 1, 32, 32))
        mask[0, 0, 8:24, 10:26] = 1.0
        edge = np.zeros((1, 1, 32, 32))
        edge[0, 0, 8, 10:26] = 1.0

        def f():
            return total_loss(net(x), mask, edge, net.config).total

        net.zero_grad()
        backward(f())
        params = dict(net.named_parameters())
        probes = [
            "backbone.stem.conv.weight",
            "scms.scm1.branches.rate4.conv.weight",
            "heads.head1.out.weight",
        ]
        rng = np.random.default_rng(0)
        for name in probes:
            p = params[name]
            flat = p.data.reshape(-1)
            i = int(rng.integers(0, flat.size))
            orig = flat[i]
            # fine step: the loss surface has ReLU kinks, so a coarse h
            # would measure secant noise rather than the derivative
            h = 1e-5
            flat[i] = orig + h
            hi = float(f().data)
            flat[i] = orig - h
            lo = float(f().data)
            flat[i] = orig
            num = (hi - lo) / (2 * h)
            ana = p.grad.reshape(-1)[i]
            denom = max(1.0, abs(num), abs(ana))
            assert abs(num - ana) / denom < 1e-3, name


class TestNoReferenceCycles:
    @pytest.mark.parametrize("backpropagated", [True, False])
    def test_dropped_model_freed_by_refcount(self, backpropagated):
        # a graph node that pointed back at its tensor would leave every
        # dropped model and activation to the cyclic collector
        mask = np.zeros((2, 1, 32, 32))
        mask[:, 0, 8:24, 8:24] = 1.0
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            net = make(seed=3)
            net.train()
            out = net(image(32, seed=4, n=2))
            loss = total_loss(out, mask, mask, net.config)
            if backpropagated:
                backward(loss.total)
            param = weakref.ref(net.parameters()[0].data)
            activation = weakref.ref(out.edge_feature.data)
            del net, out, loss
            assert param() is None and activation() is None
        finally:
            if enabled:
                gc.enable()


class TestTrainingSmoke:
    def test_loss_decreases_for_most_seeds(self):
        mask = np.zeros((1, 1, 32, 32))
        mask[0, 0, 8:24, 8:24] = 1.0
        edge = np.zeros((1, 1, 32, 32))
        edge[0, 0, 8, 8:24] = 1.0
        wins = 0
        for seed in range(10):
            net = make(seed=seed)
            net.train()
            x = image(32, seed=seed + 100)
            opt = Adam(net.parameters(), lr=1e-3)
            first = None
            for _ in range(3):
                loss = total_loss(net(x), mask, edge, net.config)
                if first is None:
                    first = float(loss.total.data)
                backward(loss.total)
                opt.step()
            last = float(total_loss(net(x), mask, edge, net.config).total.data)
            wins += last < first
        assert wins >= 9
