import contextlib
import itertools
import operator
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efanet import engine
from efanet.engine import (Adam, Tensor, backward, batch_norm,
                           bilinear_resize, channel_slice, concat_channels,
                           conv2d, exp, global_avg_pool, mean_all, relu,
                           sigmoid)
from efanet.model import EFANet, ModelConfig, boundary_weights, total_loss
from gradcheck import check_gradients, max_rel_error, numerical_gradient


def rand(shape, seed=0, scale=1.0, grad=False):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(scale=scale, size=shape), requires_grad=grad)


def conv_grid(test):
    """Parametrise a conv test over stride x padding x dilation."""
    test = pytest.mark.parametrize("dilation", [1, 2, 4, 8])(test)
    test = pytest.mark.parametrize("padding", [0, 1, 2, 3, 4])(test)
    return pytest.mark.parametrize("stride", [1, 2])(test)


def conv_case(shape, channels, k, stride, padding, dilation, seed):
    """x, weight, bias and an output weighting for one conv geometry of an
    (N, H, W) input and (Cin, Cout) channels, or a skip when the dilated
    kernel outgrows the padded input."""
    n, h, w = shape
    cin, cout = channels
    if min(h, w) + 2 * padding < dilation * (k - 1) + 1:
        pytest.skip("kernel larger than padded input")
    oh = (h + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    ow = (w + 2 * padding - dilation * (k - 1) - 1) // stride + 1
    return (rand((n, cin, h, w), seed, grad=True),
            rand((cout, cin, k, k), seed + 1, grad=True),
            rand((cout,), seed + 2, grad=True), rand((n, cout, oh, ow), seed + 3).data)


def tap_loop_conv2d(x, w, g, stride, padding, dilation):
    """Reference conv by one einsum per kernel tap: the output, and the
    gradients of sum(output * g) with respect to x and w."""
    h, wd = x.shape[2:]
    kh, kw = w.shape[2:]
    oh, ow = g.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out, gw, gxp = np.zeros(g.shape), np.zeros(w.shape), np.zeros(xp.shape)
    for i in range(kh):
        for j in range(kw):
            tap = (slice(None), slice(None),
                   slice(i * dilation, i * dilation + stride * (oh - 1) + 1, stride),
                   slice(j * dilation, j * dilation + stride * (ow - 1) + 1, stride))
            out += np.einsum("ncyx,oc->noyx", xp[tap], w[:, :, i, j])
            gw[:, :, i, j] = np.einsum("noyx,ncyx->oc", g, xp[tap])
            gxp[tap] += np.einsum("noyx,oc->ncyx", g, w[:, :, i, j])
    return out, gxp[:, :, padding:padding + h, padding:padding + wd], gw


def check_conv_gradients(channels, k, stride, padding, dilation, bias,
                         hw=(12, 11)):
    """Finite-difference check of a weighted sum of one conv's output; an
    11-wide stride-2 input leaves remainders."""
    x, w, b, r = conv_case((2,) + hw, channels, k, stride, padding, dilation,
                           seed=3)
    tensors = [x, w, b] if bias else [x, w]

    def f(x, w, b=None):
        out = conv2d(x, w, b, stride=stride, padding=padding, dilation=dilation)
        return (out * r).sum()

    check_gradients(f, tensors)


def check_conv_tap_loop(hw, channels, k, stride, padding, dilation, n=2):
    """One conv's output and gradients against `tap_loop_conv2d`, to 1e-12
    of the largest reference entry."""
    x, w, b, r = conv_case((n,) + hw, channels, k, stride, padding, dilation,
                           seed=40)
    out = conv2d(x, w, b, stride=stride, padding=padding, dilation=dilation)
    backward((out * r).sum())
    ref_out, ref_gx, ref_gw = tap_loop_conv2d(x.data, w.data, r, stride,
                                              padding, dilation)
    ref_out += b.data[None, :, None, None]
    for got, ref in ((out.data, ref_out), (x.grad, ref_gx), (w.grad, ref_gw),
                     (b.grad, r.sum(axis=(0, 2, 3)))):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ---------------------------------------------------------------- conv2d


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = conv2d(x, w)
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 3, 3)))

    def test_full_sum(self):
        x = Tensor(np.arange(1, 10, dtype=np.float64).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w)
        assert out.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 45.0

    def test_dilated_impulse(self):
        x = np.zeros((1, 1, 17, 17))
        x[0, 0, 8, 8] = 1.0
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(Tensor(x), w, dilation=8, padding=8)
        nz = set(zip(*np.nonzero(out.data[0, 0])))
        expected = {(8 + dy, 8 + dx) for dy in (-8, 0, 8) for dx in (-8, 0, 8)}
        assert nz == expected

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv2d(x, w, padding=1)

    def test_kernel_too_large_rejected(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match="kernel"):
            conv2d(x, w, dilation=4)

    @pytest.mark.parametrize("name,value", [("stride", 0), ("stride", -1),
                                            ("dilation", 0), ("dilation", -1),
                                            ("padding", -1)])
    def test_bad_geometry_rejected(self, name, value):
        x = Tensor(np.zeros((1, 1, 5, 5)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match=f"{name} must be"):
            conv2d(x, w, **{"padding": 1, name: value})

    @conv_grid
    def test_output_shape_formula(self, stride, padding, dilation):
        h, w, k = 21, 19, 3
        if h + 2 * padding < dilation * (k - 1) + 1:
            pytest.skip("kernel larger than padded input")
        x = rand((1, 2, h, w), seed=1)
        wt = rand((3, 2, k, k), seed=2)
        out = conv2d(x, wt, stride=stride, padding=padding, dilation=dilation)
        oh = (h + 2 * padding - dilation * (k - 1) - 1) // stride + 1
        ow = (w + 2 * padding - dilation * (k - 1) - 1) // stride + 1
        assert out.shape == (1, 3, oh, ow)

    # 2 -> 3: stride 2 and padding > dilation*(k-1) correlate the spread
    # gradient; stride-1 3x3 convs lower forward (Cout > Cin) and take
    # shifted windows for the input gradient wherever the junk rule allows
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("k", [3, 1])
    @conv_grid
    def test_gradients(self, stride, padding, dilation, k, bias):
        check_conv_gradients((2, 3), k, stride, padding, dilation, bias)

    # wherever the junk rule allows shifted windows, a stride-1 3x3 conv
    # 6 -> 2 takes them forward and lowers its input gradient, and 2 -> 6
    # the other way round
    @pytest.mark.parametrize("channels", [(6, 2), (2, 6)])
    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("k", [3, 1])
    @conv_grid
    def test_gradients_wide(self, stride, padding, dilation, k, bias, channels):
        check_conv_gradients(channels, k, stride, padding, dilation, bias)

    @pytest.mark.parametrize("k", [3, 1])
    @conv_grid
    def test_matches_tap_loop_reference(self, stride, padding, dilation, k):
        check_conv_tap_loop((21, 19), (3, 3), k, stride, padding, dilation)

    @pytest.mark.parametrize("channels", [(6, 2), (2, 6)])
    @pytest.mark.parametrize("k", [3, 1])
    @conv_grid
    def test_matches_tap_loop_reference_wide(self, stride, padding, dilation,
                                             k, channels):
        check_conv_tap_loop((21, 19), channels, k, stride, padding, dilation)

    # one case per branch of the rule: (Cin, Cout), (H, W), k, stride,
    # padding, dilation, and the methods of the forward, the input gradient
    # and the weight gradient; stride 2 and padding > dilation*(k-1)
    # correlate the spread gradient, and a shifted forward's weight gradient
    # stacks the taps into one GEMM per sample
    PLAN_CASES = [
        ((6, 2), (12, 11), 3, 1, 1, 1, ("shift", "lower", "stacked")),
        ((2, 6), (12, 11), 3, 1, 1, 1, ("lower", "shift", "lower")),
        ((3, 3), (12, 11), 3, 1, 1, 1, ("shift", "shift", "stacked")),
        ((3, 3), (12, 11), 3, 1, 3, 1, ("shift", "shift", "stacked")),
        ((3, 3), (12, 11), 3, 2, 1, 1, ("lower", "shift", "lower")),
        ((3, 3), (12, 11), 1, 1, 0, 1, ("lower", "lower", "lower")),
        # dilation 8 on a narrow map: 16 junk columns against 10 outputs
        ((3, 3), (9, 10), 3, 1, 8, 8, ("lower", "lower", "lower")),
        ((6, 2), (9, 10), 3, 1, 8, 8, ("lower", "lower", "lower")),
        ((2, 6), (9, 10), 3, 1, 8, 8, ("lower", "lower", "lower")),
        # the spread gradient of a stride-2 conv 6 -> 2 lowers (Cout > Cin
        # in its call)
        ((6, 2), (12, 11), 3, 2, 1, 1, ("lower", "lower", "lower")),
        # Cin = 2*Cout and a narrower Cin, dilated and padded past d*(k-1)
        ((4, 2), (12, 21), 3, 1, 2, 2, ("shift", "lower", "stacked")),
        ((5, 3), (12, 21), 3, 1, 2, 2, ("shift", "lower", "stacked")),
        ((4, 2), (12, 11), 3, 1, 3, 1, ("shift", "lower", "stacked")),
        ((5, 3), (12, 11), 3, 1, 3, 1, ("shift", "lower", "stacked")),
    ]

    @staticmethod
    def spy_stacked(monkeypatch):
        """The list that gets the input's shape per shifted weight gradient,
        each of which stacks its taps."""
        calls, stacked = [], engine._stacked_weight_grad

        def spy(*args):
            calls.append(args[0].shape)
            return stacked(*args)

        monkeypatch.setattr(engine, "_stacked_weight_grad", spy)
        return calls

    @pytest.mark.parametrize("case", PLAN_CASES)
    def test_plan_branches(self, monkeypatch, case):
        (cin, cout), (h, w), k, stride, padding, dilation, plan = case
        method = {True: "shift", False: "lower"}
        fwd = method[engine._shifts(cin, cout, k, k, stride, dilation,
                                    w + 2 * padding)]
        q = dilation * (k - 1) - padding
        ow = w + 2 * padding - dilation * (k - 1)
        # the input gradient's call: g (Cout channels, OW wide) padded by q,
        # or else spread over width W + 2p + d*(k-1), with the flipped
        # kernel, whose Cin/Cout axes are swapped
        wp = (ow + 2 * q if stride == 1 and q >= 0
              else w + 2 * padding + dilation * (k - 1))
        gx = method[engine._shifts(cout, cin, k, k, 1, dilation, wp)]
        stacked = self.spy_stacked(monkeypatch)
        for bias in (True, False):
            check_conv_gradients((cin, cout), k, stride, padding, dilation,
                                 bias, hw=(h, w))
        check_conv_tap_loop((h, w), (cin, cout), k, stride, padding, dilation)
        assert (fwd, gx, "stacked" if stacked else "lower") == plan

    # every geometry of test_gradients at Cin = Cout; 3 -> 3 takes shifted
    # windows forward, so stacks its weight gradient's taps, wherever the
    # junk rule allows
    @pytest.mark.parametrize("bias", [True, False])
    @conv_grid
    def test_stacked_weight_grad_gradients(self, monkeypatch, stride, padding,
                                           dilation, bias):
        calls = self.spy_stacked(monkeypatch)
        check_conv_gradients((3, 3), 3, stride, padding, dilation, bias)
        shifted = engine._shifts(3, 3, 3, 3, stride, dilation, 11 + 2 * padding)
        assert bool(calls) == shifted

    @conv_grid
    def test_stacked_weight_grad_matches_tap_loop_reference(
            self, monkeypatch, stride, padding, dilation):
        calls = self.spy_stacked(monkeypatch)
        check_conv_tap_loop((21, 19), (3, 3), 3, stride, padding, dilation,
                            n=3)
        shifted = engine._shifts(3, 3, 3, 3, stride, dilation, 19 + 2 * padding)
        assert len(calls) == shifted

    # (Cin, Cout), stride and the padded shapes `_lower` is handed: the
    # forward and the weight gradient lower each of 4 samples once, and the
    # input gradient takes shifted windows for 2 -> 6 and lowers the spread
    # gradient of the stride-2 6 -> 2 conv
    @pytest.mark.parametrize("channels,stride,lowered", [
        ((2, 6), 1, [(2, 14, 13)] * 8),
        ((6, 2), 2, [(6, 14, 13)] * 8 + [(2, 16, 15)] * 4)])
    def test_lowers_one_sample_at_a_time(self, monkeypatch, channels, stride,
                                         lowered):
        shapes = []
        lower = engine._lower

        def spy(xp, *args):
            shapes.append(xp.shape)
            return lower(xp, *args)

        monkeypatch.setattr(engine, "_lower", spy)
        check_conv_tap_loop((12, 11), channels, 3, stride, 1, 1, n=4)
        assert shapes == lowered

    def test_default_model_step_methods(self, monkeypatch):
        """The (forward, input gradient) methods `_shifts` picks for the 101
        conv calls of one batch-8 64x64 training step of the default model
        (109 convs, each CFM's three branch convs as one call), and the
        shifted weight gradients that stack their taps."""
        calls = []
        correlate = engine._correlate
        stacked = self.spy_stacked(monkeypatch)

        def spy(a, wt, ph, pw, stride, dilation):
            shifts = engine._shifts(a.shape[1], wt.shape[0], *wt.shape[2:],
                                    stride, dilation, a.shape[3] + 2 * pw)
            owner = wt if wt.base is None else wt.base  # the conv's weight
            calls.append((id(owner), "shift" if shifts else "lower"))
            return correlate(a, wt, ph, pw, stride, dilation)

        monkeypatch.setattr(engine, "_correlate", spy)
        cfg = ModelConfig()
        model = EFANet(cfg, seed=0, dtype=np.float32)
        rng = np.random.default_rng(0)
        out = model(Tensor(rng.normal(size=(8, 1, 64, 64)).astype(np.float32)))
        forward = list(calls)
        calls.clear()
        mask = (rng.random((8, 1, 64, 64)) < 0.3).astype(np.float32)
        total_loss(out, mask, mask, cfg).total.backward()
        # a weight used by several convs (edge_attn, 4 times) takes the same
        # shapes, so the same methods, each time
        grads = {}
        for key, method in calls:
            grads.setdefault(key, []).append(method)
        # the stem's input, the image, takes no gradient, so no call
        methods = Counter((method, grads[key].pop() if grads.get(key) else "none")
                          for key, method in forward)
        assert not any(grads.values())
        # a CFM's fused 64 -> 192 branch conv lowers forward, and its input
        # gradient, 192 -> 64, takes shifted windows as the three 64 -> 64
        # convs did, except on cfm4's 4x4 map, where both lower
        assert methods == {("lower", "lower"): 64, ("lower", "shift"): 6,
                           ("lower", "none"): 1, ("shift", "lower"): 8,
                           ("shift", "shift"): 22}
        # every conv whose forward took shifted windows stacks its weight
        # gradient's taps: 8 + 22 above
        assert len(stacked) == 30

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 3)])
    def test_input_without_gradient(self, monkeypatch, stride, padding):
        """An input that takes no gradient gets none: the weight and bias
        gradients stay bit-identical, and one `_correlate` call goes."""
        calls = []
        correlate = engine._correlate

        def spy(*args):
            calls.append(args)
            return correlate(*args)

        monkeypatch.setattr(engine, "_correlate", spy)
        grads = []
        for wants_gx in (True, False):
            x, w, b, r = conv_case((2, 12, 11), (3, 4), 3, stride, padding, 1,
                                   seed=9)
            x.requires_grad = wants_gx
            out = conv2d(x, w, b, stride=stride, padding=padding)
            calls.clear()
            backward((out * r).sum())
            grads.append((len(calls), x.grad, w.grad, b.grad))
        (n_with, gx, gw, gb), (n_without, none, gw0, gb0) = grads
        assert gx is not None and none is None
        assert n_without == n_with - 1
        np.testing.assert_array_equal(gw0, gw)
        np.testing.assert_array_equal(gb0, gb)

    # (H, W), k, padding, dilation, and the live kernel `_correlate` gets:
    # every tap but the centre, the middle row, two taps cut from each end
    # of a 5-tap axis, and a centre that still needs padding
    DEAD_TAP_CASES = [
        ((4, 4), 3, 4, 4, (1, 1)),
        ((4, 12), 3, 4, 4, (1, 3)),
        ((3, 3), 5, 4, 2, (3, 3)),
        ((4, 4), 3, 10, 8, (1, 1)),
    ]

    @pytest.mark.parametrize("case", DEAD_TAP_CASES)
    def test_dead_taps(self, monkeypatch, case):
        """A stride-1 conv runs on the taps that read more than padding: its
        float64 gradients pass the finite-difference check, its output and
        gradients match the full kernel's to 1e-12, and the dead taps'
        weight gradient is exactly zero."""
        (h, w), k, padding, dilation, live = case
        kernels = []
        correlate = engine._correlate

        def spy(a, wt, *args):
            kernels.append(wt.shape[2:])
            return correlate(a, wt, *args)

        monkeypatch.setattr(engine, "_correlate", spy)
        for bias in (True, False):
            check_conv_gradients((3, 2), k, 1, padding, dilation, bias,
                                 hw=(h, w))
        check_conv_tap_loop((h, w), (3, 2), k, 1, padding, dilation)
        assert set(kernels) == {live}
        x, wt, b, r = conv_case((2, h, w), (3, 2), k, 1, padding, dilation, 5)
        backward((conv2d(x, wt, b, padding=padding, dilation=dilation)
                  * r).sum())
        th, tw = (k - live[0]) // 2, (k - live[1]) // 2
        dead = np.ones((k, k), bool)
        dead[th:k - th, tw:k - tw] = False
        assert (wt.grad[:, :, dead] == 0).all()
        assert (wt.grad[:, :, ~dead] != 0).all()

    def test_dilated_gradients(self):
        x = rand((1, 2, 9, 9), seed=6, grad=True)
        w = rand((2, 2, 3, 3), seed=7, grad=True)

        def f(x, w):
            return (conv2d(x, w, dilation=2, padding=2) * conv2d(x, w, dilation=2, padding=2)).sum()

        check_gradients(f, [x, w])


# ------------------------------------------------------------ batch_norm


class TestBatchNorm:
    def _bn(self, x, gamma, beta, training=True):
        rm = np.zeros(x.shape[1])
        rv = np.ones(x.shape[1])
        return batch_norm(x, gamma, beta, rm, rv, training=training)

    def test_symmetric_pair(self):
        x = Tensor(np.array([-1.0, 1.0]).reshape(2, 1, 1, 1))
        out = self._bn(x, Tensor(np.ones(1)), Tensor(np.zeros(1)))
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-4)

    def test_constant_channel_is_zeroed(self):
        x = Tensor(np.full((2, 1, 3, 3), 7.0))
        out = self._bn(x, Tensor(np.ones(1)), Tensor(np.zeros(1)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 1, 3, 3)))

    def test_affine_moments(self):
        x = rand((2, 3, 4, 4), seed=8, scale=3.0)
        out = self._bn(x, Tensor(np.full(3, 2.0)), Tensor(np.full(3, 0.5)))
        mean = out.data.mean(axis=(0, 2, 3))
        std = out.data.std(axis=(0, 2, 3))
        np.testing.assert_allclose(mean, 0.5, atol=1e-4)
        np.testing.assert_allclose(std, 2.0, atol=1e-3)

    def test_normalized_moments_property(self):
        x = rand((4, 2, 5, 5), seed=9, scale=2.5)
        out = self._bn(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))
        mean = out.data.mean(axis=(0, 2, 3))
        var = out.data.var(axis=(0, 2, 3))
        assert np.all(np.abs(mean) < 1e-5)
        np.testing.assert_allclose(var, 1.0, atol=1e-4)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 3, 2, 2)))
        with pytest.raises(ValueError, match="gamma"):
            self._bn(x, Tensor(np.ones(2)), Tensor(np.zeros(2)))

    def test_large_mean_float32_matches_float64(self):
        # mean 1e4 and unit spread: a float32 mean and variance taken over
        # the raw values lose about three digits to cancellation
        rng = np.random.default_rng(11)
        x32 = (1e4 + rng.normal(size=(4, 3, 8, 8))).astype(np.float32)
        r = rng.normal(size=x32.shape)
        got = {}
        for dtype in (np.float32, np.float64):
            x = Tensor(x32.astype(dtype), requires_grad=True)
            gamma = Tensor(np.array([1.5, 0.5, 2.0], dtype), requires_grad=True)
            beta = Tensor(np.array([0.25, -1.0, 0.0], dtype), requires_grad=True)
            rm, rv = np.zeros(3), np.ones(3)
            out = batch_norm(x, gamma, beta, rm, rv, training=True)
            backward((out * Tensor(r.astype(dtype))).sum())
            evaluated = batch_norm(x, gamma, beta, rm, rv, training=False)
            got[dtype] = (out.data, x.grad, gamma.grad, beta.grad, rm, rv,
                          evaluated.data)
        for low, ref in zip(got[np.float32], got[np.float64]):
            assert np.max(np.abs(low - ref)) <= 1e-6 * np.max(np.abs(ref))

    def test_eval_uses_running_stats(self):
        x = rand((2, 1, 3, 3), seed=10)
        rm = np.array([1.0])
        rv = np.array([4.0])
        out = batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)),
                         rm, rv, training=False)
        np.testing.assert_allclose(out.data, (x.data - 1.0) / np.sqrt(4.0 + 1e-5))

    def test_running_stat_update(self):
        x = rand((4, 1, 4, 4), seed=11)
        rm = np.zeros(1)
        rv = np.ones(1)
        batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv,
                   training=True)
        np.testing.assert_allclose(rm, 0.1 * x.data.mean(), atol=1e-12)
        np.testing.assert_allclose(rv, 0.9 + 0.1 * x.data.var(), atol=1e-12)

    def test_gradients(self):
        x = rand((2, 2, 3, 3), seed=12, grad=True)
        gamma = Tensor(np.array([1.5, 0.5]), requires_grad=True)
        beta = Tensor(np.array([0.1, -0.2]), requires_grad=True)
        rm = np.zeros(2)
        rv = np.ones(2)

        def f(x, gamma, beta):
            out = batch_norm(x, gamma, beta, rm.copy(), rv.copy(), training=True)
            return (out * out).sum()

        check_gradients(f, [x, gamma, beta])

    @pytest.mark.parametrize("training", [True, False])
    def test_relu_gradients(self, training):
        x = rand((2, 2, 3, 3), seed=12, grad=True)
        gamma = Tensor(np.array([1.5, 0.5]), requires_grad=True)
        beta = Tensor(np.array([0.1, -0.2]), requires_grad=True)
        rm, rv = np.array([0.3, -0.2]), np.array([0.8, 1.5])
        r = rand(x.shape, seed=13).data

        def f(x, gamma, beta, relu=True):
            out = batch_norm(x, gamma, beta, rm.copy(), rv.copy(), training,
                             relu)
            return out * r if relu else out

        # both sides of the kink are taken, and no pre-ReLU value lies
        # within reach of the finite-difference step h = 1e-3
        z = f(x, gamma, beta, relu=False).data
        assert 0 < np.mean(z > 0) < 1 and np.min(np.abs(z)) > 0.02
        check_gradients(lambda *t: f(*t).sum(), [x, gamma, beta])

    @pytest.mark.parametrize("training", [True, False])
    def test_relu_matches_separate_relu_bitwise(self, training):
        rng = np.random.default_rng(16)
        x32 = (0.5 + rng.normal(size=(4, 3, 8, 8))).astype(np.float32)
        r = Tensor(rng.normal(size=x32.shape).astype(np.float32))
        got = []
        for fused in (False, True):
            x = Tensor(x32, requires_grad=True)
            gamma = Tensor(np.array([1.5, 0.5, 2.0], np.float32),
                           requires_grad=True)
            beta = Tensor(np.array([0.25, -1.0, 0.0], np.float32),
                          requires_grad=True)
            rm, rv = np.array([0.4, 0.6, 0.5]), np.array([0.9, 1.2, 1.1])
            if fused:
                out = batch_norm(x, gamma, beta, rm, rv, training, relu=True)
            else:
                out = relu(batch_norm(x, gamma, beta, rm, rv, training))
            backward((out * r).sum())
            got.append((out.data, rm, rv, x.grad, gamma.grad, beta.grad))
        assert 0 < np.mean(got[1][0] > 0) < 1
        for sep, fused in zip(*got):
            assert fused.dtype == sep.dtype
            assert fused.tobytes() == sep.tobytes()


# ----------------------------------------------------------- activations


def masked_sigmoid(d):
    """Reference sigmoid, split by sign through boolean masks."""
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ex = np.exp(d[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestActivations:
    def test_relu_values(self):
        out = relu(Tensor(np.array([-2.0, 0.0, 3.0])))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])

    def test_sigmoid_half(self):
        assert sigmoid(Tensor(np.array([0.0]))).data[0] == 0.5

    def test_sigmoid_closed_form(self):
        out = sigmoid(Tensor(np.array([np.log(3.0)])))
        np.testing.assert_allclose(out.data, [0.75], atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_ranges(self, values):
        x = Tensor(np.array(values))
        s = sigmoid(x).data
        # float64 rounds sigmoid(|x| > ~36) to exactly 0 or 1
        assert np.all((s >= 0) & (s <= 1))
        inner = np.abs(x.data) < 30
        assert np.all((s[inner] > 0) & (s[inner] < 1))
        assert np.all(relu(x).data >= 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_masked_reference(self, dtype):
        d = np.concatenate([
            [0.0, -0.0, 88, -88, 104, -104, 1e4, -1e4, np.inf, -np.inf, np.nan],
            np.linspace(-800, 800, 4001),
            np.random.default_rng(14).normal(scale=30, size=1000)]).astype(dtype)
        with np.errstate(over="raise", under="ignore"):
            got = engine._sigmoid(d)
        assert got.dtype == dtype
        assert got.tobytes() == masked_sigmoid(d).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_matches_where_formula_bitwise(self, dtype):
        """The sigmoid gives the bits of the formula it replaced, which
        picked 1/(1 + e) or e/(1 + e), e = exp(-|d|), by np.where."""
        info = np.finfo(dtype)
        edges = [0.0, np.inf, np.nan, info.max, info.tiny,
                 88.7, 103.9, 709.8, 745.2]
        d = np.array(edges + [-v for v in edges], dtype=dtype)
        assert np.signbit(d[len(edges) + 2])  # a NaN with its sign bit set
        e = np.exp(np.minimum(d, -d))
        want = np.where(d >= 0, 1 / (1 + e), e / (1 + e))
        with np.errstate(over="raise", under="ignore"):
            got = engine._sigmoid(d)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()

    def test_gradients(self):
        x = rand((2, 3), seed=13, grad=True)
        check_gradients(lambda x: (sigmoid(x) * sigmoid(x)).sum(), [x])
        # keep away from the relu kink, where finite differences are invalid
        x2 = Tensor(np.array([-1.5, -0.4, 0.3, 2.0]), requires_grad=True)
        check_gradients(lambda x: (relu(x) * x).sum(), [x2])


# -------------------------------------------------------------- resize


class TestBilinearResize:
    def test_identity(self):
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        out = bilinear_resize(x, 2, 2)
        np.testing.assert_array_equal(out.data, x.data)

    def test_identity_bit_stable(self):
        x = rand((1, 2, 8, 8), seed=14)
        out = bilinear_resize(x, 8, 8)
        assert np.max(np.abs(out.data - x.data)) < 1e-12

    @pytest.mark.parametrize("oh,ow", [(1, 1), (3, 5), (8, 8), (13, 2)])
    def test_constant_field(self, oh, ow):
        x = Tensor(np.full((1, 1, 4, 6), 2.5))
        out = bilinear_resize(x, oh, ow)
        np.testing.assert_allclose(out.data, 2.5, atol=1e-12)

    def test_linear_interpolation_values(self):
        x = Tensor(np.array([0.0, 2.0]).reshape(1, 1, 1, 2))
        out = bilinear_resize(x, 1, 4)
        np.testing.assert_allclose(out.data[0, 0, 0], [0, 2 / 3, 4 / 3, 2],
                                   atol=1e-12)

    def test_gradients(self):
        x = rand((1, 2, 3, 4), seed=15, grad=True)

        def f(x):
            out = bilinear_resize(x, 5, 7)
            return (out * out).sum()

        check_gradients(f, [x])

    def test_downscale_gradients(self):
        x = rand((1, 1, 6, 6), seed=16, grad=True)
        check_gradients(lambda x: (bilinear_resize(x, 3, 3) * 2.0).sum(), [x])

    def test_one_entry_axis_is_a_column_of_ones(self):
        for align_corners in (True, False):
            np.testing.assert_array_equal(
                engine._resize_matrix(1, 3, align_corners, np.float64),
                np.ones((3, 1)))


# -------------------------------------------------------------- concat


class TestConcat:
    def test_channel_blocks(self):
        a = rand((1, 2, 4, 4), seed=17)
        b = rand((1, 3, 4, 4), seed=18)
        out = concat_channels([a, b])
        assert out.shape == (1, 5, 4, 4)
        np.testing.assert_array_equal(out.data[:, :2], a.data)
        np.testing.assert_array_equal(out.data[:, 2:], b.data)

    def test_single_tensor(self):
        a = rand((2, 3, 2, 2), seed=19)
        np.testing.assert_array_equal(concat_channels([a]).data, a.data)

    def test_spatial_mismatch_rejected(self):
        a = Tensor(np.zeros((1, 1, 4, 4)))
        b = Tensor(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ValueError, match="spatial"):
            concat_channels([a, b])

    def test_backward_of_sum(self):
        a = rand((1, 2, 3, 3), seed=20, grad=True)
        b = rand((1, 1, 3, 3), seed=21, grad=True)
        backward(concat_channels([a, b]).sum())
        np.testing.assert_array_equal(a.grad, np.ones(a.shape))
        np.testing.assert_array_equal(b.grad, np.ones(b.shape))


# ----------------------------------------------------------- elementwise


class TestElementwise:
    def test_add(self):
        out = Tensor(np.array([1.0, 2.0])) + Tensor(np.array([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_mul_identity(self):
        x = rand((1, 2, 3, 3), seed=22)
        out = x * Tensor(np.ones(x.shape))
        np.testing.assert_array_equal(out.data, x.data)

    def test_broadcast_mask_grad(self):
        x = rand((1, 4, 2, 2), seed=23, grad=True)
        mask = rand((1, 1, 2, 2), seed=24, grad=True)
        backward((x * mask).sum())
        np.testing.assert_allclose(mask.grad, x.data.sum(axis=1, keepdims=True))
        np.testing.assert_allclose(x.grad, np.broadcast_to(mask.data, x.shape))

    def test_non_broadcastable_rejected(self):
        with pytest.raises(ValueError, match="broadcast"):
            Tensor(np.zeros((1, 2, 3, 3))) + Tensor(np.zeros((1, 2, 4, 4)))

    def test_div_gradients(self):
        x = rand((3,), seed=25, grad=True)
        y = Tensor(np.array([1.5, -2.0, 0.7]), requires_grad=True)
        check_gradients(lambda x, y: (x / y).sum(), [x, y])

    @pytest.mark.parametrize("op,kept", [(operator.mul, False),
                                         (operator.truediv, False),
                                         (lambda p, c: c / p, True)])
    def test_keeps_only_what_a_taken_gradient_reads(self, op, kept):
        """With a constant c, which takes no gradient, x * c and x / c keep
        c alone, the one array x's gradient reads; c / x keeps x, which its
        own gradient reads."""
        x = rand((1, 2, 4, 4), seed=26, grad=True)
        p = conv2d(x, rand((3, 2, 1, 1), seed=27, grad=True))
        ref = weakref.ref(p.data)
        c = Tensor(np.linspace(1.0, 2.0, 16).reshape(1, 1, 4, 4))
        loss = op(p, c).sum()
        del p
        assert (ref() is not None) == kept
        backward(loss)
        assert ref() is None


# ------------------------------------------------------------------ gap


class TestGlobalAvgPool:
    def test_constant(self):
        out = global_avg_pool(Tensor(np.full((1, 2, 3, 3), 4.0)))
        np.testing.assert_allclose(out.data, 4.0)
        assert out.shape == (1, 2, 1, 1)

    def test_mean_value(self):
        x = Tensor(np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2))
        assert global_avg_pool(x).data[0, 0, 0, 0] == 1.5

    def test_backward_spread(self):
        x = rand((1, 1, 4, 4), seed=26, grad=True)
        backward(global_avg_pool(x).sum())
        np.testing.assert_allclose(x.grad, np.full(x.shape, 1 / 16))


# ------------------------------------------------------- structure loss


def composed_structure_loss(s, g, w=None):
    """The loss op by op, as the model built it before ``structure_loss``:
    kept as that op's float64 oracle.  27 graph nodes with w, 13 without."""
    g = Tensor(g)
    abs_s = relu(s) + relu(-s)
    bce = relu(s) - s * g + engine.log(exp(-abs_s) + 1.0)
    if w is None:
        return mean_all(bce)
    w, p = Tensor(w), sigmoid(s)
    inter, union = (w * p * g).sum(), (w * (p + g - p * g)).sum()
    return (w * bce).sum() / w.sum() + (1.0 - inter / union)


LOSS_MASKS = ["random", "zeros", "ones", "one_pixel"]


def loss_mask(kind, shape=(2, 1, 8, 8)):
    if kind == "random":
        return (np.random.default_rng(61).random(shape) < 0.3).astype(np.float64)
    g = np.full(shape, 1.0 if kind == "ones" else 0.0)
    if kind == "one_pixel":
        g[0, 0, 2, 3] = 1.0
    return g


def loss_logits(kind, shape, seed=62):
    """Normal logits, or saturated ones of random sign with |s| in [30, 40]."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        return rng.normal(scale=3.0, size=shape)
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(30, 40, size=shape)


class TestStructureLoss:
    @pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "plain"])
    @pytest.mark.parametrize("logits", ["random", "saturated"])
    @pytest.mark.parametrize("mask", LOSS_MASKS)
    def test_matches_composition(self, mask, logits, weighted):
        g = loss_mask(mask)
        w = boundary_weights(g) if weighted else None
        s = loss_logits(logits, g.shape)
        fused = Tensor(s.copy(), requires_grad=True)
        composed = Tensor(s.copy(), requires_grad=True)
        a = engine.structure_loss(fused, g, w)
        b = composed_structure_loss(composed, g, w)
        backward(a)
        backward(b)
        np.testing.assert_allclose(float(a.data), float(b.data), rtol=1e-13)
        np.testing.assert_allclose(fused.grad, composed.grad, rtol=1e-10,
                                   atol=1e-13 * np.abs(composed.grad).max())

    @pytest.mark.parametrize("logits", ["random", "saturated"])
    @pytest.mark.parametrize("mask", LOSS_MASKS)
    def test_gradient_matches_finite_differences(self, mask, logits):
        g = loss_mask(mask, (1, 1, 6, 6))
        w = boundary_weights(g)
        s = Tensor(loss_logits(logits, g.shape, seed=63), requires_grad=True)
        check_gradients(lambda s: engine.structure_loss(s, g, w), [s])
        check_gradients(lambda s: engine.structure_loss(s, g), [s])

    def test_one_node_per_loss(self):
        g = loss_mask("random")
        s = rand(g.shape, seed=64, grad=True)
        for w, composed_nodes in ((boundary_weights(g), 27), (None, 13)):
            loss = engine.structure_loss(s, g, w)
            assert graph_nodes(loss) == 1 and loss._node.parents == (s,)
            assert graph_nodes(composed_structure_loss(s, g, w)) == composed_nodes

    def test_float32_gradient_stays_float32(self):
        # a float64 numpy scalar times a float32 map would give float64
        g = loss_mask("random")
        s = Tensor(loss_logits("random", g.shape).astype(np.float32),
                   requires_grad=True)
        for w in (boundary_weights(g), None):
            loss = engine.structure_loss(s, g, w)
            assert loss.dtype == np.float32
            for up in (np.ones((), np.float32), np.ones(())):
                (ds,) = loss._backward_fn(up)
                assert ds.dtype == np.float32

    @pytest.mark.parametrize("dtype,logit", [(np.float32, -120.0),
                                             (np.float64, -800.0)])
    def test_empty_union_iou_term_is_one(self, dtype, logit):
        # an all-0 target where every p underflows to 0: U = 0 and I = 0, so
        # the IoU term is 1, as 1 - I/U is for every U > 0, with no gradient;
        # the all-0 target's weights are all 1, so the weighted BCE half is
        # the plain mean BCE
        g = np.zeros((2, 1, 4, 4))
        w = boundary_weights(g)
        assert np.array_equal(w, np.ones(g.shape))
        s = Tensor(np.full(g.shape, logit, dtype), requires_grad=True)
        bce_s = Tensor(s.data.copy(), requires_grad=True)
        with np.errstate(divide="raise", invalid="raise"):
            loss = engine.structure_loss(s, g, w)
            bce = engine.structure_loss(bce_s, g)
            backward(loss)
            backward(bce)
        assert loss.dtype == dtype and np.isfinite(loss.data)
        assert float(loss.data) == float(bce.data) + 1.0
        assert s.grad.dtype == dtype
        np.testing.assert_array_equal(s.grad, bce_s.grad)

    def test_shape_mismatch_rejected(self):
        s = rand((1, 1, 4, 4), seed=65, grad=True)
        with pytest.raises(ValueError, match="structure_loss: target"):
            engine.structure_loss(s, np.zeros((1, 1, 4, 5)))
        with pytest.raises(ValueError, match="structure_loss: weight"):
            engine.structure_loss(s, np.zeros((1, 1, 4, 4)), np.ones((4, 4)))


# ------------------------------------------------------------- backward


class TestBackward:
    def test_sum_gives_ones(self):
        x = rand((2, 3), seed=27, grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones(x.shape))

    def test_quadratic(self):
        x = rand((4,), seed=28, grad=True)
        backward((x * x).sum())
        np.testing.assert_allclose(x.grad, 2 * x.data)

    def test_non_scalar_rejected(self):
        x = rand((2, 2), seed=29, grad=True)
        with pytest.raises(ValueError, match="scalar"):
            backward(x + x)

    def test_grad_accumulates_across_calls(self):
        x = rand((3,), seed=30, grad=True)
        backward(x.sum())
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, 2 * np.ones(3))

    def test_graph_backpropagated_once(self):
        x = rand((3,), seed=37, grad=True)
        h = x * x
        loss = h.sum()
        backward(loss)
        assert loss._node.parents == () and h._node.parents == ()
        with pytest.raises(ValueError, match="graph already consumed"):
            backward(loss)
        with pytest.raises(ValueError, match="graph already consumed"):
            backward((h * x).sum())
        np.testing.assert_allclose(x.grad, 2 * x.data)
        backward((x * x).sum())
        np.testing.assert_allclose(x.grad, 4 * x.data)

    def test_multiple_uses_accumulate(self):
        x = rand((3,), seed=31, grad=True)
        backward((x * x + x * x).sum())
        np.testing.assert_allclose(x.grad, 4 * x.data)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))),
                             ids=lambda order: "".join(map(str, order)))
    def test_shared_gradient_fans_in(self, order):
        # add hands one gradient array to both a and b; whichever order the
        # terms reach them in, neither sum may write into the other's
        a = rand((4,), seed=38, grad=True)
        b = rand((4,), seed=39, grad=True)
        s = a + b
        terms = [(s * s).sum(), (a * 3.0).sum(), (b * 5.0).sum()]
        loss = terms[order[0]] + terms[order[1]] + terms[order[2]]
        backward(loss)
        np.testing.assert_array_equal(a.grad, 2 * s.data + 3)
        np.testing.assert_array_equal(b.grad, 2 * s.data + 5)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))),
                             ids=lambda order: "".join(map(str, order)))
    def test_slice_gradients_go_into_one_buffer(self, order):
        # p gets the gradient add shares with q by reference, and the
        # gradients of two overlapping channel slices; in whatever order
        # they reach it, the slices' gradients are added into a buffer of
        # backward's own, never into the shared array
        x = rand((2, 4, 3, 3), seed=45, grad=True)
        w = rand((2, 4, 3, 3), seed=46, grad=True)
        r = rand((2, 4, 3, 3), seed=47).data
        p, q = x * 2.0, w * 3.0
        terms = [((p + q) * r).sum(),
                 (channel_slice(p, 0, 3) * r[:, :3]).sum(),
                 (channel_slice(p, 1, 4) * 5.0).sum()]
        backward(terms[order[0]] + terms[order[1]] + terms[order[2]])
        gp = r.copy()
        gp[:, :3] += r[:, :3]
        gp[:, 1:] += 5.0
        np.testing.assert_allclose(x.grad, 2.0 * gp, rtol=1e-15)
        np.testing.assert_array_equal(w.grad, 3.0 * r)

    def test_channel_slice_is_a_view(self):
        x = rand((2, 5, 3, 3), seed=48, grad=True)
        part = channel_slice(x, 1, 4)
        assert part.data.base is x.data
        np.testing.assert_array_equal(part.data, x.data[:, 1:4])
        backward(part.sum())
        want = np.zeros(x.shape)
        want[:, 1:4] = 1.0
        np.testing.assert_array_equal(x.grad, want)

    def test_leaf_grad_is_its_own_array(self):
        # x.sum() passes x a read-only broadcast view of the loss gradient
        x = rand((2, 3), seed=40, grad=True)
        backward(x.sum())
        grad = x.grad
        assert grad.flags.writeable and grad.flags.owndata
        backward(x.sum())
        assert x.grad is grad
        np.testing.assert_array_equal(grad, 2 * np.ones(x.shape))

    def test_composite_graph_gradcheck(self):
        x = rand((1, 2, 8, 8), seed=32, scale=0.5, grad=True)
        w1 = rand((3, 2, 3, 3), seed=33, scale=0.5, grad=True)
        w2 = rand((2, 3, 1, 1), seed=34, scale=0.5, grad=True)

        def f(x, w1, w2):
            h = sigmoid(conv2d(x, w1, padding=1))
            h = conv2d(h, w2)
            h = bilinear_resize(h, 4, 4)
            return (h * h).sum()

        check_gradients(f, [x, w1, w2])

    @staticmethod
    def _watched_graph(x, y, w, gamma, beta, refs):
        """A loss whose intermediates are dropped on return; `refs` gets a
        weakref to the array that owns each watched output's data."""
        def watch(name, t):
            a = t.data
            while a.base is not None:
                a = a.base
            refs[name] = weakref.ref(a)
            return t

        s = watch("sub", watch("add", x + y) - y)
        r = watch("relu", relu(watch("concat", concat_channels([s, y]))))
        h = conv2d(r, w, padding=1)
        b = batch_norm(h, gamma, beta, np.zeros(4), np.ones(4), training=True)
        v = batch_norm(h, gamma, beta, np.zeros(4), np.ones(4), True, relu=True)
        u = watch("resize_same", bilinear_resize(
            watch("batch_norm", b) + watch("batch_norm_relu", v), 6, 6))
        d = watch("resize", bilinear_resize(u, 9, 9))
        p = watch("global_avg_pool", global_avg_pool(d))
        return mean_all(exp(d)) + sigmoid(p).sum()

    def test_closures_keep_only_what_backward_reads(self):
        # add, sub, concat, resize and pooling keep shapes only, batch norm,
        # with or without its ReLU, keeps its input, not its output; relu
        # keeps its output, which the conv after it keeps as its input,
        # until backward frees both
        tensors = [rand((2, 3, 6, 6), seed=41, grad=True),
                   rand((2, 3, 6, 6), seed=42, grad=True),
                   rand((4, 6, 3, 3), seed=43, scale=0.3, grad=True),
                   Tensor(np.linspace(0.5, 1.5, 4), requires_grad=True),
                   rand((4,), seed=44, scale=0.1, grad=True)]
        refs = {}
        loss = self._watched_graph(*tensors, refs)
        kept = refs.pop("relu")
        assert sorted(refs) == ["add", "batch_norm", "batch_norm_relu",
                                "concat", "global_avg_pool", "resize",
                                "resize_same", "sub"]
        assert {name: ref() is None for name, ref in refs.items()} == \
            dict.fromkeys(refs, True)
        assert kept() is not None
        backward(loss)
        assert kept() is None

        def f(*args):
            return self._watched_graph(*args, {})

        for t in tensors:
            assert max_rel_error(t.grad, numerical_gradient(f, tensors, t)) < 1e-4


# ------------------------------------------------------------ step memory


def graph_nodes(loss):
    """The graph nodes a loss reaches (leaves are not nodes)."""
    seen, stack = set(), [loss._node]
    while stack:
        node = stack.pop()
        if isinstance(node, engine._Node) and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.parents)
    return len(seen)


def test_default_model_step_memory():
    """The bytes a float32 default-model step (batch 8, 64x64) keeps alive
    for ``backward()``, the peak through ``backward()``, and its graph's
    node count.

    tracemalloc counts every numpy buffer allocated from the start of the
    forward.  Kept when the loss is returned: 83.6 MiB with a separate ReLU
    node after each of the 67 ConvBNReLU blocks' batch norm (467 nodes),
    72.0 MiB with the ReLU inside the norm's node (400 nodes), 73.7 MiB
    with each CFM's three branch convs as one conv: its stacked weights
    (1.7 MiB over the four CFMs) are kept for the input gradient (412
    nodes), 67.9 MiB with each side output's structure loss and the
    edge loss as one node that keeps only its sigmoid map, and 36.8 MiB
    with the outputs of batch norm, concatenation, the elementwise ops and
    resizing rebuilt in backward from what the graph keeps anyway, and
    ``mul``/``div`` keeping only what a taken gradient reads (46.6 MiB if
    only batch norm and concatenation outputs are rebuilt).  The 296 nodes
    are 400, less 2 conv nodes per CFM, plus per CFM the weight and bias
    concatenations and three channel slices (412), less the 121 nodes that
    built the loss op by op (27 per structure loss, 13 for the edge loss),
    plus the 5 ``structure_loss`` nodes that stand for them now; rebuilds
    add none.  The peak from the forward's start to the end of
    ``backward()`` is 51.0 MiB, set in the forward by ``cfms.cfm1.out``'s
    conv, which holds its concatenated 192-channel input (6.0 MiB) and that
    input's padded copy.  It was 63.0 MiB at the same site while the CFM's
    own variables still held its branch outputs through that conv (66.5
    with only batch norm and concatenation rebuilt; 75.7 before rebuilds).
    ``backward()`` itself peaks at 49.0 MiB (53.9 with only batch norm and
    concatenation rebuilt, 71.5 before rebuilds); a mutated ``backward``
    that gave each slice's gradient its own zero-padded full-size array and
    summed them peaked at 59.0.  These figures depend only on shapes and
    dtypes, not on timing.  The bounds lie about halfway: 42 MiB kept fails
    if only batch norm and concatenation outputs are rebuilt, a 57 MiB
    peak fails if the CFM holds its branch outputs through ``self.out``,
    and a 51.5 MiB peak of ``backward()`` fails if only batch norm and
    concatenation are rebuilt, and if the slices' gradients stop going
    into one buffer."""
    cfg = ModelConfig()
    model = EFANet(cfg, seed=0, dtype=np.float32)
    rng = np.random.default_rng(0)
    image = Tensor(rng.normal(size=(8, 1, 64, 64)).astype(np.float32))
    mask = (rng.random((8, 1, 64, 64)) < 0.3).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = total_loss(model(image), mask, mask, cfg).total
        kept, forward_peak = (m - base for m in tracemalloc.get_traced_memory())
        nodes = graph_nodes(loss)
        tracemalloc.reset_peak()
        backward(loss)
        backward_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    peak = max(forward_peak, backward_peak)
    assert nodes == 296
    assert kept < 42 * 2 ** 20, f"{kept / 2 ** 20:.1f} MiB kept for backward"
    assert peak < 57 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB peak through backward"
    assert backward_peak < 51.5 * 2 ** 20, \
        f"{backward_peak / 2 ** 20:.1f} MiB peak in backward"


# -------------------------------------------------------------- rebuilds


def default_model_outputs(monkeypatch, training=True, grad=True):
    """Every tensor an op returns in one forward of the default float32
    model (batch 8, 64x64), in train or eval mode, with or without graph."""
    outs, make = [], engine._make_node

    def spy(*args):
        out = make(*args)
        outs.append(out)
        return out

    monkeypatch.setattr(engine, "_make_node", spy)
    model = EFANet(ModelConfig(), seed=0, dtype=np.float32)
    model.set_training(training)
    image = np.random.default_rng(0).normal(size=(8, 1, 64, 64))
    with contextlib.nullcontext() if grad else engine.no_grad():
        model(Tensor(image.astype(np.float32)))
    return outs


def test_default_model_rebuilds_bit_for_bit(monkeypatch):
    """In a train-mode forward, each output that has a rebuild gets its
    array back from it: equal bits, dtype and shape.  Every batch norm
    output has one, and no conv output, which batch norm keeps anyway."""
    outs = default_model_outputs(monkeypatch)
    rebuilt = Counter()
    for t in outs:
        op = t._node.fn.__qualname__.split(".")[0]
        if t._rebuild is None:
            assert op != "batch_norm"
            continue
        assert op != "conv2d"
        rebuilt[op] += 1
        a = t._rebuild()
        assert a.dtype == t.dtype and a.shape == t.shape
        assert np.array_equal(a, t.data)
    assert set(rebuilt) == {"batch_norm", "concat", "_binary", "_unary",
                            "bilinear_resize"}


@pytest.mark.parametrize("training", [True, False])
def test_no_rebuild_under_no_grad(monkeypatch, training):
    outs = default_model_outputs(monkeypatch, training, grad=False)
    assert outs
    assert all(t._rebuild is None and t._node is None for t in outs)


# ----------------------------------------------------------------- adam


class TestAdam:
    def test_zero_grad_no_move(self):
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        opt = Adam([p], lr=0.1)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_direction(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        Adam([p], lr=0.1).step()
        assert p.data[0] < 1.0

    def test_converges_on_quadratic(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], lr=0.1)
        for _ in range(100):
            loss = ((p - 3.0) * (p - 3.0)).sum()
            backward(loss)
            opt.step()
        assert abs(p.data[0] - 3.0) < 0.5

    def test_missing_grad_rejected(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p])
        with pytest.raises(ValueError, match="no gradient"):
            opt.step()

    def test_grads_cleared_after_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([1.0])
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.grad is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_moments_update_in_place_as_the_out_of_place_formula(self, dtype):
        """The moment arrays keep their identity across steps, and moments
        and parameters equal, bit for bit, the out-of-place update."""
        rng = np.random.default_rng(41)
        shapes = [(3, 2, 3, 3), (3,), (1,)]
        params = [Tensor(rng.normal(size=s).astype(dtype), requires_grad=True)
                  for s in shapes]
        opt = Adam(params, lr=1e-2)
        ms, vs = list(opt.m), list(opt.v)
        ref_p = [p.data.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in ref_p]
        ref_v = [np.zeros_like(p) for p in ref_p]
        b1, b2 = opt.beta1, opt.beta2
        for t in range(1, 6):
            grads = [(rng.normal(size=s) * 10.0 ** -t).astype(dtype)
                     for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for i, g in enumerate(grads):
                ref_m[i] = b1 * ref_m[i] + (1.0 - b1) * g
                ref_v[i] = b2 * ref_v[i] + (1.0 - b2) * (g * g)
                step = (opt.lr * (ref_m[i] / bc1)
                        / (np.sqrt(ref_v[i] / bc2) + opt.eps))
                ref_p[i] -= step.astype(dtype, copy=False)
            for i, p in enumerate(params):
                assert opt.m[i] is ms[i] and opt.v[i] is vs[i]
                assert opt.m[i].dtype == opt.v[i].dtype == p.dtype == dtype
                assert np.array_equal(opt.m[i], ref_m[i])
                assert np.array_equal(opt.v[i], ref_v[i])
                assert np.array_equal(p.data, ref_p[i])


# ------------------------------------------------------------ finiteness


class TestFiniteness:
    def test_ops_preserve_finiteness(self):
        x = rand((2, 3, 8, 8), seed=35, scale=10.0, grad=True)
        w = rand((4, 3, 3, 3), seed=36, grad=True)
        out = sigmoid(conv2d(x, w, padding=1))
        out = bilinear_resize(out, 16, 16)
        loss = (out * out).sum()
        backward(loss)
        assert np.isfinite(out.data).all()
        assert np.isfinite(x.grad).all()
        assert np.isfinite(w.grad).all()
