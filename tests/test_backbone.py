import numpy as np
import pytest

from efanet.backbone import Backbone, BackboneConfig
from efanet.layers import Conv2d


def small_config():
    return BackboneConfig(input_channels=1, stem_channels=4,
                          channels_per_level=(4, 6, 8, 10, 12))


def make(config=None, seed=0):
    return Backbone(config or small_config(), np.random.default_rng(seed))


class TestConfig:
    def test_wrong_level_count_rejected(self):
        with pytest.raises(ValueError, match="5 levels"):
            BackboneConfig(channels_per_level=(8, 8, 8))

    def test_nonpositive_channels_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            BackboneConfig(channels_per_level=(8, 8, 0, 8, 8))
        for kw in (dict(input_channels=0), dict(stem_channels=0)):
            with pytest.raises(ValueError, match="positive"):
                BackboneConfig(**kw)


class TestStrideContract:
    @pytest.mark.parametrize("size", [32, 64, 96])
    def test_resolutions_and_channels(self, size):
        net = make()
        net.eval()
        feats = net(_image(size))
        assert len(feats) == 5
        for i, feat in enumerate(feats):
            stride = 2 ** (i + 1)
            assert feat.shape == (1, small_config().channels_per_level[i],
                                  size // stride, size // stride), f"level {i + 1}"

    def test_rectangular_input(self):
        net = make()
        net.eval()
        rng = np.random.default_rng(1)
        feats = net(_tensor(rng.random((1, 1, 64, 96))))
        assert feats[2].shape[2:] == (8, 12)

    @pytest.mark.parametrize("size", [16, 48, 33])
    def test_bad_sizes_rejected(self, size):
        with pytest.raises(ValueError, match="multiple of 32"):
            make()(_image(size))

    def test_wrong_channels_rejected(self):
        net = make()
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="channels"):
            net(_tensor(rng.random((1, 3, 32, 32))))


class TestDeterminism:
    def test_same_seed_identical(self):
        a, b = make(seed=11), make(seed=11)
        for (na, pa), (nb, pb) in zip(a.named_parameters(),
                                      b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a, b = make(seed=11), make(seed=12)
        diffs = [not np.array_equal(pa.data, pb.data)
                 for (_, pa), (_, pb) in zip(a.named_parameters(),
                                             b.named_parameters())]
        assert any(diffs)

    def test_forward_deterministic(self):
        net = make(seed=3)
        net.eval()
        x = _image(32)
        np.testing.assert_array_equal(net(x)[4].data, net(x)[4].data)


class TestInit:
    def test_fan_in_bound(self):
        conv = Conv2d(8, 4, 3, np.random.default_rng(0))
        bound = np.sqrt(1.0 / (8 * 9))
        assert np.all(np.abs(conv.weight.data) <= bound)
        np.testing.assert_array_equal(conv.bias.data, np.zeros(4))

    def test_batch_independence_in_eval(self):
        net = make(seed=4)
        net.eval()
        rng = np.random.default_rng(5)
        x = rng.random((2, 1, 32, 32))
        joint = net(_tensor(x))[4].data
        solo0 = net(_tensor(x[:1]))[4].data
        solo1 = net(_tensor(x[1:]))[4].data
        np.testing.assert_allclose(joint[0], solo0[0], atol=1e-10)
        np.testing.assert_allclose(joint[1], solo1[0], atol=1e-10)


def _tensor(arr):
    from efanet.engine import Tensor
    return Tensor(np.asarray(arr, dtype=np.float64))


def _image(size, seed=0):
    rng = np.random.default_rng(seed)
    return _tensor(rng.random((1, 1, size, size)))
