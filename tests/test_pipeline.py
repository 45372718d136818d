import hashlib

import numpy as np
import pytest

from efanet import dataio, pipeline
from efanet.pipeline import (AugConfig, SegSample, augment, polyp_scale_ratio,
                             rescale, sobel_edge_gt, synth_blob_dataset,
                             synth_sample)


# SHA-256 of augment()'s image, mask and edge bytes over seeds 0-19 on 32x32
# synthetic blobs, for the default and the free-angle config.  It pins the
# order of the random draws and the result of each transform.
AUGMENT_SHA256 = {
    False: "e584ecc94c22a48a338bdde02c4058fa9ee97b090c8fc35867fee0206b864fe7",
    True: "3231931bf122d3a336fe25ffd27427a9de77432c5c7f5b1c6aa19f8afc404ed1",
}


def square_sample(size=16, lo=4, hi=12, radius=1, seed=0):
    rng = np.random.default_rng(seed)
    mask = np.zeros((1, size, size))
    mask[0, lo:hi, lo:hi] = 1.0
    image = np.clip(rng.random((1, size, size)), 0.0, 1.0)
    return SegSample(image=image, mask=mask,
                     edge=sobel_edge_gt(mask, radius), id="sq")


class TestSobelEdge:
    def test_square_boundary_ring(self):
        mask = np.zeros((8, 8))
        mask[2:6, 2:6] = 1.0
        edge = sobel_edge_gt(mask, dilation_radius=0)
        ring = mask.copy()
        ring[3:5, 3:5] = 0.0
        np.testing.assert_array_equal(edge, ring)

    def test_dilation_grows_ring(self):
        mask = np.zeros((12, 12))
        mask[3:9, 3:9] = 1.0
        thin = sobel_edge_gt(mask, dilation_radius=0)
        thick = sobel_edge_gt(mask, dilation_radius=1)
        assert thick.sum() > thin.sum()
        assert np.all(thick[thin == 1] == 1)  # dilation is a superset

    def test_full_frame_mask_has_no_edge(self):
        edge = sobel_edge_gt(np.ones((10, 10)), dilation_radius=1)
        np.testing.assert_array_equal(edge, np.zeros((10, 10)))

    def test_empty_mask_has_no_edge(self):
        edge = sobel_edge_gt(np.zeros((10, 10)), dilation_radius=1)
        np.testing.assert_array_equal(edge, np.zeros((10, 10)))

    def test_channel_axis_preserved(self):
        mask = np.zeros((1, 8, 8))
        mask[0, 2:6, 2:6] = 1.0
        assert sobel_edge_gt(mask).shape == (1, 8, 8)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="binary"):
            sobel_edge_gt(np.full((4, 4), 0.5))


class TestScaleBuckets:
    def _mask_with(self, n_fg, size=80):
        mask = np.zeros(size * size)
        mask[:n_fg] = 1.0
        return mask.reshape(size, size)

    def test_boundaries_are_medium(self):
        # size 80 -> 6400 px; 0.025 * 6400 = 160, 0.2 * 6400 = 1280
        assert polyp_scale_ratio(self._mask_with(160))[1] == "medium"
        assert polyp_scale_ratio(self._mask_with(1280))[1] == "medium"

    def test_small_and_large(self):
        assert polyp_scale_ratio(self._mask_with(159))[1] == "small"
        assert polyp_scale_ratio(self._mask_with(1281))[1] == "large"

    def test_ratio_value(self):
        r, _ = polyp_scale_ratio(self._mask_with(640))
        np.testing.assert_allclose(r, 0.1)


def forced(**kw):
    """An AugConfig that does only what `kw` turns on: no flips, no rotation
    and no crop unless asked for."""
    base = dict(flip_prob=0.0, rotation_degrees=(0,), crop_fraction_min=1.0,
                crop_fraction_max=1.0)
    return AugConfig(**{**base, **kw})


def augmented(sample, config, seed=0):
    """augment() with the invariants every output keeps: shapes, a binary
    mask, an image in [0,1] and the edge map of the transformed mask."""
    a = SegSample(*augment(sample.image, sample.mask,
                           np.random.default_rng(seed), config), id=sample.id)
    assert a.image.shape == sample.image.shape
    assert a.mask.shape == sample.mask.shape
    assert set(np.unique(a.mask)) <= {0.0, 1.0}
    assert a.image.min() >= 0.0 and a.image.max() <= 1.0
    np.testing.assert_array_equal(a.edge, sobel_edge_gt(a.mask, 1))
    return a


def assert_same_sample(a, b):
    np.testing.assert_array_equal(a.image, b.image)
    np.testing.assert_array_equal(a.mask, b.mask)
    np.testing.assert_array_equal(a.edge, b.edge)


class TestGeometry:
    def test_crop_full_fraction_is_identity(self):
        s = square_sample(lo=2, hi=9)
        assert_same_sample(augmented(s, forced()), s)

    def test_flip_is_involution(self):
        s = square_sample(lo=2, hi=9)
        flip = forced(flip_prob=1.0)
        assert_same_sample(augmented(augmented(s, flip), flip), s)

    def test_flip_edge_tracks_mask(self):
        s = square_sample(lo=1, hi=6)
        f = augmented(s, forced(flip_prob=1.0))
        np.testing.assert_array_equal(f.edge, sobel_edge_gt(f.mask, 1))
        # flipping both axes is a half turn
        np.testing.assert_array_equal(f.mask[0], np.rot90(s.mask[0], 2))
        assert_same_sample(f, augmented(s, forced(rotation_degrees=(180,))))

    def test_rot90_moves_centroid(self):
        size = 16
        mask = np.zeros((1, size, size))
        mask[0, 2:5, 10:14] = 1.0
        s = SegSample(image=mask.copy(), mask=mask,
                      edge=sobel_edge_gt(mask, 1), id="r")
        r = augmented(s, forced(rotation_degrees=(90,)))
        # numpy rot90 is counterclockwise: (y, x) -> (H-1-x, y)
        np.testing.assert_array_equal(r.mask[0], np.rot90(mask[0]))
        np.testing.assert_array_equal(r.image[0], np.rot90(mask[0]))

    def test_rot90_four_times_identity(self):
        s = square_sample(lo=3, hi=10)
        r = s
        for _ in range(4):
            r = augmented(r, forced(rotation_degrees=(90,)))
        assert_same_sample(r, s)

    def test_free_angle_rotation_stays_valid(self):
        s = square_sample(size=32, lo=10, hi=22)
        r = augmented(s, forced(free_angle_rotation=True))
        assert not np.array_equal(r.mask, s.mask)

    def test_crop_zooms_foreground(self):
        s = square_sample(size=32, lo=8, hi=24)
        half = forced(crop_fraction_min=0.5, crop_fraction_max=0.5)
        # nearest-neighbour zoom of a 16x16 window repeats each pixel 2x2
        windows = [np.kron(s.mask[0, t:t + 16, u:u + 16], np.ones((2, 2)))
                   for t in range(17) for u in range(17)]
        for seed in range(5):
            c = augmented(s, half, seed)
            assert any(np.array_equal(c.mask[0], w) for w in windows)
            assert c.mask.sum() > s.mask.sum()

    def test_rescale_shapes_and_consistency(self):
        s = square_sample(size=32, lo=8, hi=24)
        image, mask = rescale(s.image, s.mask, size=64)
        assert image.shape == (1, 64, 64)
        assert mask.shape == (1, 64, 64)
        assert set(np.unique(mask)) <= {0.0, 1.0}
        _, back = rescale(image, mask, size=32)
        np.testing.assert_array_equal(back, s.mask)

    def test_rescale_identity_returns_same(self):
        s = square_sample(size=32)
        image, mask = rescale(s.image, s.mask, size=32)
        assert image is s.image and mask is s.mask


class TestAugment:
    def test_deterministic_and_valid(self):
        cfg = AugConfig(target_size=32)
        s = square_sample(size=32, lo=8, hi=24)
        image, mask, edge = augment(s.image, s.mask, np.random.default_rng(3), cfg)
        again = augment(s.image, s.mask, np.random.default_rng(3), cfg)
        np.testing.assert_array_equal(image, again[0])
        np.testing.assert_array_equal(mask, again[1])
        assert mask.shape == s.mask.shape
        assert set(np.unique(mask)) <= {0.0, 1.0}
        np.testing.assert_array_equal(edge, sobel_edge_gt(mask, 1))

    @pytest.mark.parametrize("free_angle", [False, True])
    def test_output_bytes_pinned(self, free_angle):
        cfg = AugConfig(free_angle_rotation=free_angle)
        h = hashlib.sha256()
        for seed in range(20):
            s = synth_sample(np.random.default_rng(100 + seed), 32, "x")
            for arr in augment(s.image, s.mask, np.random.default_rng(seed),
                               cfg):   # image, mask, edge
                h.update(arr.tobytes())
        assert h.hexdigest() == AUGMENT_SHA256[free_angle]

    def test_config_validation(self):
        with pytest.raises(ValueError, match="flip_prob"):
            AugConfig(flip_prob=1.5)
        with pytest.raises(ValueError, match="divisible"):
            AugConfig(target_size=60)
        with pytest.raises(ValueError, match="positive"):
            AugConfig(scale_ratios=(0.0, 1.0))


class TestSynth:
    def test_sample_contract(self):
        s = synth_sample(np.random.default_rng(0), 64, "x")
        assert s.image.shape == (1, 64, 64)
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert set(np.unique(s.mask)) <= {0.0, 1.0}
        assert s.mask.sum() > 0  # never an empty mask
        np.testing.assert_array_equal(s.edge, sobel_edge_gt(s.mask, 1))

    def test_bucket_coverage(self):
        rng = np.random.default_rng(42)
        buckets = {polyp_scale_ratio(synth_sample(rng, 64, f"s{i}").mask)[1]
                   for i in range(60)}
        assert buckets == {"small", "medium", "large"}

    def test_dataset_deterministic(self, tmp_path):
        m1 = synth_blob_dataset(6, 32, 9, str(tmp_path / "a"))
        m2 = synth_blob_dataset(6, 32, 9, str(tmp_path / "b"))
        with open(m1, "rb") as f1, open(m2, "rb") as f2:
            assert f1.read() == f2.read()
        for i in range(6):
            for suffix in (".pgm", "_mask.pgm"):
                p1 = tmp_path / "a" / f"blob{i:04d}{suffix}"
                p2 = tmp_path / "b" / f"blob{i:04d}{suffix}"
                assert p1.read_bytes() == p2.read_bytes()

    def test_split_fractions(self, tmp_path):
        manifest = synth_blob_dataset(10, 32, 1, str(tmp_path / "d"))
        records = dataio.read_manifest(manifest)
        splits = [r[3] for r in records]
        assert splits.count("train") == 8
        assert splits.count("test") == 2

    def test_size_must_be_multiple_of_32(self, tmp_path):
        with pytest.raises(ValueError, match="32"):
            synth_blob_dataset(2, 40, 0, str(tmp_path / "bad"))

    def test_load_sample_round_trip(self, tmp_path):
        manifest = synth_blob_dataset(3, 32, 5, str(tmp_path / "d"))
        records = dataio.read_manifest(manifest)
        s = pipeline.load_sample(records[0])
        assert s.image.shape == (1, 32, 32)
        assert set(np.unique(s.mask)) <= {0.0, 1.0}
        assert s.id == records[0][0]

    def test_dataset_records_hold_synth_samples(self, tmp_path):
        manifest = synth_blob_dataset(3, 32, 5, str(tmp_path / "d"))
        rng = np.random.default_rng(5)
        for record in dataio.read_manifest(manifest):
            want = synth_sample(rng, 32, record[0])
            image, mask = pipeline.read_pair(record)
            np.testing.assert_array_equal(mask, want.mask)
            np.testing.assert_allclose(image, want.image, atol=0.5 / 255)

    def test_load_sample_rejects_image_mask_size_mismatch(self, tmp_path):
        manifest = synth_blob_dataset(1, 32, 5, str(tmp_path / "d"))
        (record,) = dataio.read_manifest(manifest)
        mask_path = record[2]
        dataio.write_pgm(mask_path, dataio.read_mask(mask_path)[:, :, :16])
        for read in (pipeline.read_pair, pipeline.load_sample):
            with pytest.raises(dataio.DataFormatError,
                               match=rf"record {record[0]}: "
                               r"image \(32, 32\) and mask \(32, 16\)"):
                read(record)
