import hashlib

import numpy as np
import pytest
from scipy import ndimage

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


# SHA-256 of every file synth_blob_dataset(n, size, seed) writes, keyed by
# (n, size, seed).  Two blobs of the 32 px set and one of the 64 px set reach
# past the image border, so the pin covers the clipped drawing boxes.
SYNTH_SHA256 = {
    (8, 32, 1): {
        "blob0000.pgm":
            "7651c5602510396fd2e60c2e1dd9b6fc07e1c881b68354e30355b97cb8c98a64",
        "blob0000_mask.pgm":
            "681493fec29b8b0aaeb31960999aa91e7219760167df75082ce391819f8ba694",
        "blob0001.pgm":
            "4223e5fda6fe5b2e755e2bb33807c6b24a663ae35cf952356fdcde0f092706c9",
        "blob0001_mask.pgm":
            "4142793b78c28b158d0bb5d5f87e6631c8cdada8b106bf29293d6ab7e596f689",
        "blob0002.pgm":
            "8d32298b94ece11760d1c66b99ce731e27e9e7e08ca5c4564835890f112af9af",
        "blob0002_mask.pgm":
            "e3138b876f3aafbc9b50838e4aa128e4f8601412559c5ed4bef5a3a40dbfece3",
        "blob0003.pgm":
            "ee92b1f865ca264a303dd0e76e199bac1e1f6358fa192df6c260aa79756ae7f5",
        "blob0003_mask.pgm":
            "049fb9458f5f8417c29c439948182d1cb1452d055b10677f6af5dd583591cb4f",
        "blob0004.pgm":
            "fa3663d88454872f3733a3f78e0e8ea72c99046a90245bd03e41ba21dfcd3b6d",
        "blob0004_mask.pgm":
            "e3047ffcfdded75d1dd5c52bef518ba6bd68d33f1621ef88cb1000188ed63bde",
        "blob0005.pgm":
            "2c5869de31088b4918b4237da03db401c8328594871f3fa7dea27ea6d57ad493",
        "blob0005_mask.pgm":
            "f12419029a493f614a14f73dd26321ebc9e8e71af4b3f4d7bdd48765bc0e5c9e",
        "blob0006.pgm":
            "b927ffa64bfd19e41b99cd029a9fd733e8a013d1298845e9a56df7aa59d92e5c",
        "blob0006_mask.pgm":
            "a89102e55c1db65a0d707251d05516eec2b223c4d354ed77e44356a97784b66b",
        "blob0007.pgm":
            "06b553e6476a09d24e58431f1af675588a9128a20183574b72facd541f479de3",
        "blob0007_mask.pgm":
            "1b28f9b9782d0902f63c53712cd079baf50818ea965519336d009f0371ca472b",
        "manifest.tsv":
            "92500a7889a9ab37b906634311c0361aa693156e9b585e95cc82c1a5da8fc595",
    },
    (4, 64, 10): {
        "blob0000.pgm":
            "3468ca295a596c3c5b0d59cb72937cabf94908431277333bd813f244cfba4424",
        "blob0000_mask.pgm":
            "615dc50541b64a3ae1712b1cf2222c79d34748a92fb4b488229e4755d8762915",
        "blob0001.pgm":
            "c7598950799138bb1e48b76f481060aee08eb30225a3e5152a67591489619731",
        "blob0001_mask.pgm":
            "75a1cfd274dbec0f3d713561f6cc197804275e54143defd4b641fc3ef24a3552",
        "blob0002.pgm":
            "5ca886587355d5b9e490f4b0acc48e61666ea6f92de74ce7e9115fa885141fd4",
        "blob0002_mask.pgm":
            "d556cd7152d11c625999e0eb35fffb2fe75c2e4a3b2c77592f571ad8ebb2088f",
        "blob0003.pgm":
            "eae0c5d2a9454da55cbb2f93a3cf548332c570b4430f876e72de9fcb7eb4aaf9",
        "blob0003_mask.pgm":
            "a776dbad06a6d8183cb024962fa4c15638c3498675326d4632e63fca5fbe8c02",
        "manifest.tsv":
            "65f8a0abc2ac82872bca254b8882665eb277d65656e83bfd9805dc00a46ea459",
    },
    (2, 352, 3): {
        "blob0000.pgm":
            "94f500faaea91ad6ea031486f33d96d2251ae6aa658e0f0a206c0cda652aae31",
        "blob0000_mask.pgm":
            "9f9cd5c969ccf46714426c383e468f6617ba5c7f66ddfa200e9b2cac9c70bfc7",
        "blob0001.pgm":
            "e0d27a6d5136d51363d2a5ad4b5d9d41911fb9487cea8639e2790c2d995ab1e6",
        "blob0001_mask.pgm":
            "93f1e401ab855815c3f9a63912f19cc74fc8724ec5fa9dcc8de88f20fe156692",
        # blob0000 is its one test record: a fractional split keeps one
        "manifest.tsv":
            "94f39f687750af79aa1ca3a0f3b4c8e469f31eabd9b01a27f99bc9460d195ea1",
    },
}


def square_sample(size=16, lo=4, hi=12, radius=1, seed=0):
    rng = np.random.default_rng(seed)
    mask = np.zeros((1, size, size))
    mask[0, lo:hi, lo:hi] = 1.0
    image = np.clip(rng.random((1, size, size)), 0.0, 1.0)
    return SegSample(image=image, mask=mask,
                     edge=sobel_edge_gt(mask, radius), id="sq")


def filter_oracle_masks():
    """2-D binary masks, one pytest.param each, for checking the numpy
    filters against scipy.ndimage: random densities, all-0, all-1 and
    one-pixel lines at sizes 5-96 and 352, and generator blobs."""
    rng = np.random.default_rng(11)
    masks = []
    for h, w in [(5, 5), (5, 17), (9, 6), (12, 12), (23, 31), (64, 64),
                 (96, 40), (352, 352)]:
        for density in (0.05, 0.5, 0.95):
            masks.append((f"random{density}", rng.random((h, w)) < density))
        row, col = np.zeros((h, w), bool), np.zeros((h, w), bool)
        row[h // 2] = True
        col[:, w - 1] = True
        masks += [("zeros", np.zeros((h, w), bool)),
                  ("ones", np.ones((h, w), bool)), ("row", row), ("col", col)]
    for size in (32, 64, 96, 352):
        masks.append(("blob", pipeline._synth_pair(rng, size)[1][0] == 1))
    return [pytest.param(m.astype(np.float64),
                         id=f"{name}-{m.shape[0]}x{m.shape[1]}")
            for name, m in masks]


SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)


class TestFiltersMatchScipy:
    """The numpy Sobel and dilation give scipy.ndimage's bits."""

    @pytest.mark.parametrize("mask", filter_oracle_masks())
    def test_sobel(self, mask):
        gx, gy = pipeline._sobel(mask)
        np.testing.assert_array_equal(
            gx, ndimage.correlate(mask, SOBEL_X, mode="nearest"))
        np.testing.assert_array_equal(
            gy, ndimage.correlate(mask, SOBEL_X.T, mode="nearest"))

    @pytest.mark.parametrize("mask", filter_oracle_masks())
    def test_dilation(self, mask):
        edge = mask == 1
        for radius in range(4):
            square = np.ones((2 * radius + 1,) * 2, bool)
            np.testing.assert_array_equal(
                pipeline._dilate_square(edge, radius),
                ndimage.binary_dilation(edge, structure=square))


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

    def test_blob_box_holds_the_whole_blob(self):
        # the generator draws each blob only inside _blob_box; drawn on the
        # whole map, the blob must have no pixel outside it
        rng = np.random.default_rng(0)
        size, clipped = 48, 0
        for trial in range(400):
            r0 = rng.uniform(1.5, 24.0)
            ry, rx = r0 * rng.choice([0.75, 1.25, rng.uniform(0.75, 1.25)],
                                     size=2)
            if trial % 2:
                # the largest wobble, every harmonic peaking at phi = 0
                amp, phase = np.full(3, 0.08), np.zeros(3)
            else:
                amp = rng.uniform(0.0, 0.08, 3)
                phase = rng.uniform(0.0, 2 * np.pi, 3)
            cy, cx = rng.uniform(0.0, size, 2)
            theta = rng.uniform(0.0, np.pi)
            reach = max(ry, rx) * (1.0 + amp.sum()) + 2.0
            box = pipeline._blob_box(size, cy, cx, reach)
            placed = np.zeros((size, size), bool)
            placed[box] = pipeline._render_blob(box, cy, cx, ry, rx, theta,
                                                amp, phase)
            whole = pipeline._render_blob(np.s_[0:size, 0:size], cy, cx, ry,
                                          rx, theta, amp, phase)
            np.testing.assert_array_equal(placed, whole)
            clipped += min(cy, cx) < reach or max(cy, cx) + reach > size
        assert 0 < clipped < 400

    @pytest.mark.parametrize("n,size,seed", list(SYNTH_SHA256))
    def test_dataset_bytes_pinned(self, tmp_path, n, size, seed):
        synth_blob_dataset(n, size, seed, str(tmp_path))
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
        assert got == SYNTH_SHA256[n, size, seed]

    def test_split_fractions(self, tmp_path):
        manifest = synth_blob_dataset(10, 32, 1, str(tmp_path / "d"))
        records = dataio.read_manifest(manifest)
        splits = [r[3] for r in records]
        assert splits.count("train") == 8
        assert splits.count("test") == 2

    def test_size_must_be_multiple_of_32(self, tmp_path):
        with pytest.raises(ValueError, match="32"):
            synth_blob_dataset(2, 40, 0, str(tmp_path / "bad"))

    @pytest.mark.parametrize("n,fraction,n_train", [
        (1, 0.8, 1), (2, 0.8, 1), (3, 0.8, 2), (5, 0.8, 4), (10, 0.99, 9),
        (2, 1.0, 2), (2, 0.0, 0)])
    def test_fractional_split_keeps_a_test_record(self, tmp_path, n,
                                                  fraction, n_train):
        manifest = synth_blob_dataset(n, 32, 4, str(tmp_path / "d"), fraction)
        splits = [r[3] for r in dataio.read_manifest(manifest)]
        assert splits.count("train") == n_train
        assert splits.count("test") == n - n_train

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
