"""Dataset plumbing: Sobel edge targets, augmentation, rescaling, the scale
bucketing used for evaluation, and a synthetic blob dataset generator."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import dataio
from .engine import resize_bilinear_np

MAX_SYNTH_SIZE = 4096     # the generator holds several size x size float64 maps
SMALL_THRESHOLD = 0.025   # foreground/total area ratio below which a polyp is "small"
LARGE_THRESHOLD = 0.2     # ...above which it is "large"


@dataclass
class SegSample:
    image: np.ndarray        # (C,H,W) floats in [0,1]
    mask: np.ndarray         # (1,H,W) binary
    edge: np.ndarray         # (1,H,W) binary
    id: str = ""


@dataclass
class AugConfig:
    flip_prob: float = 0.5
    rotation_degrees: tuple = (0, 90, 180, 270)
    free_angle_rotation: bool = False
    crop_fraction_min: float = 0.8
    crop_fraction_max: float = 1.0
    scale_ratios: tuple = (0.75, 1.0, 1.25)
    target_size: int = 64
    edge_dilation_radius: int = 1

    def __post_init__(self):
        if not (0.0 <= self.flip_prob <= 1.0):
            raise ValueError("aug.flip_prob must be in [0,1]")
        if not (self.scale_ratios and all(0 < r < np.inf for r in self.scale_ratios)):
            raise ValueError("aug.scale_ratios must be finite, positive and non-empty")
        if not (self.rotation_degrees or self.free_angle_rotation):
            raise ValueError("aug.rotation_degrees is empty and free angles are off")
        if not 0.0 < self.crop_fraction_min <= self.crop_fraction_max <= 1.0:
            raise ValueError("need 0 < aug.crop_fraction_min <= "
                             "aug.crop_fraction_max <= 1")
        if self.target_size % 32 or self.target_size < 32:
            raise ValueError(f"aug.target_size must be divisible by 32 and "
                             f">= 32, got {self.target_size}")
        if self.edge_dilation_radius < 0:
            raise ValueError(f"aug.edge_dilation_radius must be >= 0, "
                             f"got {self.edge_dilation_radius}")


def sobel_edge_gt(mask, dilation_radius=1):
    """Edge ground truth: foreground pixels with nonzero Sobel gradient,
    optionally thickened by morphological dilation.

    Border handling is replicate, so a full-frame mask yields no edges.
    """
    g = np.asarray(mask, dtype=np.float64)
    squeeze = g.ndim == 3
    if squeeze:
        g = g[0]
    if not np.all((g == 0) | (g == 1)):
        raise ValueError("sobel_edge_gt: mask must be binary")
    gx, gy = _sobel(g)
    edge = ((gx != 0) | (gy != 0)) & (g == 1)
    if dilation_radius > 0:
        edge = _dilate_square(edge, dilation_radius)
    out = edge.astype(np.float64)
    return out[None] if squeeze else out


def _sobel(g):
    """Horizontal and vertical 3x3 Sobel correlations of a 2-D array with
    replicated borders: a central difference along one axis smoothed by
    (1, 2, 1) along the other.  On a binary mask every sum is a small
    integer, so the result is exact in any order."""
    p = np.pad(g, 1, mode="edge")
    dx = p[:, 2:] - p[:, :-2]
    dy = p[2:] - p[:-2]
    return (dx[:-2] + 2 * dx[1:-1] + dx[2:],
            dy[:, :-2] + 2 * dy[:, 1:-1] + dy[:, 2:])


def _dilate_square(edge, radius):
    """Binary dilation by a (2r+1)^2 square, zero outside the frame: an OR
    over each window of rows, then over each window of columns."""
    n = 2 * radius + 1
    rows = sliding_window_view(np.pad(edge, radius), n, axis=0).any(axis=-1)
    return sliding_window_view(rows, n, axis=1).any(axis=-1)


def polyp_scale_ratio(mask):
    """Foreground area ratio and the scale bucket it falls into."""
    g = np.asarray(mask)
    if not np.all((g == 0) | (g == 1)):
        raise ValueError("polyp_scale_ratio: mask must be binary")
    r = float(g.sum()) / g.size
    if r < SMALL_THRESHOLD:
        bucket = "small"
    elif r > LARGE_THRESHOLD:
        bucket = "large"
    else:
        bucket = "medium"
    return r, bucket


# -- geometric transforms ----------------------------------------------------


def resize_image(img, oh, ow):
    return np.clip(resize_bilinear_np(img, oh, ow, align_corners=False), 0.0, 1.0)


def _resize_mask_nearest(mask, oh, ow):
    h, w = mask.shape[-2:]
    rows = np.minimum((np.arange(oh) + 0.5) * h / oh, h - 1).astype(np.int64)
    cols = np.minimum((np.arange(ow) + 0.5) * w / ow, w - 1).astype(np.int64)
    return mask[..., rows[:, None], cols[None, :]].copy()


def _rotate(arr, degrees, mode):
    """Rotate the last two axes counterclockwise: exactly for multiples of
    90 degrees, bilinearly otherwise, filling outside the frame per `mode`
    (scipy.ndimage's; "constant" fills with 0)."""
    if degrees % 90 == 0:
        return np.rot90(arr, int(degrees // 90) % 4, axes=(-2, -1))
    from scipy import ndimage  # imported here: it costs ~26 MiB of RSS
    return np.stack([ndimage.rotate(c, degrees, reshape=False, order=1,
                                    mode=mode) for c in arr])


def augment(image, mask, rng, config: AugConfig):
    """Random flip, rotation and crop with identical geometry on an image
    (C,H,W) and its mask (1,H,W).  Returns the image, the binarized mask and
    its edge map: the one edge map training builds for a sample."""
    for axis in (-1, -2):  # left-right, then top-bottom
        if rng.random() < config.flip_prob:
            image, mask = np.flip(image, axis), np.flip(mask, axis)
    if config.free_angle_rotation:
        deg = float(rng.uniform(0.0, 360.0))
    else:
        deg = float(rng.choice(np.asarray(config.rotation_degrees)))
    if deg:
        image = np.clip(_rotate(image, deg, "nearest"), 0.0, 1.0)
        mask = _rotate(mask, deg, "constant")
    frac = float(rng.uniform(config.crop_fraction_min, config.crop_fraction_max))
    if frac < 1.0:
        h, w = mask.shape[-2:]
        ch = max(1, int(round(h * frac)))
        cw = max(1, int(round(w * frac)))
        top = int(rng.integers(0, h - ch + 1))
        left = int(rng.integers(0, w - cw + 1))
        image = resize_image(image[..., top:top + ch, left:left + cw], h, w)
        mask = _resize_mask_nearest(mask[..., top:top + ch, left:left + cw],
                                    h, w)
    mask = (mask >= 0.5).astype(np.float64)
    return image, mask, sobel_edge_gt(mask, config.edge_dilation_radius)


def rescale(image, mask, size):
    """Resize to a square target: bilinear image, nearest-neighbor mask."""
    h, w = mask.shape[-2:]
    if size < 1:
        raise ValueError(f"rescale: bad target size {size}")
    if (size, size) == (h, w):
        return image, mask
    return (resize_image(image, size, size),
            _resize_mask_nearest(mask, size, size))


# -- synthetic dataset -------------------------------------------------------


def _smooth_noise(rng, size, cells, amplitude):
    coarse = rng.uniform(-1.0, 1.0, size=(cells, cells))
    return amplitude * resize_bilinear_np(coarse, size, size, align_corners=True)


def _render_blob(box, cy, cx, ry, rx, theta, wobble_amp, wobble_phase):
    """The blob's pixels inside `box`, a (rows, cols) pair of slices."""
    yy, xx = np.mgrid[box].astype(np.float64)
    dy, dx = yy - cy, xx - cx
    ct, st = np.cos(theta), np.sin(theta)
    u = (ct * dx + st * dy) / rx
    v = (-st * dx + ct * dy) / ry
    rho = np.sqrt(u * u + v * v)
    phi = np.arctan2(v, u)
    limit = 1.0
    for k, (amp, ph) in enumerate(zip(wobble_amp, wobble_phase), start=2):
        limit = limit + amp * np.cos(k * phi + ph)
    return rho <= limit


def _blob_box(size, cy, cx, reach):
    """Rows and columns within `reach` of (cy, cx), clipped to the image."""
    return tuple(slice(max(int(c - reach), 0), min(int(c + reach) + 1, size))
                 for c in (cy, cx))


def _synth_pair(rng, size):
    """Image (1,H,W) and mask (1,H,W): one textured background + 1..3
    high-contrast elliptical blobs."""
    base = rng.uniform(0.15, 0.35)
    background = base + _smooth_noise(rng, size, max(4, size // 8), 0.06)

    kind = rng.choice(["small", "medium", "large"], p=[0.2, 0.55, 0.25])
    scale = size / 64.0
    if kind == "small":
        radii = [rng.uniform(3.0, 5.2) * scale]
    elif kind == "medium":
        radii = [rng.uniform(6.0, 12.0) * scale
                 for _ in range(int(rng.integers(1, 4)))]
    else:
        radii = [rng.uniform(17.0, 24.0) * scale]
        if rng.random() < 0.3:
            radii.append(rng.uniform(4.0, 7.0) * scale)

    mask = np.zeros((size, size), dtype=bool)
    image = background.copy()
    for r0 in radii:
        ry = r0 * rng.uniform(0.75, 1.25)
        rx = r0 * rng.uniform(0.75, 1.25)
        wob_amp = rng.uniform(0.0, 0.08, size=3)
        # rho >= distance / max(ry, rx) and the wobbled limit is at most
        # 1 + sum(wob_amp), so no blob pixel lies farther than `reach`
        reach = max(ry, rx) * (1.0 + wob_amp.sum()) + 2.0
        margin = min(reach, size / 2.0 - 1.0)
        cy = rng.uniform(margin, size - margin)
        cx = rng.uniform(margin, size - margin)
        box = _blob_box(size, cy, cx, reach)
        blob = _render_blob(box, cy, cx, ry, rx, rng.uniform(0.0, np.pi),
                            wob_amp, rng.uniform(0.0, 2 * np.pi, size=3))
        fg = base + 0.3 + rng.uniform(0.0, 0.2)
        tex = _smooth_noise(rng, size, max(4, size // 8), 0.04)
        image[box][blob] = fg + tex[box][blob]
        mask[box] |= blob
    if not mask.any():  # generator constraint: every mask is nonempty
        mask[size // 2, size // 2] = True
        image[size // 2, size // 2] = min(base + 0.4, 0.95)

    image = image + rng.normal(0.0, 0.02, size=(size, size))
    return np.clip(image, 0.0, 1.0)[None], mask.astype(np.float64)[None]


def synth_sample(rng, size, sample_id):
    """One synthetic blob sample, with its edge map at radius 1."""
    image, mask = _synth_pair(rng, size)
    return SegSample(image=image, mask=mask, edge=sobel_edge_gt(mask),
                     id=sample_id)


def synth_blob_dataset(n, size, seed, out_dir, train_fraction=0.8):
    """Generate n samples as PGM files plus a train/test manifest.

    Deterministic from the seed, byte for byte.  `size` is a multiple of 32
    up to MAX_SYNTH_SIZE.  A fraction strictly between 0 and 1 leaves at
    least one test record when n >= 2.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if size < 32 or size % 32 or size > MAX_SYNTH_SIZE:
        raise ValueError(f"size must be a positive multiple of 32 and at most "
                         f"{MAX_SYNTH_SIZE}, got {size}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    n_train = int(round(n * train_fraction))
    if 0 < train_fraction < 1 and n >= 2:
        n_train = min(n_train, n - 1)
    split_rng = np.random.default_rng(seed + 1)
    order = split_rng.permutation(n)
    splits = {int(idx): ("train" if pos < n_train else "test")
              for pos, idx in enumerate(order)}

    records = []
    for i in range(n):
        sid = f"blob{i:04d}"
        image, mask = _synth_pair(rng, size)
        img_name = f"{sid}.pgm"
        mask_name = f"{sid}_mask.pgm"
        dataio.write_pgm(os.path.join(out_dir, img_name), image)
        dataio.write_pgm(os.path.join(out_dir, mask_name), mask)
        records.append((sid, img_name, mask_name, splits[i]))
    manifest_path = os.path.join(out_dir, "manifest.tsv")
    dataio.write_manifest(manifest_path, records)
    return manifest_path


def read_pair(record):
    """Read one manifest record's image (C,H,W) and binary mask (1,H,W);
    DataFormatError when they differ in size."""
    sid, img_path, mask_path, _split = record
    image = dataio.read_pnm(img_path)
    mask = dataio.read_mask(mask_path)
    if image.shape[1:] != mask.shape[1:]:
        raise dataio.DataFormatError(f"record {sid}: image {image.shape[1:]} "
                                     f"and mask {mask.shape[1:]} differ in size")
    return image, mask


def load_sample(record, edge_dilation_radius=1):
    """Load one manifest record into a SegSample, with its edge target."""
    image, mask = read_pair(record)
    return SegSample(image=image, mask=mask,
                     edge=sobel_edge_gt(mask, edge_dilation_radius),
                     id=record[0])
