"""File formats: binary PGM/PPM images, raw float tensor files, manifests."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

TENSOR_MAGIC = b"EFAT"
TENSOR_VERSION = 1


class DataFormatError(ValueError):
    pass


def _read_pnm_header(f):
    def token():
        tok = b""
        while True:
            ch = f.read(1)
            if not ch:
                raise DataFormatError("truncated PNM header")
            if ch in b" \t\r\n":
                if tok:
                    return tok
                continue
            if ch == b"#":
                f.readline()
                continue
            tok += ch

    magic = token()
    width = int(token())
    height = int(token())
    maxval = int(token())
    return magic, width, height, maxval


def read_pnm(path):
    """Read a binary PGM (P5) or PPM (P6) file to a float array in [0,1].

    Returns (C, H, W) with C=1 for PGM, C=3 for PPM.
    """
    with open(path, "rb") as f:
        magic, width, height, maxval = _read_pnm_header(f)
        if magic not in (b"P5", b"P6"):
            raise DataFormatError(f"{path}: unsupported PNM magic {magic!r}")
        if maxval != 255:
            raise DataFormatError(f"{path}: only maxval 255 supported, got {maxval}")
        channels = 1 if magic == b"P5" else 3
        raw = f.read(width * height * channels)
        if len(raw) != width * height * channels:
            raise DataFormatError(f"{path}: truncated pixel data")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, width, channels)
    return np.ascontiguousarray(arr.transpose(2, 0, 1)).astype(np.float64) / 255.0


def write_pgm(path, values):
    """Write a (H,W) or (1,H,W) array in [0,1] as binary PGM."""
    arr = np.asarray(values)
    if arr.ndim == 3:
        if arr.shape[0] != 1:
            raise DataFormatError("write_pgm expects a single channel")
        arr = arr[0]
    data = np.clip(np.round(arr * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (data.shape[1], data.shape[0]))
        f.write(data.tobytes())


def read_mask(path, threshold=0.5):
    """Read a PGM mask and binarize at `threshold` of the max value."""
    arr = read_pnm(path)
    if arr.shape[0] != 1:
        raise DataFormatError(f"{path}: mask must be grayscale")
    peak = arr.max()
    if peak == 0:
        return np.zeros_like(arr)
    return (arr >= threshold * peak).astype(np.float64)


def write_tensor(path, array):
    """Raw little-endian float32 tensor file with an EFAT header."""
    arr = np.asarray(array, dtype="<f4")
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<II", TENSOR_VERSION, arr.ndim))
        f.write(struct.pack("<%dI" % arr.ndim, *arr.shape))
        f.write(arr.tobytes())


def read_tensor(path):
    """Read an EFAT tensor file; each length read from the file is checked
    against the bytes left before it is used."""
    with open(path, "rb") as f:
        raw = f.read()
    magic = raw[:4]
    if magic != TENSOR_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if len(raw) < 12:
        raise DataFormatError(f"{path}: truncated tensor header")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != TENSOR_VERSION:
        raise DataFormatError(f"{path}: unsupported tensor version {version}")
    offset = 12 + 4 * rank
    if offset > len(raw):
        raise DataFormatError(f"{path}: truncated tensor shape (rank {rank})")
    shape = struct.unpack_from("<%dI" % rank, raw, 12)
    if len(raw) - offset != 4 * math.prod(shape):
        raise DataFormatError(f"{path}: payload size mismatch")
    data = np.frombuffer(raw, dtype="<f4", offset=offset)
    return data.reshape(shape).copy()


# -- manifests ---------------------------------------------------------------


class ManifestError(ValueError):
    pass


def write_manifest(path, records):
    """records: iterable of (id, image_path, mask_path, split)."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write("\t".join(str(x) for x in rec) + "\n")


def read_manifest(path):
    records = []
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ManifestError(f"{path}:{ln}: expected 4 tab-separated "
                                    f"fields, got {len(parts)}")
            sid, img, mask, split = parts
            if not os.path.isabs(img):
                img = os.path.join(base, img)
            if not os.path.isabs(mask):
                mask = os.path.join(base, mask)
            for p in (img, mask):
                if not os.path.isfile(p):
                    raise ManifestError(f"{path}:{ln}: missing file {p}")
            records.append((sid, img, mask, split))
    seen = {}
    for sid, _, _, split in records:
        if sid in seen and seen[sid] != split:
            raise ManifestError(f"{path}: id {sid} appears in multiple splits")
        seen[sid] = split
    return records
