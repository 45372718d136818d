"""File formats: binary PGM/PPM images, raw float tensor files, manifests,
and the length-checked reader and tensor record shared with checkpoints."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

TENSOR_MAGIC = b"EFAT"
TENSOR_VERSION = 1


class DataFormatError(ValueError):
    pass


class Reader:
    """Length-checked reads from an open binary file, the one reader of every
    binary format here: a length read from a corrupt file is checked against
    the bytes left before it is used.  Every failure raises `error`, the
    caller's format error class."""

    def __init__(self, f, error=DataFormatError):
        self.f = f
        self.error = error
        self.left = os.fstat(f.fileno()).st_size

    def take(self, n, what):
        if n > self.left:
            raise self.error(f"truncated {self.f.name}: {what} needs {n} "
                             f"bytes, {self.left} left")
        self.left -= n
        return self.f.read(n)

    def header(self, magic, version):
        """Check the file's magic bytes and u32 format version."""
        got = self.take(len(magic), "magic")
        if got != magic:
            raise self.error(f"{self.f.name}: bad magic {got!r}")
        (got,) = self.unpack("<I", "version")
        if got != version:
            raise self.error(f"{self.f.name}: unsupported version {got}")

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, what):
        """UTF-8 text preceded by its u32 byte length."""
        raw = self.take(self.unpack("<I", f"{what} length")[0], what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not UTF-8: {exc}") from None

    def array(self, what):
        """A tensor record: u32 rank | rank * u32 extents | float32 payload."""
        (rank,) = self.unpack("<I", f"rank of {what}")
        shape = self.unpack("<%dI" % rank, f"extents of {what}")
        payload = self.take(4 * math.prod(shape), f"payload of {what}")
        try:
            return np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
        except ValueError as exc:  # e.g. more dimensions than numpy allows
            raise self.error(f"{what}: bad shape {shape}: {exc}") from None


def write_array(f, array):
    """Write the tensor record that `Reader.array` reads."""
    data = np.asarray(array, dtype="<f4")
    f.write(struct.pack("<I%dI" % data.ndim, data.ndim, *data.shape))
    f.write(data.tobytes())


def _read_pnm_header(r):
    def token(what):
        tok = b""
        while True:
            ch = r.take(1, f"PNM {what}")
            if ch == b"#":
                while r.take(1, "PNM comment") != b"\n":
                    pass
            elif ch not in b" \t\r\n":
                tok += ch
            elif tok:
                return tok

    def number(what):
        tok = token(what)
        if not tok.isdigit():
            raise DataFormatError(f"{r.f.name}: PNM {what} {tok!r} is not "
                                  "a number")
        return int(tok)

    magic = token("magic")
    if magic not in (b"P5", b"P6"):
        raise DataFormatError(f"{r.f.name}: unsupported PNM magic {magic!r}")
    width, height = number("width"), number("height")
    if width < 1 or height < 1:
        raise DataFormatError(f"{r.f.name}: empty PNM image {width}x{height}")
    return magic, width, height, number("maxval")


def read_pnm(path):
    """Read a binary PGM (P5) or PPM (P6) file to a float array in [0,1].

    Returns (C, H, W) with C=1 for PGM, C=3 for PPM.
    """
    with open(path, "rb") as f:
        r = Reader(f)
        magic, width, height, maxval = _read_pnm_header(r)
        if maxval != 255:
            raise DataFormatError(f"{path}: only maxval 255 supported, got {maxval}")
        channels = 1 if magic == b"P5" else 3
        raw = r.take(width * height * channels, "pixel data")
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


def read_mask(path):
    """Read a PGM mask and binarize at half its max value."""
    arr = read_pnm(path)
    if arr.shape[0] != 1:
        raise DataFormatError(f"{path}: mask must be grayscale")
    peak = arr.max()
    if peak == 0:
        return np.zeros_like(arr)
    return (arr >= 0.5 * peak).astype(np.float64)


def write_tensor(path, array):
    """Raw little-endian float32 tensor file: magic "EFAT" | u32 version |
    one tensor record (see `write_array`)."""
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<I", TENSOR_VERSION))
        write_array(f, array)


def read_tensor(path):
    """Read an EFAT tensor file; the record must end the file."""
    with open(path, "rb") as f:
        r = Reader(f)
        r.header(TENSOR_MAGIC, TENSOR_VERSION)
        array = r.array("tensor")
        if r.left:
            raise DataFormatError(f"{path}: {r.left} bytes after the tensor")
    return array


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
