"""Binary checkpoint format.

Layout (little endian):
    magic "EFAC" | u32 version | u64 step
    u32 config_len | config echo (UTF-8, the flat key=value serialization)
    u32 n_tensors | n_tensors * record
    u8 has_optimizer [| u32 n_opt | n_opt * record]
record = u32 name_len | name UTF-8 | u32 rank | rank * u32 extents
         | float32 payload

Parameters and batch-norm running stats are both stored as named tensors;
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .config import RunConfig, parse_config, serialize_config
from .model import EFANet

MAGIC = b"EFAC"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _write_record(f, name, array):
    data = np.ascontiguousarray(array, dtype="<f4")
    nb = name.encode("utf-8")
    f.write(struct.pack("<I", len(nb)))
    f.write(nb)
    f.write(struct.pack("<I", data.ndim))
    f.write(struct.pack("<%dI" % data.ndim, *data.shape))
    f.write(data.tobytes())


class _Reader:
    """Length-checked reads from an open checkpoint file; a length read from
    a corrupt file is checked against the bytes left before it is read."""

    def __init__(self, f):
        self.f = f
        self.left = os.fstat(f.fileno()).st_size

    def take(self, n, what):
        if n > self.left:
            raise CheckpointError(
                f"truncated checkpoint: {what} needs {n} bytes, {self.left} left")
        self.left -= n
        return self.f.read(n)

    def unpack(self, fmt, what):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def text(self, what):
        """UTF-8 text preceded by its u32 byte length."""
        raw = self.take(self.unpack("<I", f"{what} length")[0], what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{what} is not UTF-8: {exc}") from None


def _read_record(r):
    name = r.text("tensor name")
    (rank,) = r.unpack("<I", f"rank of {name!r}")
    shape = r.unpack("<%dI" % rank, f"extents of {name!r}")
    payload = r.take(4 * math.prod(shape), f"payload of {name!r}")
    return name, np.frombuffer(payload, dtype="<f4").reshape(shape).copy()


def save_checkpoint(path, model: EFANet, cfg: RunConfig, step=0, optimizer=None):
    """Write a checkpoint atomically: the bytes go to `<path>.tmp` in the same
    directory, which replaces `path` only once it is complete."""
    echo = serialize_config(cfg).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<IQ", VERSION, step))
            f.write(struct.pack("<I", len(echo)))
            f.write(echo)
            tensors = list(model.named_parameters())
            buffers = list(model.named_buffers())
            f.write(struct.pack("<I", len(tensors) + len(buffers)))
            for name, p in tensors:
                _write_record(f, name, p.data)
            for name, b in buffers:
                _write_record(f, name, b)
            if optimizer is None:
                f.write(struct.pack("<B", 0))
            else:
                state = optimizer.state_tensors()
                f.write(struct.pack("<B", 1))
                f.write(struct.pack("<I", len(state)))
                for name in state:
                    _write_record(f, name, state[name])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Load a checkpoint, rebuilding the model from the embedded config.

    Returns (model, cfg, step, optimizer_state or None).
    """
    with open(path, "rb") as f:
        r = _Reader(f)
        magic = r.take(4, "magic")
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        version, step = r.unpack("<IQ", "header")
        if version != VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version}")
        echo = r.text("config echo")
        try:
            cfg = parse_config(echo)
            dtype = cfg.np_dtype()
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad config echo: {exc}") from None
        model = EFANet(cfg.model, seed=cfg.train.seed, dtype=dtype)
        (n_tensors,) = r.unpack("<I", "tensor count")
        stored = dict(_read_record(r) for _ in range(n_tensors))
        (has_opt,) = r.unpack("<B", "optimizer flag")
        opt_state = None
        if has_opt:
            (n_opt,) = r.unpack("<I", "optimizer tensor count")
            opt_state = dict(_read_record(r) for _ in range(n_opt))

    params = dict(model.named_parameters())
    buffers = dict(model.named_buffers())
    expected = {name: p.data.shape for name, p in params.items()}
    expected.update({name: b.shape for name, b in buffers.items()})
    diffs = []
    for name in sorted(set(expected) | set(stored)):
        if name not in stored:
            diffs.append(f"missing tensor {name}")
        elif name not in expected:
            diffs.append(f"unexpected tensor {name}")
        elif stored[name].shape != tuple(expected[name]):
            diffs.append(f"{name}: stored shape {stored[name].shape}, "
                         f"model expects {tuple(expected[name])}")
    if diffs:
        raise CheckpointError(f"{path}: checkpoint/model mismatch:\n  " +
                              "\n  ".join(diffs))
    for name, p in params.items():
        p.data = stored[name].astype(p.dtype)
    for name, b in buffers.items():
        b[...] = stored[name]
    return model, cfg, step, opt_state

