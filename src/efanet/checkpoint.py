"""Binary checkpoint format.

Layout (little endian):
    magic "EFAC" | u32 version | u64 step
    u32 config_len | config echo (UTF-8, the flat key=value serialization)
    u32 n_tensors | n_tensors * record
    u8 has_optimizer [| u32 n_opt | n_opt * record]
record = u32 name_len | name UTF-8 | tensor record
The tensor record (u32 rank | rank * u32 extents | float32 payload) is
written by `dataio.write_array` and read by `dataio.Reader.array`, the same
length-checked reader every binary input goes through.

Parameters and batch-norm running stats are both stored as named tensors;
save -> load -> save is byte-identical.
"""

from __future__ import annotations

import os
import struct

from . import dataio
from .config import RunConfig, parse_config, serialize_config
from .model import EFANet

MAGIC = b"EFAC"
VERSION = 1


class CheckpointError(ValueError):
    pass


def _write_record(f, name, array):
    nb = name.encode("utf-8")
    f.write(struct.pack("<I", len(nb)))
    f.write(nb)
    dataio.write_array(f, array)


def _write_records(f, named):
    f.write(struct.pack("<I", len(named)))
    for name, array in named:
        _write_record(f, name, array)


def _read_records(r, what):
    """A u32 count, then that many records, as a name -> array dict."""
    (n,) = r.unpack("<I", f"{what} count")
    out = {}
    for _ in range(n):
        name = r.text("tensor name")
        out[name] = r.array(repr(name))
    return out


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
            params = [(name, p.data) for name, p in model.named_parameters()]
            _write_records(f, params + list(model.named_buffers()))
            f.write(struct.pack("<B", optimizer is not None))
            if optimizer is not None:
                _write_records(f, list(optimizer.state_tensors().items()))
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
        r = dataio.Reader(f, CheckpointError)
        r.header(MAGIC, VERSION)
        (step,) = r.unpack("<Q", "step")
        echo = r.text("config echo")
        try:
            cfg = parse_config(echo)
        except ValueError as exc:
            raise CheckpointError(f"{path}: bad config echo: {exc}") from None
        model = EFANet(cfg.model, seed=cfg.train.seed, dtype=cfg.np_dtype())
        stored = _read_records(r, "tensor")
        (has_opt,) = r.unpack("<B", "optimizer flag")
        opt_state = _read_records(r, "optimizer tensor") if has_opt else None

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

