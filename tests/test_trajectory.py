"""Float64 training trajectory oracle.

A few steps of the public `train()` on the default model, in float64, are
pinned to `trajectory_pins.json`: the loss terms of every step, a digest of
every parameter and buffer (its sum and L2 norm) and the eval logits of one
fixed image.  A change that only reorders a floating-point sum passes; a
change of the forward, the data order, the augmentation, the optimizer
formula or the direction of a gradient fails.  (Adam ignores a constant
rescale of one parameter's gradient, so this does not replace the
finite-difference checks.)

Tolerance.  Float32 training turns a change of summation order into
parameter differences of ~1e-3 within 12 steps, so it cannot tell rounding
from a real change; float64 can.  On this test's run, the conv input
gradient summed in another order (the per-tap scatter of commit a5756d3)
moved the losses by at most 3.3e-16, the logits by 6.2e-12 and each trained
tensor's norm and sum by 8.0e-11 relative, while `engine.BN_EPS` raised
from 1e-5 to 1.1e-5 moved the losses by 7.9e-6 to 5.6e-3 and the logits
by 3.3e-3.  RTOL = 1e-8 leaves more than two orders of magnitude on each
side.  A per-tensor sum can cancel to near 0, so it is compared at RTOL
times the largest sum its entries could have, sqrt(n) * L2 norm.

The conv biases that batch norm cancels get rounding noise g as gradient,
which Adam turns into steps of about lr * |g| / eps: their norms stay below
3e-10 here and differ by up to 40% between summation orders, while the
smallest trained tensor has norm 4.9e-4.  A tensor pinned below NOISE_NORM
is only checked to stay below it, which still catches a bias that starts
to receive a real gradient.

Regenerate the pins, after saying why in CHANGES.md, with
    PYTHONPATH=src python tests/test_trajectory.py --write
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from efanet import pipeline
from efanet import train as train_module
from efanet.config import RunConfig
from efanet.engine import Tensor, no_grad

PINS = Path(__file__).with_name("trajectory_pins.json")
RTOL = 1e-8
NOISE_NORM = 1e-6
DATA_SIZE = 96        # the records are resized to the 64 px training size
RECORDS = 15          # 12 'train' records at batch 2: 6 steps
SEED = 11


def run_trajectory(tmp_path):
    """Train and return the pinned quantities: three lists of rows."""
    manifest = pipeline.synth_blob_dataset(RECORDS, DATA_SIZE, SEED,
                                           str(tmp_path / "data"))
    cfg = RunConfig()
    cfg.train.manifest = manifest
    cfg.train.out_dir = str(tmp_path / "run")
    cfg.train.dtype = "float64"
    cfg.train.multiscale = False
    cfg.aug.target_size = 64
    cfg.optim.batch_size = 2
    cfg.optim.epochs = 1

    losses, saved = [], []
    real_loss, real_save = train_module.total_loss, train_module.save_checkpoint

    def recording_loss(*args):
        loss = real_loss(*args)
        seg, edge, total = loss.values()
        losses.append(seg + [edge, total])
        return loss

    def recording_save(path, model, *args, **kwargs):
        saved.append(model)   # the checkpoint holds float32 copies only
        return real_save(path, model, *args, **kwargs)

    mp = pytest.MonkeyPatch()
    mp.setattr(train_module, "total_loss", recording_loss)
    mp.setattr(train_module, "save_checkpoint", recording_save)
    try:
        train_module.train(cfg)
    finally:
        mp.undo()

    model = saved[-1]
    tensors = [(n, p.data) for n, p in model.named_parameters()]
    tensors += list(model.named_buffers())
    digest = [[n, float(a.sum()), float(np.sqrt((a * a).sum())), int(a.size)]
              for n, a in tensors]

    image = pipeline.synth_sample(np.random.default_rng(SEED), 64, "x").image
    model.eval()
    with no_grad():
        logits = model(Tensor(image[None])).side_logits[0].data[0, 0]
    return {"losses": losses, "digest": digest,
            "logits": logits[::8, ::8].tolist()}


@pytest.fixture(scope="module")
def trajectory(tmp_path_factory):
    return run_trajectory(tmp_path_factory.mktemp("trajectory"))


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text())


def test_losses(trajectory, pins):
    np.testing.assert_allclose(trajectory["losses"], pins["losses"],
                               rtol=RTOL, atol=0)


def test_parameter_digest(trajectory, pins):
    got, want = trajectory["digest"], pins["digest"]
    assert [row[0] for row in got] == [row[0] for row in want]
    for (name, gs, gnorm, gn), (_, s, norm, n) in zip(got, want):
        assert gn == n, name
        if norm < NOISE_NORM:
            assert gnorm < NOISE_NORM, name
            continue
        assert abs(gnorm - norm) <= RTOL * norm, name
        assert abs(gs - s) <= RTOL * np.sqrt(n) * norm, name


def test_eval_logits(trajectory, pins):
    want = np.asarray(pins["logits"])
    np.testing.assert_allclose(trajectory["logits"], want, rtol=RTOL,
                               atol=RTOL * np.abs(want).max())


if __name__ == "__main__":
    import tempfile
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_trajectory.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        result = run_trajectory(Path(tmp))
    PINS.write_text("{\n" + ",\n".join(
        f' "{key}": [\n' + ",\n".join(f"  {json.dumps(row)}" for row in rows)
        + "\n ]" for key, rows in result.items()) + "\n}\n")
