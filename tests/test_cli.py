import hashlib
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import efanet
from efanet import checkpoint, cli, dataio, pipeline
from efanet.backbone import BackboneConfig
from efanet.checkpoint import (CheckpointError, load_checkpoint,
                               save_checkpoint)
from efanet.config import (ConfigError, RunConfig, parse_config, save_config,
                           serialize_config)
from efanet.engine import Adam
from efanet.model import EFANet, ModelConfig
from efanet.pipeline import sobel_edge_gt
from efanet.train import NumericFailure, evaluate, predict_probability, train
from corruption import bit_flips, prefixes, sweep
from test_analyze import toy_config

# SHA-256 of the checkpoint of toy_config()'s model at seed 0.  It pins the
# parameter names and their order, the order of the init draws and the byte
# format; it may change only together with checkpoint.VERSION.
TOY_CHECKPOINT_SHA256 = \
    "6429a54ed9ee1e6d2f87dc8ea199f59c261d696db22c7d2ac53943662a5b201a"


def tiny_run_config(tmp_path, **train_kw):
    cfg = RunConfig()
    cfg.model = ModelConfig(common_width=4, cfm_reduction=2,
                            backbone=BackboneConfig(
                                stem_channels=2,
                                channels_per_level=(2, 3, 4, 5, 6)))
    cfg.aug.target_size = 32
    cfg.optim.epochs = 1
    cfg.optim.batch_size = 2
    cfg.train.out_dir = str(tmp_path / "run")
    for k, v in train_kw.items():
        setattr(cfg.train, k, v)
    return cfg


def save_config_with(path, cfg, key, value):
    """Save `cfg` to `path` with the line of `key` set to the raw `value`."""
    lines = serialize_config(cfg).splitlines()
    at = [line.split(" = ")[0] for line in lines].index(key)
    lines[at] = f"{key} = {value}"
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def dataset(tmp_path):
    assert cli.main(["synth", "--n", "6", "--size", "32", "--seed", "3",
                     "--out", str(tmp_path / "data")]) == 0
    return str(tmp_path / "data" / "manifest.tsv")


class TestConfig:
    def test_serialize_parse_fixed_point(self):
        text = serialize_config(RunConfig())
        again = serialize_config(parse_config(text))
        assert text == again

    def test_values_round_trip(self):
        cfg = RunConfig()
        cfg.optim.lr = 5e-3
        cfg.aug.scale_ratios = (0.5, 1.0)
        cfg.train.multiscale = False
        back = parse_config(serialize_config(cfg))
        assert back.optim.lr == 5e-3
        assert back.aug.scale_ratios == (0.5, 1.0)
        assert back.train.multiscale is False

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\noptim.lr = 0.01  # inline\n")
        assert cfg.optim.lr == 0.01

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("optim.learning_rate = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("optimizer.lr = 0.1\n")

    def test_undotted_key_rejected(self):
        with pytest.raises(ConfigError, match="dotted"):
            parse_config("lr = 0.1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("optim.lr = fast\n")

    def test_invariants_revalidated_after_parse(self):
        with pytest.raises(ValueError, match="divisible"):
            parse_config("aug.target_size = 60\n")

    @pytest.mark.parametrize("key", ["optim.checkpoint_interval",
                                     "optim.batch_size", "optim.epochs",
                                     "optim.max_steps"])
    def test_nonpositive_optim_count_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = 0\n")

    @pytest.mark.parametrize("key, value", [
        ("eval.threshold", "7"), ("eval.threshold", "-0.5"),
        ("eval.threshold", "nan"), ("aug.edge_dilation_radius", "-3"),
        ("aug.target_size", "0"), ("aug.target_size", "-64"),
        ("aug.scale_ratios", ""), ("aug.scale_ratios", "1,inf"),
        ("aug.scale_ratios", "nan"), ("aug.rotation_degrees", ""),
        ("aug.crop_fraction_min", "1.5"), ("aug.crop_fraction_min", "-1"),
        ("aug.crop_fraction_min", "0"), ("aug.crop_fraction_max", "0.5"),
        ("aug.crop_fraction_max", "1.5"),
        ("optim.lr", "-1"), ("optim.lr", "nan"),
        ("optim.lr", "inf"), ("optim.lr_decay", "-1"),
        ("optim.lr_decay", "0"), ("optim.beta1", "1"), ("optim.beta1", "-0.1"),
        ("optim.beta2", "1"), ("optim.eps", "0"), ("optim.eps", "-1e-8"),
        ("optim.eps", "nan"), ("optim.eps", "inf"), ("model.beta_edge", "-5"),
        ("model.beta_edge", "nan"), ("model.beta_edge", "inf"),
        ("train.seed", "-1"), ("train.dtype", "float16"),
        ("backbone.blocks_per_level", "-3,1,1,1,1"),
        ("model.common_width", "0"), ("model.cfm_reduction", "0"),
        ("model.cfm_reduction", "3"), ("backbone.input_channels", "0"),
        ("backbone.stem_channels", "0"),
        ("backbone.channels_per_level", "16,24,0,48,64"),
        ("backbone.channels_per_level", "16,24"),
        ("backbone.blocks_per_level", "1,1")])
    def test_out_of_range_value_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            parse_config(f"{key} = {value}\n")

    def test_key_set_twice_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"line 3: key 'train.seed' .* line 1"):
            parse_config("train.seed = 1\noptim.lr = 0.01\ntrain.seed = 2\n")

    def test_free_angles_need_no_angle_list(self):
        cfg = parse_config("aug.rotation_degrees =\n"
                           "aug.free_angle_rotation = true\n")
        assert cfg.aug.rotation_degrees == ()

    @pytest.mark.parametrize("rates", ["", "0,4,8", "2,-1", "2,2"])
    def test_bad_dilation_rates_rejected(self, rates):
        with pytest.raises(ValueError, match="model.dilation_rates"):
            parse_config(f"model.dilation_rates = {rates}\n")


class TestEditedConfig:
    """A RunConfig edited in Python is checked again before any work."""

    @pytest.mark.parametrize("section, key, value", [
        ("optim", "batch_size", 0), ("train", "dtype", "float16")])
    def test_train_rejects_edit_before_out_dir(self, tmp_path, section, key,
                                               value):
        cfg = tiny_run_config(tmp_path)
        setattr(getattr(cfg, section), key, value)
        with pytest.raises(ValueError, match=f"{section}.{key}"):
            train(cfg)
        assert not os.path.exists(cfg.train.out_dir)

    def test_train_without_manifest_makes_no_out_dir(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        with pytest.raises(ValueError, match="no dataset manifest"):
            train(cfg)
        assert not os.path.exists(cfg.train.out_dir)

    def test_evaluate_rejects_threshold_before_reading(self, tmp_path, dataset,
                                                       monkeypatch):
        def no_reads(*args, **kwargs):
            raise AssertionError("an image was read")

        monkeypatch.setattr(pipeline, "read_pair", no_reads)
        cfg = tiny_run_config(tmp_path)
        cfg.eval.threshold = 2.0
        model = EFANet(cfg.model, seed=0, dtype=np.float32)
        with pytest.raises(ValueError, match="eval.threshold"):
            evaluate(model, cfg, dataset)


class TestCheckpoint:
    def _model_cfg(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        model = EFANet(cfg.model, seed=1, dtype=np.float32)
        return model, cfg

    def test_parameter_round_trip_bit_identical(self, tmp_path):
        model, cfg = self._model_cfg(tmp_path)
        path = tmp_path / "m.efac"
        save_checkpoint(path, model, cfg, step=17)
        loaded, _cfg2, step, opt = load_checkpoint(path)
        assert step == 17 and opt is None
        for (name, p), (name2, q) in zip(model.named_parameters(),
                                         loaded.named_parameters()):
            assert name == name2
            assert p.data.tobytes() == q.data.tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        model, cfg = self._model_cfg(tmp_path)
        p1, p2 = tmp_path / "a.efac", tmp_path / "b.efac"
        save_checkpoint(p1, model, cfg, step=3)
        loaded, cfg2, step, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded, cfg2, step=step)
        assert p1.read_bytes() == p2.read_bytes()

    def test_optimizer_state_round_trip(self, tmp_path):
        model, cfg = self._model_cfg(tmp_path)
        opt = Adam(model.parameters(), lr=1e-3)
        for p in model.parameters():
            p.grad = np.ones_like(p.data)
        opt.step()
        path = tmp_path / "o.efac"
        save_checkpoint(path, model, cfg, step=1, optimizer=opt)
        _, _, _, state = load_checkpoint(path)
        assert state is not None and len(state) > 0

    def test_bad_magic_rejected_before_tensors(self, tmp_path):
        path = tmp_path / "bad.efac"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "v9.efac"
        path.write_bytes(b"EFAC" + struct.pack("<IQ", 9, 0) + b"\x00" * 16)
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_toy_checkpoint_bytes_pinned(self, tmp_path):
        cfg = RunConfig()
        cfg.model = toy_config()
        path = tmp_path / "toy.efac"
        save_checkpoint(path, EFANet(cfg.model, seed=0, dtype=np.float32), cfg)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == \
            TOY_CHECKPOINT_SHA256

    def test_failed_write_keeps_existing_checkpoint(self, tmp_path, monkeypatch):
        model, cfg = self._model_cfg(tmp_path)
        path = tmp_path / "m.efac"
        save_checkpoint(path, model, cfg, step=1)
        before = path.read_bytes()
        write_record = checkpoint._write_record
        written = []

        def fail_midway(f, name, array):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(name)
            write_record(f, name, array)

        monkeypatch.setattr(checkpoint, "_write_record", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, cfg, step=2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.efac"]


def _toy_checkpoint(path):
    """Save toy_config()'s model at seed 0 to `path`; returns the bytes."""
    cfg = RunConfig()
    cfg.model = toy_config()
    save_checkpoint(path, EFANet(cfg.model, seed=0, dtype=np.float32), cfg)
    return path.read_bytes()


def _first_rank_offset(blob):
    """Offset of the rank field of a checkpoint's first tensor record."""
    (cfg_len,) = struct.unpack_from("<I", blob, 16)
    pos = 20 + cfg_len + 4                       # past the tensor count
    (name_len,) = struct.unpack_from("<I", blob, pos)
    return pos + 4 + name_len


class TestCorruptCheckpoint:
    """Whatever is wrong with a checkpoint's bytes, loading raises
    CheckpointError."""

    @pytest.fixture
    def blob(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        path = tmp_path / "good.efac"
        save_checkpoint(path, EFANet(cfg.model, seed=1, dtype=np.float32), cfg,
                        step=5)
        return path.read_bytes()

    def _rejects(self, tmp_path, data, match=None):
        path = tmp_path / "bad.efac"
        path.write_bytes(data)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_every_prefix_of_header_and_first_record(self, tmp_path, blob):
        pos = _first_rank_offset(blob)
        (rank,) = struct.unpack_from("<I", blob, pos)
        shape = struct.unpack_from("<%dI" % rank, blob, pos + 4)
        end = pos + 4 + 4 * rank + 4 * int(np.prod(shape))
        for n in range(end + 1):
            self._rejects(tmp_path, blob[:n])

    def test_sampled_prefixes(self, tmp_path, blob):
        rng = np.random.default_rng(0)
        for n in rng.choice(len(blob), size=200, replace=False):
            self._rejects(tmp_path, blob[:n])

    def test_flipped_config_byte(self, tmp_path, blob):
        (cfg_len,) = struct.unpack_from("<I", blob, 16)
        for i in range(20, 20 + cfg_len, 7):
            bad = bytearray(blob)
            bad[i] ^= 0x80
            self._rejects(tmp_path, bytes(bad), match="UTF-8")

    @pytest.mark.parametrize("old, new", [
        (b"train.dtype = float32", b"train.dtype = float3x"),
        (b"model.common_width = 4", b"model.common_width = 0"),
        (b"model.cfm_reduction = 2", b"model.cfm_reduction = 0"),
        (b"backbone.stem_channels = 2", b"backbone.stem_channels = x"),
        (b"optim.eps = 1e-08", b"optim.eps = 0e-08"),
        (b"train.seed = 7", b"train.seed =-7")])
    def test_config_echo_that_does_not_parse(self, tmp_path, blob, old, new):
        assert blob.count(old) == 1
        self._rejects(tmp_path, blob.replace(old, new), match="config echo")

    def test_every_bit_flip_of_first_rank_and_extents(self, tmp_path):
        path = tmp_path / "toy.efac"
        blob = _toy_checkpoint(path)
        pos = _first_rank_offset(blob)
        (rank,) = struct.unpack_from("<I", blob, pos)
        assert rank == 4
        assert sweep(path, bit_flips(blob, pos, pos + 4 + 4 * rank),
                     load_checkpoint, CheckpointError) == []

    def test_extents_larger_than_payload(self, tmp_path, blob):
        pos = _first_rank_offset(blob) + 4       # the first extent
        bad = blob[:pos] + struct.pack("<I", 0xFFFFFFFF) + blob[pos + 4:]
        self._rejects(tmp_path, bad, match="payload")


class TestCorruptTensorFile:
    """Whatever is wrong with an EFAT tensor file's bytes, reading it returns
    a tensor or raises DataFormatError."""

    def test_every_prefix_and_bit_flip(self, tmp_path):
        path = tmp_path / "t.eft"
        dataio.write_tensor(path, np.arange(6.0).reshape(2, 3))
        good = path.read_bytes()
        assert len(good) == 44
        assert sweep(path, prefixes(good), dataio.read_tensor,
                     dataio.DataFormatError) == []
        sweep(path, bit_flips(good), dataio.read_tensor, dataio.DataFormatError)


class TestCorruptImageFile:
    """Whatever is wrong with a PGM file's bytes, reading it as an image or
    as a mask returns a non-empty array or raises DataFormatError."""

    @pytest.mark.parametrize("read", [dataio.read_pnm, dataio.read_mask])
    def test_every_prefix_and_bit_flip(self, tmp_path, read):
        path = tmp_path / "a.pgm"
        dataio.write_pgm(path, np.linspace(0.0, 1.0, 12).reshape(4, 3))
        good = path.read_bytes()
        assert len(good) == 23
        loaded = sweep(path, prefixes(good) + bit_flips(good), read,
                       dataio.DataFormatError)
        assert loaded and all(a.size for a in loaded)

    @pytest.mark.parametrize("header", [b"P5 0 4 255\n", b"P5 3 -4 255\n",
                                        b"P5 3 x 255\n", b"P5 3 4 2_55\n"])
    def test_bad_header_rejected(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes(12))
        with pytest.raises(dataio.DataFormatError, match="PNM"):
            dataio.read_pnm(path)


class TestSynthCommand:
    def test_manifest_and_split(self, tmp_path, dataset):
        records = dataio.read_manifest(dataset)
        assert len(records) == 6
        splits = [r[3] for r in records]
        assert splits.count("train") == 5 and splits.count("test") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--n", "-3"), ("--n", "0"), ("--size", "0"), ("--size", "-32"),
        ("--size", str(pipeline.MAX_SYNTH_SIZE + 32)), ("--size", "3200000"),
        ("--seed", "-1")])
    def test_out_of_range_argument_is_2(self, tmp_path, capsys, flag, value):
        args = {"--n": "4", "--size": "32", "--seed": "0", flag: value}
        out = tmp_path / "d"
        argv = ["synth", "--out", str(out)]
        for name, v in args.items():
            argv += [name, v]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be ")
        assert err.endswith(f", got {value}\n") and err.count("\n") == 1
        assert not out.exists()

    def test_two_samples_evaluate_on_default_split(self, tmp_path, capsys):
        data = tmp_path / "d"
        assert cli.main(["synth", "--n", "2", "--size", "32", "--seed", "0",
                         "--out", str(data)]) == 0
        ckpt = tmp_path / "toy.efac"
        _toy_checkpoint(ckpt)
        assert cli.main(["eval", "--checkpoint", str(ckpt), "--manifest",
                         str(data / "manifest.tsv"),
                         "--out", str(tmp_path / "eval")]) == 0
        assert "evaluated 1 images" in capsys.readouterr().out


# Run in a fresh interpreter, because this test session imports scipy itself.
SCIPY_FREE_TRAINING = """
import sys
import efanet.cli
from efanet import dataio
from efanet.checkpoint import load_checkpoint
from efanet.config import load_config
from efanet.train import evaluate, predict_probability, train

cfg = load_config(sys.argv[1])
final, steps, _ = train(cfg)
assert steps == 1, steps
model, cfg, _, _ = load_checkpoint(final)
model.eval()
record = dataio.read_manifest(cfg.train.manifest)[0]
predict_probability(model, dataio.read_pnm(record[1]), cfg.aug.target_size)
assert "scipy.ndimage" not in sys.modules, "training loaded scipy.ndimage"
evaluate(model, cfg, cfg.train.manifest)
assert "scipy.ndimage" in sys.modules, "the weighted F-measure needs it"
"""


def test_training_and_prediction_never_import_scipy_ndimage(tmp_path,
                                                            dataset):
    cfg = tiny_run_config(tmp_path, manifest=dataset)
    cfg.optim.max_steps = 1
    cfg_path = tmp_path / "train.cfg"
    save_config(cfg_path, cfg)
    src = os.path.dirname(os.path.dirname(efanet.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", SCIPY_FREE_TRAINING,
                             str(cfg_path)], env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr


class TestTrainCommand:
    def _train(self, tmp_path, dataset, name, **kw):
        cfg = tiny_run_config(tmp_path, manifest=dataset)
        cfg.train.out_dir = str(tmp_path / name)
        for k, v in kw.items():
            setattr(cfg.optim, k, v)
        cfg_path = tmp_path / f"{name}.cfg"
        save_config(cfg_path, cfg)
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        return cfg

    def test_train_writes_checkpoint_and_log(self, tmp_path, dataset):
        cfg = self._train(tmp_path, dataset, "r1")
        out = cfg.train.out_dir
        assert os.path.exists(os.path.join(out, "final.efac"))
        lines = Path(out, "train_log.tsv").read_text().splitlines()
        assert lines[0].split("\t") == ["step", "epoch", "seg1", "seg2",
                                        "seg3", "seg4", "edge", "total"]
        assert len(lines) == 1 + 2  # 5 train samples, batch 2 -> 2 steps

    def test_same_seed_identical_loss_log(self, tmp_path, dataset):
        a = self._train(tmp_path, dataset, "rep_a")
        b = self._train(tmp_path, dataset, "rep_b")
        log_a = Path(a.train.out_dir, "train_log.tsv").read_text()
        log_b = Path(b.train.out_dir, "train_log.tsv").read_text()
        assert log_a == log_b

    def test_zero_lr_leaves_parameters_at_init(self, tmp_path, dataset):
        cfg = self._train(tmp_path, dataset, "lr0", lr=0.0)
        loaded, _, _, _ = load_checkpoint(
            os.path.join(cfg.train.out_dir, "final.efac"))
        fresh = EFANet(cfg.model, seed=cfg.train.seed, dtype=np.float32)
        for (name, p), (_, q) in zip(loaded.named_parameters(),
                                     fresh.named_parameters()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_one_edge_map_per_record_and_sample(self, tmp_path, dataset,
                                                monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sobel_edge_gt(*args, **kwargs)

        monkeypatch.setattr(pipeline, "sobel_edge_gt", counting)
        cfg = tiny_run_config(tmp_path, manifest=dataset)
        cfg.aug.target_size = 96   # 32 px records: every batch is resized
        _, steps, _ = train(cfg)
        # one per 'train' record at load, one per augmented sample
        assert len(calls) == 5 + steps * cfg.optim.batch_size


    def test_non_square_samples_train_and_evaluate(self, tmp_path):
        manifest = pipeline.synth_blob_dataset(10, 64, 3, str(tmp_path / "d"))
        for _, image_path, mask_path, _ in dataio.read_manifest(manifest):
            for p in (image_path, mask_path):
                dataio.write_pgm(p, dataio.read_pnm(p)[:, :, :48])
        cfg = tiny_run_config(tmp_path, manifest=manifest)
        cfg.optim.epochs = 2
        final, steps, _ = train(cfg)
        assert steps == 8            # 8 train samples, batch 2, 2 epochs
        out = tmp_path / "eval"
        assert cli.main(["eval", "--checkpoint", final, "--manifest",
                         manifest, "--out", str(out)]) == 0
        rows = (out / "report.tsv").read_text().splitlines()
        assert len([r for r in rows if r.startswith("blob")]) == 2


# SHA-256 of report.tsv, curves.tsv and buckets.tsv from `efanet eval` of the
# toy_config() seed-0 checkpoint on the test split of a fixed synthetic
# dataset.  The metric values are printed to 6 decimals, so a change to how
# they are computed that moves any of them changes these hashes.
TOY_EVAL_SHA256 = {
    "report.tsv":
        "a88dc95eef5790618991763f122e08208a3486acef727463170c6a4713080b9c",
    "curves.tsv":
        "ba852df439826d15644f0d21467f56354eb8f3d9caaf111bdf763ec499141ddb",
    "buckets.tsv":
        "89e30984bb7bbbf0f2e80330e448de60d85d0fcf7a72712e388acf5b3baed066",
}


class TestEvalPredictAnalyze:
    @pytest.fixture
    def checkpoint(self, tmp_path, dataset):
        cfg = tiny_run_config(tmp_path, manifest=dataset)
        cfg_path = tmp_path / "train.cfg"
        save_config(cfg_path, cfg)
        assert cli.main(["train", "--config", str(cfg_path)]) == 0
        return os.path.join(cfg.train.out_dir, "final.efac")

    def test_eval_oracle_mode_is_perfect(self, tmp_path, dataset, checkpoint):
        out = str(tmp_path / "eval")
        assert cli.main(["eval", "--checkpoint", checkpoint,
                         "--manifest", dataset, "--split", "test",
                         "--out", out, "--oracle-mode"]) == 0
        report = Path(out, "report.tsv").read_text().splitlines()
        agg = [l for l in report if l.startswith("AGGREGATE")][0].split("\t")
        assert float(agg[1]) == 1.0          # mDice
        assert float(agg[2]) == 1.0          # mIoU
        assert os.path.exists(os.path.join(out, "curves.tsv"))
        assert os.path.exists(os.path.join(out, "buckets.tsv"))

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_toy_eval_outputs_pinned(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("EFANET_THREADS", threads)
        data = tmp_path / "data"
        assert cli.main(["synth", "--n", "40", "--size", "64", "--seed", "5",
                         "--out", str(data)]) == 0
        manifest = str(data / "manifest.tsv")
        test_masks = [r[2] for r in dataio.read_manifest(manifest)
                      if r[3] == "test"]
        assert len(test_masks) == 8
        assert all(dataio.read_mask(m).any() for m in test_masks)
        ckpt = tmp_path / "toy.efac"
        _toy_checkpoint(ckpt)
        out = tmp_path / "eval"
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--manifest", manifest, "--out", str(out)]) == 0
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in TOY_EVAL_SHA256}
        assert got == TOY_EVAL_SHA256

    def test_toy_eval_builds_no_edge_targets(self, tmp_path, monkeypatch):
        def no_edges(*args, **kwargs):
            raise AssertionError("an edge target was built")

        monkeypatch.setattr(pipeline, "sobel_edge_gt", no_edges)
        self.test_toy_eval_outputs_pinned(tmp_path, monkeypatch, "1")

    def test_predict_outputs(self, tmp_path, dataset, checkpoint):
        records = dataio.read_manifest(dataset)
        out = str(tmp_path / "pred.pgm")
        raw = str(tmp_path / "pred.eft")
        assert cli.main(["predict", "--checkpoint", checkpoint,
                         "--image", records[0][1], "--out", out,
                         "--raw-out", raw]) == 0
        prob = dataio.read_pnm(out)
        assert prob.shape == (1, 32, 32)
        tensor = dataio.read_tensor(raw)
        assert tensor.shape == (32, 32)
        assert tensor.dtype == np.float32

    def test_confident_model_predicts_without_warning(self):
        model = EFANet(ModelConfig(), seed=0, dtype=np.float32)
        dict(model.named_parameters())["heads.head1.out.bias"].data[:] = -1000
        image = np.random.default_rng(0).random((1, 48, 40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prob = predict_probability(model, image, 64)
        assert prob.shape == (48, 40) and np.all(prob == 0)

    def test_analyze_prints_totals(self, tmp_path, capsys):
        cfg = tiny_run_config(tmp_path)
        cfg_path = tmp_path / "a.cfg"
        save_config(cfg_path, cfg)
        assert cli.main(["analyze", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out and "1 MAC = 2 FLOPs" in out


class TestExitCodes:
    def test_missing_config_file_is_2(self, tmp_path):
        assert cli.main(["train", "--config", str(tmp_path / "nope.cfg")]) == 2

    @pytest.mark.parametrize("flag", ["--checkpoint", "--config", "--image",
                                      "--manifest"])
    def test_directory_path_is_2(self, tmp_path, dataset, capsys, flag):
        ckpt, cfg_path = tmp_path / "toy.efac", tmp_path / "a.cfg"
        _toy_checkpoint(ckpt)
        save_config(cfg_path, tiny_run_config(tmp_path))
        argv = {"--checkpoint": ["eval", "--checkpoint", "DIR",
                                 "--manifest", dataset],
                "--config": ["analyze", "--config", "DIR"],
                "--image": ["predict", "--checkpoint", str(ckpt),
                            "--image", "DIR", "--out", str(tmp_path / "p.pgm")],
                "--manifest": ["eval", "--checkpoint", str(ckpt),
                               "--manifest", "DIR"]}[flag]
        assert cli.main([str(tmp_path) if a == "DIR" else a for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_unknown_key_is_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("optim.turbo = yes\n")
        assert cli.main(["train", "--config", str(bad)]) == 2

    def test_bad_checkpoint_is_3(self, tmp_path, dataset):
        junk = tmp_path / "junk.efac"
        junk.write_bytes(b"not a checkpoint at all")
        assert cli.main(["eval", "--checkpoint", str(junk),
                         "--manifest", dataset]) == 3

    def test_truncated_checkpoint_is_3(self, tmp_path, dataset, capsys):
        short = tmp_path / "short.efac"
        short.write_bytes(b"EFAC\x01\x00")
        assert cli.main(["eval", "--checkpoint", str(short),
                         "--manifest", dataset]) == 3
        err = capsys.readouterr().err
        assert "checkpoint error" in err and "Traceback" not in err

    def test_checkpoint_rank_flipped_to_68_is_3(self, tmp_path, dataset,
                                                capsys):
        path = tmp_path / "r68.efac"
        blob = bytearray(_toy_checkpoint(path))
        pos = _first_rank_offset(blob)
        assert blob[pos] == 4
        blob[pos] ^= 64                          # rank 4 -> 68
        path.write_bytes(bytes(blob))
        assert cli.main(["eval", "--checkpoint", str(path),
                         "--manifest", dataset]) == 3
        err = capsys.readouterr().err
        assert "checkpoint error" in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["optim.checkpoint_interval",
                                     "optim.batch_size", "optim.epochs",
                                     "optim.max_steps"])
    def test_nonpositive_optim_count_is_2(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "z.cfg"
        cfg_path.write_text(f"{key} = 0\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("rates", ["", "0,4,8"])
    def test_bad_dilation_rates_is_2(self, tmp_path, capsys, rates):
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(f"model.dilation_rates = {rates}\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "model.dilation_rates" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("aug.target_size", "0"),
                                            ("aug.rotation_degrees", "")])
    def test_out_of_range_aug_value_is_2(self, tmp_path, dataset, capsys,
                                         key, value):
        cfg = tiny_run_config(tmp_path, manifest=dataset)
        cfg_path = tmp_path / "a.cfg"
        save_config_with(cfg_path, cfg, key, value)
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(cfg.train.out_dir, "final.efac"))

    def test_negative_seed_is_2(self, tmp_path, dataset, capsys):
        cfg = tiny_run_config(tmp_path, manifest=dataset)
        cfg_path = tmp_path / "s.cfg"
        save_config_with(cfg_path, cfg, "train.seed", "-1")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "train.seed" in err and "Traceback" not in err
        assert not os.path.exists(os.path.join(cfg.train.out_dir, "train_log.tsv"))

    def test_key_set_twice_is_2(self, tmp_path, capsys):
        cfg = tiny_run_config(tmp_path)
        cfg_path = tmp_path / "k.cfg"
        cfg_path.write_text(serialize_config(cfg) + "train.seed = 7\n")
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "train.seed" in err and "already set" in err
        assert "Traceback" not in err
        assert not os.path.exists(cfg.train.out_dir)

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_unsupported_dtype_is_2(self, tmp_path, dataset, capsys, command):
        cfg = tiny_run_config(tmp_path, manifest=dataset)
        cfg_path = tmp_path / "t.cfg"
        save_config_with(cfg_path, cfg, "train.dtype", "float16")
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "train.dtype" in err and "Traceback" not in err
        assert not os.path.exists(cfg.train.out_dir)

    @pytest.mark.parametrize("rgb_records", [5, 1])
    def test_channel_mismatch_is_2(self, tmp_path, dataset, capsys,
                                   rgb_records):
        train_records = [r for r in dataio.read_manifest(dataset)
                         if r[3] == "train"]
        first_rgb = train_records[-rgb_records][0]   # the error names it
        for _, image_path, _, _ in train_records[-rgb_records:]:
            gray = np.round(dataio.read_pnm(image_path)[0] * 255)
            rgb = np.repeat(gray.astype(np.uint8)[:, :, None], 3, axis=2)
            with open(image_path, "wb") as f:   # a P6 (PPM) image
                f.write(b"P6\n%d %d\n255\n" % gray.shape[::-1] + rgb.tobytes())
        cfg = tiny_run_config(tmp_path, manifest=dataset)
        cfg_path = tmp_path / "rgb.cfg"
        save_config(cfg_path, cfg)
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "backbone.input_channels" in err and f"record {first_rgb}" in err
        assert "Traceback" not in err
        assert not os.path.exists(cfg.train.out_dir)

    def test_batch_larger_than_split_is_2(self, tmp_path, dataset, capsys):
        cfg = tiny_run_config(tmp_path, manifest=dataset)
        cfg.optim.batch_size = 6  # the dataset has 5 'train' records
        cfg_path = tmp_path / "b.cfg"
        save_config(cfg_path, cfg)
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        assert "optim.batch_size" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(cfg.train.out_dir, "final.efac"))

    def test_image_mask_size_mismatch_is_2(self, tmp_path, dataset, capsys):
        records = dataio.read_manifest(dataset)
        for _, _, mask_path, _ in records:
            dataio.write_pgm(mask_path,
                             dataio.read_mask(mask_path)[:, ::2, ::2])
        cfg = tiny_run_config(tmp_path, manifest=dataset)
        cfg_path = tmp_path / "m.cfg"
        save_config(cfg_path, cfg)
        assert cli.main(["train", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "(32, 32) and mask (16, 16)" in err
        assert not os.path.exists(os.path.join(cfg.train.out_dir, "final.efac"))
        ckpt = tmp_path / "m.efac"
        save_checkpoint(ckpt, EFANet(cfg.model, seed=1, dtype=np.float32), cfg)
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--manifest", dataset]) == 2
        (test_id,) = [r[0] for r in records if r[3] == "test"]
        assert f"record {test_id}: image (32, 32) and mask (16, 16)" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", ""])
    def test_bad_eval_threads_is_2(self, tmp_path, dataset, capsys,
                                   monkeypatch, value):
        ckpt = tmp_path / "toy.efac"
        _toy_checkpoint(ckpt)
        monkeypatch.setenv("EFANET_THREADS", value)
        out = tmp_path / "eval"
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--manifest", dataset, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "EFANET_THREADS" in err and "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def _nan_checkpoint(path):
        cfg = RunConfig()
        cfg.model = toy_config()
        model = EFANet(cfg.model, seed=0, dtype=np.float32)
        model.parameters()[0].data.reshape(-1)[0] = np.nan
        save_checkpoint(path, model, cfg)

    def test_non_finite_prediction_in_eval_is_4(self, tmp_path, dataset,
                                                capsys, monkeypatch):
        monkeypatch.setenv("EFANET_THREADS", "1")
        ckpt = tmp_path / "nan.efac"
        self._nan_checkpoint(ckpt)
        out = tmp_path / "eval"
        assert cli.main(["eval", "--checkpoint", str(ckpt),
                         "--manifest", dataset, "--out", str(out)]) == 4
        err = capsys.readouterr().err
        (test_id,) = [r[0] for r in dataio.read_manifest(dataset)
                      if r[3] == "test"]
        assert f"record {test_id}: non-finite prediction" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_non_finite_prediction_in_predict_is_4(self, tmp_path, dataset,
                                                   capsys):
        ckpt = tmp_path / "nan.efac"
        self._nan_checkpoint(ckpt)
        out, raw = tmp_path / "pred.pgm", tmp_path / "pred.eft"
        image = dataio.read_manifest(dataset)[0][1]
        assert cli.main(["predict", "--checkpoint", str(ckpt), "--image",
                         image, "--out", str(out), "--raw-out", str(raw)]) == 4
        err = capsys.readouterr().err
        assert "error: non-finite prediction" in err
        assert "Traceback" not in err
        assert not out.exists() and not raw.exists()

    def test_bad_analyze_resolution_is_2(self, tmp_path):
        cfg_path = tmp_path / "a.cfg"
        save_config(cfg_path, tiny_run_config(tmp_path))
        assert cli.main(["analyze", "--config", str(cfg_path),
                         "--res", "50"]) == 2

    def test_numeric_failure_is_4(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "n.cfg"
        save_config(cfg_path, tiny_run_config(tmp_path))

        def boom(cfg):
            raise NumericFailure("non-finite loss at step 1", None)

        monkeypatch.setattr(cli, "train", boom)
        assert cli.main(["train", "--config", str(cfg_path)]) == 4

    def test_non_finite_loss_names_its_terms(self, tmp_path, dataset,
                                             monkeypatch, capsys):
        # a NaN weight in head2's last conv makes only S2, so only seg2
        # and the total, non-finite
        def poisoned(config, seed=0, dtype=np.float64):
            model = EFANet(config, seed=seed, dtype=dtype)
            model.heads.head2.out.weight.data[0, 0, 0, 0] = np.nan
            return model

        monkeypatch.setattr(efanet.train, "EFANet", poisoned)
        cfg_path = tmp_path / "n.cfg"
        save_config(cfg_path, tiny_run_config(tmp_path, manifest=dataset))
        assert cli.main(["train", "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "error: non-finite loss at step 0 (seg2);" in err
        assert "seg1" not in err
        assert "Traceback" not in err
