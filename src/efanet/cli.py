"""Command-line interface: train / eval / predict / analyze / synth.

Exit codes: 0 success, 2 config, manifest or path error, 3 checkpoint error,
4 numeric failure (a non-finite training loss or prediction).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import dataio, pipeline
from .analyze import analyze_model
from .checkpoint import CheckpointError, load_checkpoint
from .config import load_config
from .train import NumericFailure, evaluate, predict_probability, train, \
    write_eval_outputs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_NUMERIC = 4


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="efanet",
        description="edge-aware polyp segmentation: train, evaluate, "
                    "predict, analyze cost, generate synthetic data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train from a config file")
    p.add_argument("--config", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a manifest split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--out", default=None,
                   help="output directory (default: alongside checkpoint)")
    p.add_argument("--oracle-mode", action="store_true",
                   help="score the ground truth against itself "
                        "(pipeline identity check)")

    p = sub.add_parser("predict", help="write a probability map for one image")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="output PGM path")
    p.add_argument("--raw-out", default=None,
                   help="optional raw float32 tensor output path")

    p = sub.add_parser("analyze", help="parameter and FLOP report")
    p.add_argument("--config", required=True)
    p.add_argument("--res", type=int, default=None,
                   help="input resolution (default: aug target size)")

    p = sub.add_parser("synth", help="generate a synthetic blob dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_train(args):
    cfg = load_config(args.config)
    try:
        path, steps, elapsed = train(cfg)
    except NumericFailure as exc:
        last = exc.last_checkpoint or "(none)"
        print(f"error: {exc}; last good checkpoint: {last}", file=sys.stderr)
        return EXIT_NUMERIC
    print(f"trained {steps} steps in {elapsed:.1f}s -> {path}")
    return EXIT_OK


def _cmd_eval(args):
    model, cfg, _step, _opt = load_checkpoint(args.checkpoint)
    out_dir = args.out or os.path.join(
        os.path.dirname(os.path.abspath(args.checkpoint)),
        f"eval_{args.split}")
    report, curves = evaluate(model, cfg, args.manifest, args.split,
                              oracle_mode=args.oracle_mode)
    write_eval_outputs(out_dir, report, curves)
    agg = report.aggregate()
    print(f"evaluated {agg['count']} images: "
          f"mDice={agg['mDice']:.4f} mIoU={agg['mIoU']:.4f} "
          f"S_alpha={agg['S_alpha']:.4f} F_w={agg['F_w']:.4f} "
          f"E_mean={agg['E_mean']:.4f}")
    print(f"reports written to {out_dir}")
    return EXIT_OK


def _cmd_predict(args):
    model, cfg, _step, _opt = load_checkpoint(args.checkpoint)
    model.eval()
    image = dataio.read_pnm(args.image)
    prob = predict_probability(model, image, cfg.aug.target_size,
                               cfg.np_dtype())
    dataio.write_pgm(args.out, prob)
    if args.raw_out:
        dataio.write_tensor(args.raw_out, prob)
    print(f"prediction written to {args.out}")
    return EXIT_OK


def _cmd_analyze(args):
    cfg = load_config(args.config)
    res = args.res if args.res is not None else cfg.aug.target_size
    report = analyze_model(cfg.model, res)
    sys.stdout.write(report.render())
    return EXIT_OK


def _cmd_synth(args):
    manifest = pipeline.synth_blob_dataset(args.n, args.size, args.seed,
                                           args.out)
    print(f"wrote {args.n} samples, manifest at {manifest}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "predict": _cmd_predict,
    "analyze": _cmd_analyze,
    "synth": _cmd_synth,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except NumericFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # config, manifest and data format errors are all ValueErrors; a path
    # that is missing, a directory or unreadable is an OSError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
