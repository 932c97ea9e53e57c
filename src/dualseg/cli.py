"""Command-line entry points.

Each command parses its arguments, makes one harness call and returns
through `_emit`, which prints one JSON line per result document (and
first writes the same lines to `--out` where the command takes one).

Exit codes: 0 success, 2 configuration problem (bad config file, bad
invocation, unusable mask geometry), 3 data problem (unreadable or
inconsistent files, bad shapes/values, a file the program cannot open,
read or write), 4 failed check.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .errors import (CheckFailure, ConfigError, DataError, DimensionError,
                     InvalidMaskError, UsageError)
from .harness import netpbm
from .harness.checkpoint import load_checkpoint
from .harness.config import RunConfig, override_config, parse_config
from .harness.data import gen_data
from .harness.train import (GRADCHECK_TOLERANCE, MICRO, ablate, bench_memory,
                            evaluate_dirs, predict, run_gradcheck, train_run)
from .tiling import plan_grid

PALETTE = np.array([
    [0, 0, 0], [230, 60, 60], [60, 120, 230], [60, 200, 90],
    [240, 200, 40], [180, 80, 220], [80, 220, 220], [250, 250, 250],
], dtype=np.uint8)


def _emit(docs, out=None) -> int:
    """Write one JSON line per document to `out`, when given, then print
    the same lines; every command returns through here."""
    text = "".join(json.dumps(doc) + "\n" for doc in docs)
    if out:
        with open(out, "w", encoding="ascii") as f:
            f.write(text)
    sys.stdout.write(text)
    return 0


def _in_range(flag: str, value: int, low: int,
              high: int | None = None) -> None:
    """Refuse a command-line number outside low..high: a bad invocation."""
    if value < low or (high is not None and value > high):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise UsageError(f"{flag} must be {span}, got {value}")


def _load_config(args) -> RunConfig:
    cfg = parse_config(args.config) if args.config else RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed).validate()
    return cfg


def _cmd_gen_data(args) -> int:
    cfg = _load_config(args)
    info = gen_data(args.out, cfg.train_scenes, cfg.val_scenes,
                    cfg.image_size, cfg.num_classes, cfg.seed)
    return _emit([info])


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    info = train_run(cfg, args.data, args.out,
                     deterministic=args.deterministic)
    return _emit([info])


def _overlay(image: np.ndarray, pred: np.ndarray) -> np.ndarray:
    colors = PALETTE[pred % len(PALETTE)]
    return ((image.astype(np.float64) + colors) / 2).astype(np.uint8)


def _cmd_infer(args) -> int:
    cfg, params, _ = load_checkpoint(args.ckpt)
    if args.config:
        cfg = override_config(cfg, args.config)
    raw = netpbm.read_ppm(args.image)
    report: dict = {}
    pred = predict(cfg, params, netpbm.bytes_to_image(raw), args.mode, report)
    # only now, so that a refused prediction leaves no directory behind
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.splitext(os.path.basename(args.image))[0]
    pred_path = os.path.join(args.out, stem + ".pgm")
    netpbm.write_pgm(pred_path, pred.astype(np.uint8))
    out = {"prediction": pred_path, "mode": args.mode, **report}
    if args.overlay:
        overlay_path = os.path.join(args.out, stem + ".overlay.ppm")
        netpbm.write_ppm(overlay_path, _overlay(raw, pred))
        out["overlay"] = overlay_path
    with open(os.path.join(args.out, "memory.json"), "w",
              encoding="ascii") as f:
        json.dump(report, f)
        f.write("\n")
    return _emit([out])


def _cmd_eval(args) -> int:
    _in_range("--classes", args.classes, 1)
    classes = args.classes
    if args.config:
        classes = parse_config(args.config).num_classes
    lines, summary = evaluate_dirs(args.pred, args.gt, classes)
    return _emit([*lines, {"summary": summary}], args.out)


def _cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    backbone = settings = None
    num_classes = 2
    if args.config:
        backbone = cfg.backbone()
        num_classes = cfg.num_classes
        settings = dataclasses.replace(cfg.settings(),
                                       global_size=MICRO["global_size"])
    report = run_gradcheck(backbone, settings, num_classes, seed=cfg.seed)
    code = _emit([report])
    if not report["passed"]:
        raise CheckFailure(
            f"gradient check failed: max relative error "
            f"{report['max_rel_err']:.3e} >= {GRADCHECK_TOLERANCE}")
    return code


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    results = ablate(cfg, args.data, args.out, n_seeds=args.seeds)
    return _emit([results])


def _cmd_tile(args) -> int:
    for flag in ("height", "width", "patch"):
        _in_range(f"--{flag}", getattr(args, flag), 1)
    _in_range("--overlap", args.overlap, 0, args.patch - 1)
    grid = plan_grid(args.height, args.width, args.patch, args.overlap)
    doc = {"image_h": grid.image_h, "image_w": grid.image_w,
           "patch": grid.patch, "overlap": grid.overlap,
           "n_tiles": grid.n_tiles,
           "origins": [list(o) for o in grid.origins]}
    return _emit([doc], args.out)


def _cmd_bench_memory(args) -> int:
    cfg = parse_config(args.config) if args.config else None
    report = bench_memory(cfg)
    return _emit([report], args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualseg",
        description="Dual-stream segmentation: data, training, inference, "
                    "checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, seed=True):
        if config:
            p.add_argument("--config", help="key=value config file")
        if seed:
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")

    p = sub.add_parser("gen-data", help="write a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="optimise on a dataset directory")
    common(p)
    p.add_argument("--data", required=True, help="directory of training pairs")
    p.add_argument("--out", required=True, help="run directory for log + ckpt")
    p.add_argument("--deterministic", action="store_true",
                   help="keep timings out of artifacts")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("infer", help="predict one image from a checkpoint")
    common(p, seed=False)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True, help="input .ppm")
    p.add_argument("--mode", choices=("patch", "global"), default="patch")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--overlay", action="store_true",
                   help="also write a color overlay")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    common(p, seed=False)
    p.add_argument("--pred", required=True, help="directory of prediction .pgm")
    p.add_argument("--gt", required=True, help="directory of *.labels.pgm")
    p.add_argument("--classes", type=int, default=RunConfig().num_classes)
    p.add_argument("--out", help="also write the JSON lines here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference check of the micro model")
    common(p)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="train all flag combinations, emit CSV")
    common(p)
    p.add_argument("--data", required=True,
                   help="dataset directory holding train/ and val/")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("tile", help="print a tiling plan as JSON")
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--patch", type=int, required=True)
    p.add_argument("--overlap", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("bench-memory",
                       help="measure transient inference footprint")
    common(p, seed=False)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bench_memory)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError, InvalidMaskError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataError, DimensionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CheckFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
