"""Training / evaluation / study loops driven by a RunConfig.

Deterministic mode leaves wall-clock timings out of the log lines (they
go to stderr instead) so that two runs with the same seed produce
byte-identical artifacts.
"""

from __future__ import annotations

import csv
import dataclasses
import glob
import json
import os
import sys
import time

import numpy as np

import dualseg.autodiff as ad
from ..autodiff import GradTape
from ..errors import DataError, UsageError
from ..metrics import ConfusionMatrix
from ..model import (BackboneConfig, ModelParams, TrainSettings,
                     check_train_grid, forward_infer, forward_train)
from ..tiling import plan_grid
from .checkpoint import load_checkpoint, make_optimizer, save_checkpoint
from .config import RunConfig
from .data import gen_data
from .netpbm import bytes_to_image, read_pgm, read_ppm, write_pgm

IGNORE_LABEL = 255
# the two image sides `bench_memory` compares
BENCH_SIDES = (128, 256)


def load_pairs(data_dir: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """All (image [3,H,W] float, labels [H,W] int64) pairs, name-sorted."""
    images = sorted(glob.glob(os.path.join(data_dir, "*.ppm")))
    if not images:
        raise DataError(f"no .ppm images under {data_dir}")
    pairs = []
    for img_path in images:
        lab_path = img_path[: -len(".ppm")] + ".labels.pgm"
        if not os.path.exists(lab_path):
            raise DataError(f"missing labels for {img_path}")
        image = bytes_to_image(read_ppm(img_path))
        labels = read_pgm(lab_path).astype(np.int64)
        if labels.shape != image.shape[1:]:
            raise DataError(f"{lab_path}: labels {labels.shape} do not "
                            f"match the image's {image.shape[1:]}")
        pairs.append((image, labels))
    return pairs


def _check_train_labels(labels: np.ndarray, num_classes: int) -> None:
    if (labels == IGNORE_LABEL).any():
        raise DataError("training labels contain ignore pixels (255); "
                        "the loss has no ignore path, clean the data first")
    if labels.max() >= num_classes:
        raise DataError(f"label {int(labels.max())} out of range for "
                        f"{num_classes} classes")


def train_run(cfg: RunConfig, data_dir: str, out_dir: str,
              deterministic: bool = False) -> dict:
    """Run cfg.steps optimisation steps; write log.jsonl and ckpt.json.
    Each image is tiled at its own size, as `predict` tiles it, and one
    smaller than the patch is refused; out_dir is made only once the
    data has loaded and checked. A step whose loss is not finite ends
    the run with DataError before it updates, logs or checkpoints."""
    pairs = load_pairs(data_dir)
    for _, labels in pairs:
        _check_train_labels(labels, cfg.num_classes)
    grids = [plan_grid(*image.shape[1:], cfg.patch, cfg.overlap)
             for image, _ in pairs]
    for grid in grids:
        check_train_grid(grid, "train")
    os.makedirs(out_dir, exist_ok=True)
    settings = cfg.settings()

    rng = np.random.default_rng(cfg.seed)
    params = ModelParams(cfg.backbone(), cfg.num_classes, rng=rng)
    opt = make_optimizer(cfg, params)
    order_rng = np.random.default_rng(cfg.seed + 1)

    log_path = os.path.join(out_dir, "log.jsonl")
    ckpt_path = os.path.join(out_dir, "ckpt.json")
    order: list[int] = []
    last = None
    with open(log_path, "w", encoding="ascii") as log:
        for step in range(cfg.steps):
            t0 = time.perf_counter()
            opt.zero_grads()
            totals = np.zeros(5)
            for _ in range(cfg.batch):
                if not order:
                    order = list(order_rng.permutation(len(pairs)))
                j = order.pop()
                # a diverging step overflows; the finiteness check below
                # ends the run with one line, so numpy's warnings would
                # only repeat it
                with np.errstate(over="ignore", invalid="ignore"):
                    with GradTape() as tape:
                        _, bd = forward_train(*pairs[j], grids[j], params,
                                              settings)
                    tape.backward(bd.total_tensor)
                totals += (bd.main, bd.aux_global, bd.aux_local,
                           bd.coupling, bd.total)
            if not np.isfinite(totals[4]):
                raise DataError(f"train: step {step} has loss {totals[4]}; "
                                f"the run diverged, try lower learning rates")
            if cfg.batch > 1:
                for t in params.named().values():
                    if t.grad is not None:
                        t.grad /= cfg.batch
            opt.step()
            totals /= cfg.batch
            line = {"step": step, "main": float(totals[0]),
                    "aux_global": float(totals[1]),
                    "aux_local": float(totals[2]),
                    "coupling": float(totals[3]), "total": float(totals[4])}
            wall_ms = (time.perf_counter() - t0) * 1e3
            if deterministic:
                print(f"step {step} wall_ms {wall_ms:.1f}", file=sys.stderr)
            else:
                line["wall_ms"] = round(wall_ms, 3)
            log.write(json.dumps(line, allow_nan=False) + "\n")
            last = line
            if cfg.ckpt_every and (step + 1) % cfg.ckpt_every == 0:
                save_checkpoint(ckpt_path, cfg, params, opt)
    save_checkpoint(ckpt_path, cfg, params, opt)
    return {"steps": cfg.steps, "log": log_path, "checkpoint": ckpt_path,
            "last": last}


def evaluate_dirs(pred_dir: str, gt_dir: str,
                  num_classes: int) -> tuple[list[dict], dict]:
    """Per-image metric lines plus a pooled summary."""
    preds = sorted(glob.glob(os.path.join(pred_dir, "*.pgm")))
    preds = [p for p in preds if not p.endswith(".labels.pgm")]
    if not preds:
        raise DataError(f"no prediction .pgm files under {pred_dir}")
    pooled = ConfusionMatrix(num_classes)
    lines = []
    for pred_path in preds:
        name = os.path.basename(pred_path)
        gt_path = os.path.join(gt_dir, name[: -len(".pgm")] + ".labels.pgm")
        if not os.path.exists(gt_path):
            raise DataError(f"missing ground truth for {pred_path}")
        pred = read_pgm(pred_path).astype(np.int64)
        gt = read_pgm(gt_path).astype(np.int64)
        cm = ConfusionMatrix(num_classes).accumulate(
            pred, gt, ignore_label=IGNORE_LABEL)
        pooled.merge(cm)
        lines.append({"image": name,
                      "per_class_iou": cm.iou_per_class(),
                      "miou": cm.miou(),
                      "oa": cm.overall_accuracy()})
    summary = {"images": len(lines),
               "per_class_iou": pooled.iou_per_class(),
               "miou": pooled.miou(),
               "oa": pooled.overall_accuracy()}
    return lines, summary


def predict(cfg: RunConfig, params: ModelParams, image: np.ndarray,
            mode: str = "patch", mem_report: dict | None = None) -> np.ndarray:
    """Class map of one [3, H, W] image as `cfg` runs it: tiled by the
    config's patch grid in patch mode, whole in global mode."""
    grid = plan_grid(*image.shape[-2:], cfg.patch, cfg.overlap) \
        if mode == "patch" else None
    return forward_infer(image, grid, params, cfg.settings(), mode=mode,
                         mem_report=mem_report)


def predict_dir(cfg: RunConfig, params: ModelParams, data_dir: str,
                out_dir: str, mode: str = "patch") -> list[str]:
    """Write a prediction .pgm next to out_dir for every image in data_dir."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for img_path in sorted(glob.glob(os.path.join(data_dir, "*.ppm"))):
        pred = predict(cfg, params, bytes_to_image(read_ppm(img_path)), mode)
        name = os.path.basename(img_path)[: -len(".ppm")] + ".pgm"
        out_path = os.path.join(out_dir, name)
        write_pgm(out_path, pred.astype(np.uint8))
        written.append(out_path)
    return written


def eval_model_on_dir(cfg: RunConfig, params: ModelParams,
                      data_dir: str) -> float:
    """mIoU of the model over a labelled directory, pooled."""
    pooled = ConfusionMatrix(cfg.num_classes)
    for image, labels in load_pairs(data_dir):
        pred = predict(cfg, params, image)
        pooled.accumulate(pred, labels, ignore_label=IGNORE_LABEL)
    return pooled.miou()


# ---------------------------------------------------------------------------
# gradient check


MICRO = dict(image=16, patch=8, overlap=4, global_size=8, num_classes=2)
GRADCHECK_EPSILON = 1e-4
GRADCHECK_TOLERANCE = 1e-4


def run_gradcheck(backbone: BackboneConfig | None = None,
                  settings: TrainSettings | None = None,
                  num_classes: int = MICRO["num_classes"],
                  seed: int = 0) -> dict:
    """End-to-end finite differences on a micro model.

    The step is 1e-4: the loss is O(1), so central differences carry
    roundoff of about 1e-16/eps, and parameters this deep routinely have
    true gradients near 1e-9 where the error ratio bottoms out at the
    1e-8 floor. A smaller step drowns those coordinates in roundoff.
    Networks with rectifier kinks can still fail spuriously if a
    preactivation lands within eps of zero; the default seed is known
    to sit clear of that.
    """
    backbone = backbone or BackboneConfig((4, 4), (True, True), 4)
    settings = settings or TrainSettings(global_size=MICRO["global_size"])
    rng = np.random.default_rng(seed)
    params = ModelParams(backbone, num_classes, rng=rng)
    names = list(params.named())
    side = MICRO["image"]
    image = rng.random((3, side, side))
    labels = rng.integers(0, num_classes, size=(side, side))
    grid = plan_grid(side, side, MICRO["patch"], MICRO["overlap"])

    def f(*tensors):
        p = ModelParams.from_named(backbone, num_classes,
                                   dict(zip(names, tensors)))
        _, bd = forward_train(image, labels, grid, p, settings)
        return bd.total_tensor

    t0 = time.perf_counter()
    err = ad.gradcheck(f, [t.data for t in params.named().values()],
                       epsilon=GRADCHECK_EPSILON)
    elapsed = time.perf_counter() - t0
    n_scalars = sum(t.data.size for t in params.named().values())
    report = {"max_rel_err": err, "tolerance": GRADCHECK_TOLERANCE,
              "epsilon": GRADCHECK_EPSILON, "parameters": n_scalars,
              "seconds": round(elapsed, 2),
              "passed": bool(err < GRADCHECK_TOLERANCE)}
    return report


# ---------------------------------------------------------------------------
# studies


FLAG_VARIANTS = (
    ("full", True, True),
    ("self_attn_only", True, False),
    ("mask_only", False, True),
    ("neither", False, False),
)


def ablate(cfg: RunConfig, data_dir: str, out_csv: str,
           n_seeds: int = 5, log=None) -> dict:
    """Train each flag combination over a common seed sweep; emit CSV.

    Returns {variant: [miou per seed]} and writes one CSV row per
    variant with one column per seed.
    """
    if n_seeds < 1:
        raise UsageError(f"ablate: need at least one seed, got {n_seeds}")
    log = log or (lambda msg: print(msg, file=sys.stderr))
    results: dict[str, list[float]] = {}
    for variant, use_sa, use_mask in FLAG_VARIANTS:
        scores = []
        for seed in range(n_seeds):
            run_cfg = dataclasses.replace(cfg, use_self_attn=use_sa,
                                          use_mask=use_mask,
                                          seed=seed).validate()
            with_dir = os.path.join(os.path.dirname(out_csv) or ".",
                                    f"_ablate_{variant}_s{seed}")
            train_run(run_cfg, os.path.join(data_dir, "train"), with_dir,
                      deterministic=True)
            _, params, _ = load_checkpoint(os.path.join(with_dir, "ckpt.json"))
            miou = eval_model_on_dir(run_cfg, params,
                                     os.path.join(data_dir, "val"))
            scores.append(miou)
            log(f"ablate {variant} seed {seed}: miou {miou:.4f}")
        results[variant] = scores
    with open(out_csv, "w", encoding="ascii", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["variant"] + [f"seed_{i}" for i in range(n_seeds)])
        for variant, _, _ in FLAG_VARIANTS:
            writer.writerow([variant] + [repr(v) for v in results[variant]])
    return results


def bench_memory(cfg: RunConfig | None = None) -> dict:
    """Transient inference footprint, patch vs whole-image, at the two
    BENCH_SIDES.

    Uses untrained weights (footprint does not depend on the values) and
    an extra pooling stage so the whole-image token count stays sane.
    """
    if cfg is None:
        cfg = RunConfig(stage_channels=(8, 8, 8),
                        downsample=(True, True, True)).validate()
    backbone = cfg.backbone()
    params = ModelParams(backbone, cfg.num_classes,
                         rng=np.random.default_rng(cfg.seed))
    out: dict[str, dict] = {"patch": {}, "global": {}}
    for side in BENCH_SIDES:
        image = np.random.default_rng(cfg.seed + side).random((3, side, side))
        for mode in ("patch", "global"):
            report: dict = {}
            predict(cfg, params, image, mode, report)
            out[mode][str(side)] = report
    lo, hi = (str(s) for s in BENCH_SIDES)
    out["patch_growth"] = (out["patch"][hi]["transient_bytes"]
                           / out["patch"][lo]["transient_bytes"])
    out["global_growth"] = (out["global"][hi]["transient_bytes"]
                            / out["global"][lo]["transient_bytes"])
    out["patch_below_global_at_large"] = bool(
        out["patch"][hi]["transient_bytes"]
        < out["global"][hi]["transient_bytes"])
    return out
