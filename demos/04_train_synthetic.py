"""End-to-end run on the bundled synthetic task.

Generates a dataset, trains the tuned recipe, scores the held-out
split, and leaves predictions plus an overlay image in the work
directory. The full 500 steps take about 50 s with BLAS on one thread
(2-vCPU Xeon VM); pass --steps to shorten it (quality drops
accordingly). The test suite runs it with --steps 3, in about 2 s.
"""

import argparse
import json
import os

import numpy as np

from dualseg.harness.checkpoint import load_checkpoint
from dualseg.harness.config import preset_convergence
from dualseg.harness.data import gen_data
from dualseg.harness.netpbm import read_pgm, read_ppm, write_ppm
from dualseg.harness.train import (eval_model_on_dir, evaluate_dirs,
                                   predict_dir, train_run)

PALETTE = np.array([[40, 40, 40], [220, 80, 60], [70, 140, 220]])

ap = argparse.ArgumentParser()
ap.add_argument("--work", default="demo_run", help="output directory")
ap.add_argument("--steps", type=int, default=None)
args = ap.parse_args()

cfg = preset_convergence()
if args.steps is not None:
    cfg.steps = args.steps
    cfg.validate()

data_root = os.path.join(args.work, "data")
gen_data(data_root, cfg.train_scenes, cfg.val_scenes,
         cfg.image_size, cfg.num_classes, seed=cfg.seed)
print(f"dataset: {cfg.train_scenes} train / {cfg.val_scenes} val scenes "
      f"under {data_root}")

run_dir = os.path.join(args.work, "run")
print(f"training {cfg.steps} steps (d_model {cfg.d_model}, "
      f"lr {cfg.lr_global})...")
info = train_run(cfg, os.path.join(data_root, "train"), run_dir)
print(f"final losses: " + json.dumps(
    {k: round(v, 4) for k, v in info["last"].items() if k != "step"}))

_, params, _ = load_checkpoint(info["checkpoint"])
val_dir = os.path.join(data_root, "val")
miou = eval_model_on_dir(cfg, params, val_dir)
print(f"held-out mIoU: {miou:.4f}")

pred_dir = os.path.join(args.work, "pred")
predict_dir(cfg, params, val_dir, pred_dir)
lines, _ = evaluate_dirs(pred_dir, val_dir, cfg.num_classes)
worst = min(lines, key=lambda l: l["miou"])
print(f"weakest scene: {worst['image']} at mIoU {worst['miou']:.4f}")

# blend the first scene with its colorized prediction for a quick look
first = sorted(f for f in os.listdir(val_dir) if f.endswith(".ppm"))[0]
image = read_ppm(os.path.join(val_dir, first))
classes = read_pgm(os.path.join(pred_dir, first[: -len(".ppm")] + ".pgm"))
overlay = (0.5 * image + 0.5 * PALETTE[classes]).astype(np.uint8)
out_path = os.path.join(args.work, "overlay.ppm")
write_ppm(out_path, overlay)
print(f"wrote {out_path}")
