"""The three benchmark workloads: inputs from a seed, one op, output checks.

Every workload uses the `preset_convergence()` model (d_model 16, two
stages, patch 32, overlap 8). Set-up draws a scene with
`harness.data.generate_scene` and random weights from the workload seed,
round-trips the scene through netpbm files and the weights through a JSON
checkpoint, and ends with one warm-up op. The program only sees the
arrays read back; the seed never reaches it.

All calls into dualseg go through module attributes (``model.forward_infer``,
``netpbm.read_ppm``, ...) so that the traced run's wrappers see them.
"""

from __future__ import annotations

import base64
import json
import math
import os
import time
import zlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

import dualseg.autodiff as ad
from dualseg import metrics, model
from dualseg.harness import checkpoint, data, netpbm
from dualseg.harness.config import preset_convergence
from dualseg.memory import LEDGER
from dualseg.tiling import plan_grid

CFG = preset_convergence()
LOSS_RTOL = 1e-9          # first-step loss and gradient norm vs reference
MAP_AGREEMENT = 0.999     # share of pixels equal to the reference class map
FLAT_SIDE = 64            # patch-mode transient must equal this size's
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


@dataclass(frozen=True)
class Spec:
    name: str
    side: int                 # input image side, pixels
    mode: Optional[str]       # forward_infer mode; None for a training step


# why each exists: perfbench/README.md and BENCHMARK.json
WORKLOADS = {s.name: s for s in (
    Spec("train_step", 64, None),
    Spec("infer_patch", 192, "patch"),
    Spec("infer_global", 96, "global"),
)}


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="ascii") as f:
        return json.load(f)


def pack_map(pred: np.ndarray) -> str:
    return base64.b64encode(zlib.compress(
        pred.astype(np.uint8).tobytes(), 9)).decode("ascii")


def unpack_map(text: str, side: int) -> np.ndarray:
    raw = zlib.decompress(base64.b64decode(text))
    return np.frombuffer(raw, dtype=np.uint8).reshape(side, side)


def grad_norm(params: model.ModelParams) -> float:
    return math.sqrt(sum(float(np.sum(t.grad * t.grad))
                         for t in params.named().values() if t.grad is not None))


class Workload:
    """One workload's state: set-up, the timed op, and its output check."""

    def __init__(self, spec: Spec, seed: int, workdir: str,
                 reference: Optional[dict]):
        self.spec = spec
        self.seed = seed
        self.workdir = workdir
        self.reference = reference      # this seed's entry, or None
        self.settings = CFG.settings()
        self.expected: Optional[np.ndarray] = None
        self.flat_transient: Optional[int] = None

    @property
    def pixels(self) -> int:
        return self.spec.side ** 2

    def setup(self) -> tuple[float, Optional[str], tuple]:
        """Build inputs and model, run the warm-up op.

        Returns (seconds, check error or None, warm-up op output).
        """
        t0 = time.perf_counter()
        side = self.spec.side
        seq = np.random.SeedSequence(self.seed % 2 ** 64)   # any int seed
        scene_rng, weight_rng = (np.random.default_rng(s) for s in seq.spawn(2))
        scene = data.generate_scene(scene_rng, side, CFG.num_classes)
        img_path = os.path.join(self.workdir, "scene.ppm")
        lab_path = os.path.join(self.workdir, "scene.labels.pgm")
        netpbm.write_ppm(img_path, netpbm.image_to_bytes(scene.image))
        netpbm.write_pgm(lab_path, scene.labels.astype(np.uint8))
        self.image = netpbm.bytes_to_image(netpbm.read_ppm(img_path))
        self.labels = netpbm.read_pgm(lab_path).astype(np.int64)

        ckpt = os.path.join(self.workdir, "ckpt.json")
        fresh = model.ModelParams(CFG.backbone(), CFG.num_classes, rng=weight_rng)
        checkpoint.save_checkpoint(ckpt, CFG, fresh)
        _, self.params, _ = checkpoint.load_checkpoint(ckpt)

        if self.spec.mode is None:
            self.grid = plan_grid(side, side, CFG.patch, CFG.overlap)
            self.opt = checkpoint.make_optimizer(CFG, self.params)
        else:
            self.grid = (plan_grid(side, side, CFG.patch, CFG.overlap)
                         if self.spec.mode == "patch" else None)
            self.confusion = metrics.ConfusionMatrix(CFG.num_classes)
        if self.spec.mode == "patch":
            crop = np.ascontiguousarray(self.image[:, :FLAT_SIDE, :FLAT_SIDE])
            report: dict = {}
            model.forward_infer(crop, plan_grid(FLAT_SIDE, FLAT_SIDE, CFG.patch,
                                                CFG.overlap),
                                self.params, self.settings, mode="patch",
                                mem_report=report)
            self.flat_transient = report["transient_bytes"]

        self.expected = None
        _, transient, out = self.op(first=True)
        error = self.check(out, transient, first=True)
        return time.perf_counter() - t0, error, out

    def op(self, first: bool = False) -> tuple[float, int, tuple]:
        """Run one op; returns (seconds, ledger transient bytes, output)."""
        if self.spec.mode is None:
            base = LEDGER.reset_peak()
            t0 = time.perf_counter()
            self.opt.zero_grads()
            with ad.GradTape() as tape:
                _, bd = model.forward_train(self.image, self.labels, self.grid,
                                            self.params, self.settings)
            tape.backward(bd.total_tensor)
            norm = grad_norm(self.params) if first else None
            self.opt.step()
            dt = time.perf_counter() - t0
            return dt, LEDGER.peak_bytes - base, (bd.total, norm)
        report: dict = {}
        t0 = time.perf_counter()
        pred = model.forward_infer(self.image, self.grid, self.params,
                                   self.settings, mode=self.spec.mode,
                                   mem_report=report)
        self.confusion.accumulate(pred, self.labels)
        dt = time.perf_counter() - t0
        return dt, report["transient_bytes"], (pred,)

    def check(self, out: tuple, transient: int, first: bool = False) -> Optional[str]:
        """None when the output passes, else a one-line reason."""
        if self.spec.mode is None:
            loss, norm = out
            if not math.isfinite(loss):
                return f"loss {loss} is not finite"
            if first:
                if not math.isfinite(norm):
                    return f"gradient norm {norm} is not finite"
                ref = self.reference
                if ref is not None:
                    for key, got in (("loss", loss), ("grad_norm", norm)):
                        want = ref[key]
                        if abs(got - want) > LOSS_RTOL * abs(want):
                            return f"first-step {key} {got!r} != reference {want!r}"
            return None

        (pred,) = out
        side, k = self.spec.side, CFG.num_classes
        if pred.shape != (side, side) or not np.issubdtype(pred.dtype, np.integer):
            return f"class map has shape {pred.shape} dtype {pred.dtype}"
        if pred.min() < 0 or pred.max() >= k:
            return f"class map values outside 0..{k - 1}"
        if self.expected is None:
            self.expected = (unpack_map(self.reference["map"], side)
                             if self.reference is not None else pred.copy())
        agree = np.count_nonzero(pred == self.expected) / pred.size
        if agree < MAP_AGREEMENT:
            source = "reference" if self.reference is not None else "first op"
            return f"class map agrees with the {source} on {agree:.4%} of pixels"
        if self.flat_transient is not None and transient != self.flat_transient:
            return (f"patch transient {transient} B differs from the "
                    f"{FLAT_SIDE} px value {self.flat_transient} B")
        return None
