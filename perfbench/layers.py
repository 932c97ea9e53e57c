"""Outside-in tracing of dualseg for the traced run.

`Instrumentation.install` replaces public attributes of the dualseg
modules with wrappers that open a span around each call; `uninstall`
puts the originals back. The program itself is not edited: autodiff ops
are patched on `dualseg.autodiff` (model.py and attention.py call them as
``ad.<op>``), and the names model.py binds with ``from ... import`` are
patched on `dualseg.model`. Only the traced run imports this module.

Backward work is reached through `GradTape.record`: each backward closure
is wrapped at record time and timed under the op named by its
``__qualname__`` (``conv2d.<locals>.bw`` -> ``conv2d``), tagged with the
model stage that was innermost when its forward ran.
"""

from __future__ import annotations

import functools

import dualseg.autodiff as ad
from dualseg import attention, metrics, model, tiling
from dualseg.harness import checkpoint, data, netpbm
from dualseg.memory import LEDGER

from spans import summarize

AUTODIFF_OPS = ("add", "sub", "mul", "scale", "relu", "log", "power", "sqrt",
                "sum_all", "mean_all", "transpose", "reshape",
                "concat_channels", "matmul", "masked_fill", "softmax_rows",
                "conv2d", "avg_pool2d", "bilinear_resize")
NAMED_OPS = ("conv2d", "matmul", "softmax_rows", "bilinear_resize")
STAGES = ("global_backbone", "local_backbone", "self_attention", "fusion",
          "loss", "aggregation")
# span name -> the model stage it opens; aggregation is whatever the
# forward pass does outside the other stages
STAGE_OF_SPAN = {f"model.{s}": s for s in STAGES[:-1]}
STAGE_OF_SPAN["model.forward"] = "aggregation"

MB = 1e6


def _per_layer_units() -> dict[str, str]:
    units = {"autodiff.ops": "count"}
    units.update({f"autodiff.{op}.fwd_ms": "ms" for op in NAMED_OPS})
    units.update({"autodiff.backward_ms": "ms", "autodiff.tape_records": "count"})
    units.update({f"autodiff.{op}.bwd_ms": "ms" for op in NAMED_OPS})
    units.update({
        "autodiff.accumulate_grad_ms": "ms",
        "autodiff.accumulate_grad_calls": "count",
        "attention.sdpa_ms": "ms", "attention.sdpa_calls": "count",
        "attention.score_mb": "MB", "attention.mask_kept_frac": "ratio",
        "attention.build_patch_mask_ms": "ms",
        "tiling.tiles": "count", "tiling.coverage": "ratio",
        "tiling.extract_patch_ms": "ms", "tiling.stitch_ms": "ms",
        "tiling.accumulate_ms": "ms"})
    for stage in STAGES:
        units[f"model.{stage}.fwd_ms"] = "ms"
        units[f"model.{stage}.bwd_ms"] = "ms"
    units.update({
        "model.adam_ms": "ms", "model.tile_passes": "ratio",
        "memory.allocs": "count", "memory.alloc_mb": "MB",
        "metrics.accumulate_ms": "ms",
        "harness.data.generate_ms": "ms", "harness.netpbm.write_ms": "ms",
        "harness.netpbm.read_ms": "ms", "harness.checkpoint.save_ms": "ms",
        "harness.checkpoint.load_ms": "ms",
        "trace.overhead": "ratio"})
    return units


PER_LAYER_UNITS = _per_layer_units()


class Instrumentation:
    """The set of dualseg patches that feed one Tracer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.grid = None          # last TileGrid seen by extract_patch
        self._saved: list[tuple[object, str, bool, object]] = []

    # -- patching -----------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        own = vars(owner)
        had = attr in own
        self._saved.append((owner, attr, had, own.get(attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, owner, attr: str, name, before=None) -> None:
        """Wrap `owner.attr` in a span named `name`, or `name(*args)` when
        it is callable; `before(*args)` sees each call's arguments first."""
        fn = getattr(owner, attr)
        begin, end = self.tracer.begin, self.tracer.end
        name_of = name if callable(name) else (lambda *args, **kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            span = begin(name_of(*args, **kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                end(span)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        tracer, counts = self.tracer, self.tracer.counts
        begin, end = tracer.begin, tracer.end
        for op in AUTODIFF_OPS:
            self._spanned(ad, op, f"autodiff.{op}.fwd")
        self._spanned(ad.GradTape, "backward", "autodiff.backward")
        self._spanned(ad.Tensor, "accumulate_grad", "autodiff.accumulate_grad")

        record = ad.GradTape.record

        @functools.wraps(record)
        def traced_record(tape, output, backward_fn):
            counts["autodiff.tape_records"] += 1
            name = f"autodiff.{backward_fn.__qualname__.split('.', 1)[0]}.bwd"
            stage = tracer.innermost(STAGE_OF_SPAN) or ""

            def timed_backward(g):
                span = begin(name, stage)
                try:
                    backward_fn(g)
                finally:
                    end(span)

            record(tape, output, timed_backward)

        self._patch(ad.GradTape, "record", traced_record)

        on_alloc = LEDGER.on_alloc

        @functools.wraps(on_alloc)
        def counted_alloc(nbytes):
            counts["memory.allocs"] += 1
            counts["memory.alloc_bytes"] += nbytes
            on_alloc(nbytes)

        self._patch(LEDGER, "on_alloc", counted_alloc)

        def count_scores(q, k, v, mask=None):
            scored = q.shape[0] * k.shape[0]
            counts["attention.scored"] += scored
            if mask is not None:
                rows = q.shape[0] if mask.shape[0] == 1 else 1
                counts["attention.masked_scored"] += scored
                counts["attention.masked_kept"] += int(mask.allowed.sum()) * rows

        def capture_grid(image, grid, *args, **kwargs):
            self.grid = grid

        self._spanned(attention, "scaled_dot_attention", "attention.sdpa",
                      before=count_scores)
        self._spanned(model, "backbone_forward",
                      lambda x, params, branch, *args, **kwargs:
                      "model.global_backbone" if branch == "g"
                      else "model.local_backbone")
        self._spanned(model, "extract_patch", "tiling.extract_patch",
                      before=capture_grid)
        # build_patch_mask gets two spans: its own layer's, inside fusion's
        self._spanned(model, "build_patch_mask", "attention.build_patch_mask")
        for attr, name in (("refine_tokens", "model.self_attention"),
                           ("project_qkv", "model.fusion"),
                           ("cross_fuse", "model.fusion"),
                           ("build_patch_mask", "model.fusion"),
                           ("focal_loss", "model.loss"),
                           ("coupling_penalty", "model.loss"),
                           ("stitch", "tiling.stitch"),
                           ("forward_train", "model.forward"),
                           ("forward_infer", "model.forward")):
            self._spanned(model, attr, name)
        self._spanned(model.Adam, "step", "model.adam")
        self._spanned(tiling.StitchAccumulator, "add", "tiling.accumulate")
        self._spanned(metrics.ConfusionMatrix, "accumulate", "metrics.accumulate")
        self._spanned(data, "generate_scene", "harness.data.generate")
        for attr in ("write_ppm", "write_pgm"):
            self._spanned(netpbm, attr, "harness.netpbm.write")
        for attr in ("read_ppm", "read_pgm"):
            self._spanned(netpbm, attr, "harness.netpbm.read")
        self._spanned(checkpoint, "save_checkpoint", "harness.checkpoint.save")
        self._spanned(checkpoint, "load_checkpoint", "harness.checkpoint.load")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, had, original = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- per-layer values ---------------------------------------------

    def start_op(self, op: int) -> None:
        self.grid = None
        self.tracer.start_op(op)

    def op_metrics(self) -> dict[str, float]:
        """Close the op in progress and return its per-layer values."""
        counts = dict(self.tracer.counts)
        spans = self.tracer.end_op()
        table = summarize(spans)

        def self_ms(name):
            return table[name][2] / 1e6 if name in table else 0.0

        def calls(name):
            return table[name][0] if name in table else 0

        m = {"autodiff.ops": sum(row[0] for name, row in table.items()
                                 if name.startswith("autodiff.")
                                 and name.endswith(".fwd"))}
        for op in NAMED_OPS:
            m[f"autodiff.{op}.fwd_ms"] = self_ms(f"autodiff.{op}.fwd")
            m[f"autodiff.{op}.bwd_ms"] = self_ms(f"autodiff.{op}.bwd")
        m["autodiff.backward_ms"] = (table["autodiff.backward"][1] / 1e6
                                     if "autodiff.backward" in table else 0.0)
        m["autodiff.tape_records"] = counts.get("autodiff.tape_records", 0)
        m["autodiff.accumulate_grad_ms"] = self_ms("autodiff.accumulate_grad")
        m["autodiff.accumulate_grad_calls"] = calls("autodiff.accumulate_grad")

        m["attention.sdpa_ms"] = self_ms("attention.sdpa")
        m["attention.sdpa_calls"] = calls("attention.sdpa")
        m["attention.score_mb"] = counts.get("attention.scored", 0) * 8 / MB
        masked = counts.get("attention.masked_scored", 0)
        m["attention.mask_kept_frac"] = (
            counts.get("attention.masked_kept", 0) / masked if masked else 1.0)
        m["attention.build_patch_mask_ms"] = self_ms("attention.build_patch_mask")

        grid = self.grid
        tiles = grid.n_tiles if grid is not None else 0
        m["tiling.tiles"] = tiles
        m["tiling.coverage"] = (tiles * grid.patch ** 2
                                / (grid.image_h * grid.image_w)
                                if grid is not None else 0.0)
        m["tiling.extract_patch_ms"] = self_ms("tiling.extract_patch")
        m["tiling.stitch_ms"] = self_ms("tiling.stitch")
        m["tiling.accumulate_ms"] = self_ms("tiling.accumulate")

        bwd_ns = dict.fromkeys(STAGES, 0)
        for _, _, name, t0, t1, stage in spans:
            if stage:
                bwd_ns[stage] += t1 - t0
        for stage in STAGES:
            span = "model.forward" if stage == "aggregation" else f"model.{stage}"
            m[f"model.{stage}.fwd_ms"] = self_ms(span)
            m[f"model.{stage}.bwd_ms"] = bwd_ns[stage] / 1e6
        m["model.adam_ms"] = self_ms("model.adam")
        m["model.tile_passes"] = (calls("model.local_backbone") / tiles
                                  if tiles else 0.0)

        m["memory.allocs"] = counts.get("memory.allocs", 0)
        m["memory.alloc_mb"] = counts.get("memory.alloc_bytes", 0) / MB
        m["metrics.accumulate_ms"] = self_ms("metrics.accumulate")
        return m

    def setup_metrics(self) -> dict[str, float]:
        """Close the traced set-up (op 0) and return its harness timings."""
        table = summarize(self.tracer.end_op())
        return {f"{name}_ms": table[name][2] / 1e6 if name in table else 0.0
                for name in ("harness.data.generate", "harness.netpbm.write",
                             "harness.netpbm.read", "harness.checkpoint.save",
                             "harness.checkpoint.load")}
