"""The benchmark's tracer still fits the program.

`perfbench/layers.py` patches dualseg by attribute name, so deleting or
renaming an op, stage function or method in `src/` breaks the traced run
(`perfbench/run.py --trace 1`) without failing any program test. This
installs the tracer, runs a micro training step and both inference
modes through it, checks the per-layer values, and checks that
uninstalling puts every patched attribute back.
"""

import math
import os

import numpy as np
import pytest

import dualseg.autodiff as ad
from dualseg import attention, metrics, model, tiling
from dualseg.harness import checkpoint, data, netpbm
from dualseg.memory import LEDGER
from dualseg.tiling import plan_grid

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")

# everything layers.py may patch: modules, classes and the ledger
OWNERS = (ad, ad.GradTape, ad.Tensor, attention, model, model.Adam, tiling,
          tiling.StitchAccumulator, metrics, metrics.ConfusionMatrix,
          checkpoint, data, netpbm, LEDGER)
# filled in by `setup_metrics` or by run.py itself, never by `op_metrics`
NOT_PER_OP = {"harness.data.generate_ms", "harness.netpbm.write_ms",
              "harness.netpbm.read_ms", "harness.checkpoint.save_ms",
              "harness.checkpoint.load_ms", "trace.overhead"}


@pytest.fixture
def tracing(monkeypatch):
    """An installed Instrumentation; uninstalled and audited afterwards."""
    monkeypatch.syspath_prepend(BENCH_DIR)
    import layers
    import spans

    before = [dict(vars(owner)) for owner in OWNERS]
    inst = layers.Instrumentation(spans.Tracer())
    inst.install()
    try:
        patched = {id(owner) for owner, *_ in inst._saved}
        assert patched <= {id(owner) for owner in OWNERS}
        yield inst, layers.PER_LAYER_UNITS
    finally:
        inst.uninstall()
    for owner, saved in zip(OWNERS, before):
        # data attributes (the ledger's counters) may move; code may not
        now = vars(owner)
        changed = sorted(k for k in set(saved) | set(now)
                         if k not in now or k not in saved
                         or callable(saved[k]) and now[k] is not saved[k])
        assert changed == [], f"{owner!r}: not restored: {changed}"


def micro_model(side=16):
    rng = np.random.default_rng(0)
    backbone = model.BackboneConfig((4, 4), (True, True), 4)
    params = model.ModelParams(backbone, 2, rng=rng)
    image = rng.random((3, side, side))
    labels = rng.integers(0, 2, size=(side, side))
    return params, image, labels, model.TrainSettings(global_size=8)


def traced_op(inst, units, run):
    inst.start_op(1)
    run()
    m = inst.op_metrics()
    assert set(m) == set(units) - NOT_PER_OP
    assert all(math.isfinite(v) for v in m.values())
    return m


def test_train_step_is_traced(tracing):
    inst, units = tracing
    params, image, labels, settings = micro_model()
    grid = plan_grid(16, 16, 8, 4)
    opt = model.Adam(params.named())

    def step():
        opt.zero_grads()
        with ad.GradTape() as tape:
            _, bd = model.forward_train(image, labels, grid, params, settings)
        tape.backward(bd.total_tensor)
        opt.step()

    m = traced_op(inst, units, step)
    assert m["tiling.tiles"] == grid.n_tiles
    assert m["model.tile_passes"] == 1.0
    assert m["autodiff.ops"] > 0 and m["autodiff.tape_records"] > 0
    assert m["autodiff.backward_ms"] > 0.0
    # backward spans are named by each op's own `bw` closure; a renamed
    # or shared closure zeroes these
    for op in ("autodiff.bilinear_resize.fwd_ms",
               "autodiff.bilinear_resize.bwd_ms", "autodiff.conv2d.bwd_ms"):
        assert m[op] > 0.0, op
    assert m["autodiff.accumulate_grad_calls"] > 0
    # one global self-attention, per tile one local and two fusion calls
    assert m["attention.sdpa_calls"] == 1 + 3 * grid.n_tiles
    assert 0.0 < m["attention.mask_kept_frac"] <= 1.0
    assert m["model.adam_ms"] > 0.0 and m["model.loss.fwd_ms"] > 0.0


@pytest.mark.parametrize("mode", ["patch", "global"])
def test_inference_is_traced(tracing, mode):
    inst, units = tracing
    params, image, _, settings = micro_model()
    grid = plan_grid(16, 16, 8, 4) if mode == "patch" else None
    report = {}

    def infer():
        model.forward_infer(image, grid, params, settings, mode=mode,
                            mem_report=report)

    m = traced_op(inst, units, infer)
    assert m["tiling.tiles"] == (grid.n_tiles if grid else 1)
    assert m["model.tile_passes"] == 1.0
    assert m["autodiff.tape_records"] == 0
    assert m["attention.sdpa_calls"] > 0
    assert m["model.aggregation.fwd_ms"] > 0.0
    assert report["transient_bytes"] > 0
