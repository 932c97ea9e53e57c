"""Release gate: ten pinned end-to-end checks.

Each check prints one [PASS]/[FAIL] line with its measured numbers so a
log scan shows the whole gate at a glance. Thresholds and budgets are
frozen; loosening one to make a run pass defeats the point of the file.
The two training checks (07, 08) dominate the runtime at roughly ten
minutes combined on one core.
"""

import math
import os
import time

import numpy as np
import pytest

from dualseg import autodiff as ad
from dualseg.attention import AttentionMask, cross_fuse, scaled_dot_attention
from dualseg.autodiff import Tensor
from dualseg.harness.checkpoint import load_checkpoint
from dualseg.harness.config import RunConfig, preset_ablation, preset_convergence
from dualseg.harness.data import gen_data
from dualseg.harness.train import (ablate, bench_memory, eval_model_on_dir,
                                   run_gradcheck, train_run)
from dualseg.metrics import ConfusionMatrix
from dualseg.model import (BackboneConfig, ModelParams, TrainSettings,
                           focal_loss, forward_train)
from dualseg.tiling import extract_patch, plan_grid, stitch
from dualseg import cli


def _gate(label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
    print(line)
    assert ok, line


def _softmax_np(scores):
    m = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - m)
    return e / e.sum(axis=1, keepdims=True)


def _attention_np(q, k, v, allowed=None):
    scores = (q @ k.T) / math.sqrt(q.shape[1])
    if allowed is not None:
        scores = np.where(allowed, scores, -np.inf)
    return _softmax_np(scores) @ v


def _rand_mask(rng, rows, cols):
    allowed = rng.random((rows, cols)) < 0.5
    allowed[np.arange(rows), rng.integers(0, cols, size=rows)] = True
    return allowed


@pytest.fixture(scope="module")
def synth_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("synth"))
    gen_data(root, 48, 12, size=64, num_classes=3, seed=0)
    return root


def test_01_attention_matches_bruteforce():
    rng = np.random.default_rng(20240614)
    t0 = time.perf_counter()
    worst = 0.0
    for case in range(200):
        n_q, n_k = (int(x) for x in rng.integers(1, 7, size=2))
        d = int(rng.integers(1, 5))
        q, k = rng.normal(size=(n_q, d)), rng.normal(size=(n_k, d))
        v = rng.normal(size=(n_k, d))
        kind = case % 3
        allowed = (None if kind == 0
                   else _rand_mask(rng, 1 if kind == 2 else n_q, n_k))
        mask = None if allowed is None else AttentionMask(allowed)
        got = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v), mask).data
        worst = max(worst, float(np.abs(got - _attention_np(q, k, v, allowed)).max()))

        n_g, n_l = (int(x) for x in rng.integers(1, 7, size=2))
        g = {s: rng.normal(size=(n_g, d)) for s in "qkv"}
        l = {s: rng.normal(size=(n_l, d)) for s in "qkv"}
        a_gl = None if kind == 0 else _rand_mask(rng, n_g, n_l)
        a_lg = None if kind == 0 else _rand_mask(rng, 1 if kind == 2 else n_l, n_g)
        fused_g, fused_l = cross_fuse(
            Tensor(g["q"]), Tensor(l["k"]), Tensor(l["v"]),
            Tensor(l["q"]), Tensor(g["k"]), Tensor(g["v"]),
            mask_gl=None if a_gl is None else AttentionMask(a_gl),
            mask_lg=None if a_lg is None else AttentionMask(a_lg))
        want_g = _attention_np(g["q"], l["k"], l["v"], a_gl) + g["q"]
        want_l = _attention_np(l["q"], g["k"], g["v"], a_lg) + l["q"]
        worst = max(worst, float(np.abs(fused_g.data - want_g).max()),
                    float(np.abs(fused_l.data - want_l).max()))
    elapsed = time.perf_counter() - t0
    _gate("01 attention vs brute force", worst < 1e-10 and elapsed < 5.0,
          f"max abs diff {worst:.3e} over 200 cases "
          f"(< 1e-10) in {elapsed:.2f}s (< 5s)")


def test_02_residual_and_mask_identities():
    rng = np.random.default_rng(7)
    n_g, n_l, d = 5, 6, 4
    q_g, k_g = rng.normal(size=(n_g, d)), rng.normal(size=(n_g, d))
    q_l, k_l = rng.normal(size=(n_l, d)), rng.normal(size=(n_l, d))
    fused_g, fused_l = cross_fuse(
        Tensor(q_g), Tensor(k_l), Tensor(np.zeros((n_l, d))),
        Tensor(q_l), Tensor(k_g), Tensor(np.zeros((n_g, d))))
    diff_g = float(np.abs(fused_g.data - q_g).max())
    diff_l = float(np.abs(fused_l.data - q_l).max())

    q, k, v = (rng.normal(size=(n, d)) for n in (5, 6, 6))
    plain = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v))
    full = scaled_dot_attention(Tensor(q), Tensor(k), Tensor(v),
                                AttentionMask(np.ones((5, 6), dtype=bool)))
    bitwise = plain.data.tobytes() == full.data.tobytes()
    _gate("02 residual and mask identities",
          diff_g == 0.0 and diff_l == 0.0 and bitwise,
          f"zero-value residual max diff {max(diff_g, diff_l):.1e} (== 0), "
          f"all-true mask bit-identical: {bitwise}")


def test_03_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 3))
    m34 = rng.normal(size=(3, 4))
    pos = rng.uniform(0.5, 2.0, (2, 3))
    # keep rectifier inputs well away from the kink at 0
    away = rng.uniform(0.25, 1.0, (2, 3)) * rng.choice([-1.0, 1.0], (2, 3))
    img = rng.normal(size=(2, 6, 6))
    kern = rng.normal(size=(3, 2, 3, 3)) * 0.5
    keep = _rand_mask(rng, 2, 3)
    cases = [
        ("add", lambda x, y: ad.add(x, y), (a, b)),
        ("sub", lambda x, y: ad.sub(x, y), (a, b)),
        ("mul", lambda x, y: ad.mul(x, y), (a, b)),
        ("scale", lambda x: ad.scale(x, 1.7), (a,)),
        ("relu", lambda x: ad.relu(x), (away,)),
        ("log", lambda x: ad.log(x), (pos,)),
        ("power", lambda x: ad.power(x, 2.5), (pos,)),
        ("sqrt", lambda x: ad.sqrt(x), (pos,)),
        ("sum_all", lambda x: ad.sum_all(x), (a,)),
        ("mean_all", lambda x: ad.mean_all(x), (a,)),
        ("transpose", lambda x: ad.transpose(x), (a,)),
        ("reshape", lambda x: ad.reshape(x, (3, 2)), (a,)),
        ("concat_channels", lambda x, y: ad.concat_channels([x, y]), (img, img)),
        ("matmul", lambda x, y: ad.matmul(x, y), (a, m34)),
        ("masked_fill", lambda x: ad.masked_fill(x, keep, -3.0), (a,)),
        ("softmax_rows", lambda x: ad.softmax_rows(x), (a,)),
        ("conv2d", lambda x, k: ad.conv2d(x, k, padding=1), (img, kern)),
        ("avg_pool2d", lambda x: ad.avg_pool2d(x, 2), (img,)),
        ("bilinear_resize", lambda x: ad.bilinear_resize(x, 9, 5), (img,)),
    ]
    per_op = {}
    for name, fn, inputs in cases:
        per_op[name] = ad.gradcheck(fn, inputs, epsilon=1e-5)
    worst_name = max(per_op, key=per_op.get)
    report = run_gradcheck()
    elapsed = time.perf_counter() - t0
    _gate("03 gradient suite",
          per_op[worst_name] < 1e-5 and report["max_rel_err"] < 1e-4
          and elapsed < 60.0,
          f"per-op worst {per_op[worst_name]:.3e} ({worst_name}, < 1e-5), "
          f"end-to-end {report['max_rel_err']:.3e} over "
          f"{report['parameters']} params (< 1e-4), {elapsed:.1f}s (< 60s)")


def test_04_tiling_roundtrip():
    rng = np.random.default_rng(42)
    t0 = time.perf_counter()
    exact = True
    covered = True
    for case in range(50):
        if case < 2:   # degenerate corners: exact fit, heavy clamping
            h, w, patch, overlap = [(5, 5, 5, 0), (7, 5, 4, 2)][case]
        else:
            h, w = (int(x) for x in rng.integers(8, 65, size=2))
            patch = int(rng.integers(4, min(h, w) + 1))
            overlap = int(rng.integers(0, patch // 2 + 1))
        channels = int(rng.integers(1, 4))
        image = rng.normal(size=(channels, h, w))
        grid = plan_grid(h, w, patch, overlap)
        tiles = [Tensor(extract_patch(image, grid, i))
                 for i in range(grid.n_tiles)]
        out = stitch(tiles, grid)
        exact = exact and np.array_equal(out.data, image)
        count = np.zeros((h, w), dtype=np.int64)
        for r, c in grid.origins:
            count[r:r + patch, c:c + patch] += 1
        covered = covered and bool((count >= 1).all())
    big = plan_grid(2448, 2448, 500, 50)
    rows = sorted({r for r, _ in big.origins})
    cols = sorted({c for _, c in big.origins})
    big_ok = (big.n_tiles == 36 and len(rows) == 6 and len(cols) == 6
              and big.origins[-1] == (1948, 1948))
    elapsed = time.perf_counter() - t0
    _gate("04 tiling round-trip",
          exact and covered and big_ok and elapsed < 5.0,
          f"50 configs exact={exact} covered={covered}, "
          f"2448/500/50 -> {big.n_tiles} tiles (6x6, last origin "
          f"{big.origins[-1]}), {elapsed:.2f}s (< 5s)")


def test_05_metrics_match_set_oracle():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    for _ in range(100):
        k = int(rng.integers(1, 5))
        h, w = (int(x) for x in rng.integers(1, 17, size=2))
        pred = rng.integers(0, k, size=(h, w))
        gt = rng.integers(0, k, size=(h, w))
        cm = ConfusionMatrix(k).accumulate(pred, gt)
        want_iou = []
        for c in range(k):
            tp = int(np.count_nonzero((pred == c) & (gt == c)))
            fp = int(np.count_nonzero((pred == c) & (gt != c)))
            fn = int(np.count_nonzero((pred != c) & (gt == c)))
            want_iou.append(float(tp) / (tp + fp + fn)
                            if tp + fp + fn > 0 else None)
        assert cm.iou_per_class() == want_iou
        defined = [v for v in want_iou if v is not None]
        assert cm.miou() == (sum(defined) / len(defined) if defined else 0.0)
        assert cm.overall_accuracy() == int((pred == gt).sum()) / pred.size
    elapsed = time.perf_counter() - t0
    _gate("05 metrics vs set oracle", elapsed < 5.0,
          f"IoU/mIoU/OA exact on 100 random maps, {elapsed:.2f}s (< 5s)")


def test_06_loss_constants():
    settings = TrainSettings()
    defaults_ok = (settings.focal_gamma == 6.0
                   and settings.coupling_lambda == 0.15
                   and RunConfig().focal_gamma == 6.0
                   and RunConfig().coupling_lambda == 0.15)

    rng = np.random.default_rng(3)
    backbone = BackboneConfig((4, 4), (True, True), 4)
    params = ModelParams(backbone, 2, rng=rng)
    image = rng.random((3, 16, 16))
    labels = rng.integers(0, 2, size=(16, 16))
    grid = plan_grid(16, 16, 8, 4)
    _, bd = forward_train(image, labels, grid, params, settings)
    want = (bd.main + bd.aux_global) + bd.aux_local
    want = want + settings.coupling_lambda * bd.coupling
    unit_weights = bd.total == want

    logits = Tensor(rng.normal(size=(3, 5, 4)))
    targets = rng.integers(0, 3, size=(5, 4))
    p = _softmax_np(logits.data.reshape(3, -1).T).T.reshape(3, 5, 4)
    p_t = np.take_along_axis(p, targets[None], axis=0)[0]
    ce = float(-np.log(p_t).mean())
    gamma0_diff = abs(float(focal_loss(logits, targets, 0.0).data) - ce)

    half = focal_loss(Tensor(np.zeros((2, 1, 1))),
                      np.zeros((1, 1), dtype=np.int64), 6.0)
    single_diff = abs(float(half.data) - 0.5 ** 6 * math.log(2.0))
    _gate("06 loss constants",
          defaults_ok and unit_weights and gamma0_diff < 1e-12
          and single_diff < 1e-12,
          f"defaults gamma=6 lambda=0.15: {defaults_ok}, unit-weight sum "
          f"bitwise: {unit_weights}, gamma=0 vs CE {gamma0_diff:.1e} "
          f"(< 1e-12), half-confidence pixel {single_diff:.1e} (< 1e-12)")


@pytest.mark.slow
def test_07_desk_scale_convergence(synth_root, tmp_path):
    cfg = preset_convergence()
    t0 = time.perf_counter()
    run_dir = str(tmp_path / "run")
    train_run(cfg, os.path.join(synth_root, "train"), run_dir,
              deterministic=True)
    _, params, _ = load_checkpoint(os.path.join(run_dir, "ckpt.json"))
    miou = eval_model_on_dir(cfg, params, os.path.join(synth_root, "val"))
    elapsed = time.perf_counter() - t0
    _gate("07 desk-scale convergence",
          miou >= 0.85 and elapsed < 600.0,
          f"held-out mIoU {miou:.4f} (>= 0.85) after {cfg.steps} steps "
          f"in {elapsed:.0f}s (< 600s)")


@pytest.mark.slow
def test_08_ablation_ordering(synth_root, tmp_path):
    cfg = preset_ablation()
    t0 = time.perf_counter()
    results = ablate(cfg, synth_root, str(tmp_path / "ablation.csv"),
                     n_seeds=5, log=lambda _: None)
    full = results["full"]

    def wins(other):
        return sum(f >= o for f, o in zip(full, results[other]))

    w_neither = wins("neither")
    w_mask = wins("mask_only")
    w_sa = wins("self_attn_only")
    elapsed = time.perf_counter() - t0
    _gate("08 ablation ordering",
          w_neither >= 4 and w_mask >= 3 and w_sa >= 3,
          f"full >= neither {w_neither}/5 (need 4), >= mask-only "
          f"{w_mask}/5 (need 3), >= self-attn-only {w_sa}/5 (need 3); "
          f"full={[round(float(v), 4) for v in full]}, {elapsed:.0f}s")


def test_09_memory_scaling():
    t0 = time.perf_counter()
    report = bench_memory()
    elapsed = time.perf_counter() - t0
    ok = (report["patch_growth"] < 1.25
          and report["global_growth"] >= 3.0
          and report["patch_below_global_at_large"]
          and elapsed < 120.0)
    _gate("09 memory scaling", ok,
          f"patch transient x{report['patch_growth']:.2f} (< 1.25), "
          f"global x{report['global_growth']:.2f} (>= 3), patch < global "
          f"at 256^2: {report['patch_below_global_at_large']}, "
          f"{elapsed:.0f}s (< 120s)")


def test_10_determinism(tmp_path):
    cfg_file = tmp_path / "micro.cfg"
    cfg_file.write_text(
        "stage_channels = 4,4\nd_model = 4\nglobal_size = 8\n"
        "steps = 2\ntrain_scenes = 2\nval_scenes = 1\n")

    def run_twice(args_fn, out_a, out_b):
        assert cli.main(args_fn(out_a)) == 0
        assert cli.main(args_fn(out_b)) == 0

    run_twice(lambda out: ["gen-data", "--config", str(cfg_file),
                           "--seed", "0", "--out", out],
              str(tmp_path / "data_a"), str(tmp_path / "data_b"))
    data_same = True
    for split in ("train", "val"):
        a_dir = tmp_path / "data_a" / split
        b_dir = tmp_path / "data_b" / split
        names = sorted(p.name for p in a_dir.iterdir())
        data_same = data_same and names == sorted(
            p.name for p in b_dir.iterdir())
        for name in names:
            data_same = data_same and (
                (a_dir / name).read_bytes() == (b_dir / name).read_bytes())

    run_twice(lambda out: ["train", "--config", str(cfg_file), "--seed", "0",
                           "--deterministic",
                           "--data", str(tmp_path / "data_a" / "train"),
                           "--out", out],
              str(tmp_path / "run_a"), str(tmp_path / "run_b"))
    train_same = all(
        (tmp_path / "run_a" / name).read_bytes()
        == (tmp_path / "run_b" / name).read_bytes()
        for name in ("log.jsonl", "ckpt.json"))
    _gate("10 determinism",
          data_same and train_same,
          f"gen-data byte-identical: {data_same}, train log+checkpoint "
          f"byte-identical: {train_same}")
