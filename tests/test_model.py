"""Model-level tests: backbone, losses, dual-branch passes, Adam.

Oracles here are plain numpy re-derivations (softmax/log by hand, scalar
Adam recurrence); expected values were computed once from those oracles
and the comparisons pinned at 1e-12 unless byte equality is promised.
"""

import math

import numpy as np
import pytest

import dualseg.autodiff as ad
import dualseg.model as model
from dualseg.attention import project_qkv
from dualseg.autodiff import GradTape, Tensor
from dualseg.errors import DataError, DimensionError, UsageError
from dualseg.model import (
    Adam,
    BackboneConfig,
    ModelParams,
    TrainSettings,
    backbone_forward,
    coupling_penalty,
    downsample_labels_nn,
    focal_loss,
    forward_infer,
    forward_train,
    map_from_tokens,
    tokens_from_map,
)
from dualseg.tiling import plan_grid


# ---------------------------------------------------------------------------
# oracles


def softmax_np(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def focal_oracle(logits, targets, gamma):
    """Mean of -(1-p_t)^gamma * log(p_t) over pixels, numpy only."""
    k = logits.shape[0]
    flat = logits.reshape(k, -1).T
    p = softmax_np(flat)
    p_t = p[np.arange(flat.shape[0]), targets.reshape(-1)]
    return float(np.mean(-((1.0 - p_t) ** gamma) * np.log(np.maximum(p_t, 1e-12))))


def ce_oracle(logits, targets):
    return focal_oracle(logits, targets, 0.0)


def adam_oracle(x0, grads, lr, b1, b2, eps):
    """Scalar Adam recurrence, one value per step."""
    x, m, v = float(x0), 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
    return x


def two_pass_infer_oracle(image, grid, params, settings):
    """The two-pass inference path: every tile's local branch runs again
    in pass 2, against the full aggregation kernel over the channel
    concat, and the tile logits are stitched with a Welford mean."""
    h, w = image.shape[1:]
    glb_seq = model._global_tokens(Tensor(image), params, settings)
    q_g, k_g, v_g = project_qkv(glb_seq, params.attn("fuse_g"))
    fused = [model._tile_forward(image, grid, i, glb_seq, q_g, k_g, v_g,
                                 params, settings)[0].data
             for i in range(grid.n_tiles)]
    gh, gw = glb_seq.spatial
    x_glb = np.mean(fused, axis=0).T.reshape(params.backbone.d_model, gh, gw)
    agg_k, agg_b = params.f_agg()
    mean = np.zeros((params.num_classes, h, w))
    count = np.zeros((h, w))
    for i, (r, c) in enumerate(grid.origins):
        _, loc_up = model._tile_forward(image, grid, i, glb_seq, q_g, k_g,
                                        v_g, params, settings)
        glb_win = Tensor(model._global_window(x_glb, h, w, r, c, grid.patch))
        s_agg = ad.conv2d(ad.concat_channels([glb_win, loc_up]), agg_k,
                          padding=1, bias=agg_b).data
        hh, ww = min(grid.patch, h - r), min(grid.patch, w - c)
        count[r:r + hh, c:c + ww] += 1
        mean[:, r:r + hh, c:c + ww] += (
            s_agg[:, :hh, :ww] - mean[:, r:r + hh, c:c + ww]
        ) / count[r:r + hh, c:c + ww]
    return np.argmax(mean, axis=0)


def count_local_backbone_calls(monkeypatch):
    calls = []
    real = model.backbone_forward

    def counted(x, params, branch, *args, **kwargs):
        if branch == "l":
            calls.append(x.shape)
        return real(x, params, branch, *args, **kwargs)

    monkeypatch.setattr(model, "backbone_forward", counted)
    return calls


def micro_setup(seed=0, num_classes=2, h=16, w=16, patch=8, overlap=4,
                global_size=8, **kw):
    rng = np.random.default_rng(seed)
    bb = BackboneConfig((4, 4), (True, True), 4)
    params = ModelParams(bb, num_classes, rng=rng)
    image = rng.random((3, h, w))
    labels = rng.integers(0, num_classes, size=(h, w))
    grid = plan_grid(h, w, patch, overlap)
    settings = TrainSettings(global_size=global_size, **kw)
    return params, image, labels, grid, settings


# ---------------------------------------------------------------------------
# backbone


class TestBackbone:
    def test_identity_kernel_gives_relu_of_input(self):
        bb = BackboneConfig((3,), (False,), 3)
        params = ModelParams(bb, num_classes=2)
        kernel = np.zeros((3, 3, 3, 3))
        for i in range(3):
            kernel[i, i, 1, 1] = 1.0
        params.by_name["backbone_g.0.kernel"] = Tensor(kernel)
        params.by_name["backbone_g.0.bias"] = Tensor(np.zeros(3))
        x = np.random.default_rng(1).standard_normal((3, 5, 7))
        out = backbone_forward(Tensor(x), params, "g")
        assert np.array_equal(out.data, np.maximum(x, 0.0))

    def test_downsample_halves_resolution_per_flag(self):
        bb = BackboneConfig((4, 4), (True, True), 4)
        params = ModelParams(bb, num_classes=2)
        out = backbone_forward(Tensor(np.ones((3, 16, 16))), params, "g")
        assert out.shape == (4, 4, 4)

    def test_skip_last_pool_keeps_one_factor(self):
        bb = BackboneConfig((4, 4), (True, True), 4)
        params = ModelParams(bb, num_classes=2)
        out = backbone_forward(Tensor(np.ones((3, 16, 16))), params, "l",
                               skip_last_pool=True)
        assert out.shape == (4, 8, 8)

    def test_stride_arith(self):
        bb = BackboneConfig((2, 2, 4), (True, False, True), 4)
        assert bb.stride() == 4
        assert bb.stride(skip_last_pool=True) == 2

    def test_config_validation(self):
        with pytest.raises(DimensionError):
            BackboneConfig((4, 4), (True,), 4)
        with pytest.raises(DimensionError):
            BackboneConfig((4, 8), (True, True), 4)   # last stage != d_model
        with pytest.raises(DimensionError):
            BackboneConfig((), (), 4)

    def test_tokens_map_round_trip_is_exact(self):
        x = Tensor(np.random.default_rng(2).random((4, 3, 5)))
        back = map_from_tokens(tokens_from_map(x, "global"))
        assert back.data.tobytes() == x.data.tobytes()


class TestDownsampleLabels:
    def test_same_size_is_identity(self):
        lab = np.arange(12).reshape(3, 4)
        assert np.array_equal(downsample_labels_nn(lab, 3, 4), lab)

    def test_picks_cell_centres(self):
        lab = np.arange(16).reshape(4, 4)
        # target cell centres at source rows/cols 1 and 3
        want = np.array([[5, 7], [13, 15]])
        assert np.array_equal(downsample_labels_nn(lab, 2, 2), want)

    def test_no_new_labels_invented(self):
        rng = np.random.default_rng(3)
        lab = rng.integers(0, 5, size=(37, 23))
        small = downsample_labels_nn(lab, 7, 7)
        assert set(np.unique(small)) <= set(np.unique(lab))


# ---------------------------------------------------------------------------
# losses


class TestFocalLoss:
    def test_gamma_zero_equals_cross_entropy(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((3, 6, 5))
        targets = rng.integers(0, 3, size=(6, 5))
        got = focal_loss(Tensor(logits), targets, 0.0).item()
        assert abs(got - ce_oracle(logits, targets)) <= 1e-12

    def test_single_pixel_uniform_two_class_hand_value(self):
        # p_t = 0.5, so the loss is (1/2)^gamma * ln 2
        logits = Tensor(np.full((2, 1, 1), 0.3))
        got = focal_loss(logits, np.zeros((1, 1), dtype=np.int64), 6.0).item()
        assert abs(got - (0.5 ** 6) * math.log(2.0)) <= 1e-12

    def test_confident_correct_prediction_vanishes(self):
        logits = np.zeros((2, 2, 2))
        logits[1] = 40.0
        got = focal_loss(Tensor(logits), np.ones((2, 2), dtype=np.int64), 2.0).item()
        assert 0.0 <= got < 1e-12

    def test_matches_oracle_fractional_gamma(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((4, 7, 3)) * 2.0
        targets = rng.integers(0, 4, size=(7, 3))
        got = focal_loss(Tensor(logits), targets, 2.5).item()
        assert abs(got - focal_oracle(logits, targets, 2.5)) <= 1e-12

    def test_loss_is_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            logits = rng.standard_normal((3, 4, 4)) * 3.0
            targets = rng.integers(0, 3, size=(4, 4))
            assert focal_loss(Tensor(logits), targets, 6.0).item() >= 0.0

    def test_gradcheck_through_softmax_power_log(self):
        rng = np.random.default_rng(7)
        logits = rng.standard_normal((3, 3, 2))
        targets = rng.integers(0, 3, size=(3, 2))
        err = ad.gradcheck(lambda t: focal_loss(t, targets, 2.0), [logits])
        assert err < 1e-5

    def test_validation(self):
        logits = Tensor(np.zeros((2, 3, 3)))
        with pytest.raises(UsageError):
            focal_loss(logits, np.zeros((3, 3), dtype=np.int64), -1.0)
        with pytest.raises(DimensionError):
            focal_loss(Tensor(np.zeros((2, 3))), np.zeros((3,), dtype=np.int64), 1.0)
        with pytest.raises(DataError):
            focal_loss(logits, np.full((3, 3), 5, dtype=np.int64), 1.0)
        with pytest.raises(DataError):
            focal_loss(logits, np.zeros((3, 3)), 1.0)   # float labels


class TestCouplingPenalty:
    def test_identical_maps_give_exact_zero(self):
        x = Tensor(np.random.default_rng(8).random((4, 6, 6)))
        y = Tensor(x.data.copy())
        assert coupling_penalty(x, y).item() == 0.0

    def test_unit_offset_gives_sqrt_n(self):
        a = Tensor(np.zeros((2, 3, 5)))
        b = Tensor(np.ones((2, 3, 5)))
        assert abs(coupling_penalty(a, b).item() - math.sqrt(30)) <= 1e-12

    def test_matches_frobenius_oracle(self):
        rng = np.random.default_rng(9)
        a, b = rng.random((3, 5, 4)), rng.random((3, 5, 4))
        want = float(np.sqrt(((a - b) ** 2).sum()))
        assert abs(coupling_penalty(Tensor(a), Tensor(b)).item() - want) <= 1e-12

    def test_resizes_global_map_first(self):
        rng = np.random.default_rng(10)
        loc = rng.random((2, 8, 8))
        glb = rng.random((2, 4, 4))
        up = ad.bilinear_resize(Tensor(glb), 8, 8).data
        want = float(np.sqrt(((loc - up) ** 2).sum()))
        got = coupling_penalty(Tensor(loc), Tensor(glb)).item()
        assert abs(got - want) <= 1e-12

    def test_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            coupling_penalty(Tensor(np.zeros((2, 4, 4))),
                             Tensor(np.zeros((3, 4, 4))))


# ---------------------------------------------------------------------------
# parameter registry


class TestModelParams:
    EXPECTED = sorted(
        [f"backbone_{b}.{i}.{part}" for b in "gl" for i in range(2)
         for part in ("kernel", "bias")]
        + [f"{k}.{w}" for k in ("sa_g", "sa_l", "fuse_g", "fuse_l")
           for w in ("w_q", "w_k", "w_v")]
        + [f"head_{b}.{part}" for b in "gl" for part in ("kernel", "bias")]
        + ["f_agg.kernel", "f_agg.bias"])

    def make(self):
        return ModelParams(BackboneConfig((4, 4), (True, True), 4), 3)

    def test_name_set(self):
        assert sorted(self.make().named()) == self.EXPECTED

    def test_attn_view_shares_tensors(self):
        p = self.make()
        assert p.attn("sa_g").w_q is p.by_name["sa_g.w_q"]

    def test_from_named_round_trip(self):
        p = self.make()
        q = ModelParams.from_named(p.backbone, 3, p.named())
        assert q.by_name["f_agg.kernel"] is p.by_name["f_agg.kernel"]

    def test_from_named_rejects_missing_and_extra(self):
        p = self.make()
        named = p.named()
        named.pop("head_g.bias")
        named["bogus"] = Tensor(np.zeros(1))
        with pytest.raises(DataError, match="head_g.bias"):
            ModelParams.from_named(p.backbone, 3, named)

    def test_from_named_rejects_bad_shape(self):
        p = self.make()
        named = p.named()
        named["head_g.bias"] = Tensor(np.zeros(7))
        with pytest.raises(DataError, match="head_g.bias"):
            ModelParams.from_named(p.backbone, 3, named)

    def test_zero_grads(self):
        p = self.make()
        p.by_name["f_agg.bias"].grad = np.ones(3)
        p.zero_grads()
        assert p.by_name["f_agg.bias"].grad is None

    def test_needs_at_least_one_class(self):
        with pytest.raises(DimensionError):
            ModelParams(BackboneConfig((4,), (False,), 4), 0)


# ---------------------------------------------------------------------------
# training pass


class TestForwardTrain:
    def test_output_shapes(self):
        params, image, labels, grid, settings = micro_setup()
        out, bd = forward_train(image, labels, grid, params, settings)
        assert out.x_glb.shape == (4, 2, 2)
        assert out.s_glb.shape == (2, 2, 2)
        assert out.x_loc_full.shape == (4, 16, 16)
        assert out.s_agg.shape == (2, 16, 16)
        assert len(out.s_loc) == grid.n_tiles == 9
        assert all(t.shape == (2, 8, 8) for t in out.s_loc)

    def test_total_is_exact_sum_of_parts(self):
        params, image, labels, grid, settings = micro_setup()
        _, bd = forward_train(image, labels, grid, params, settings)
        want = (bd.main + bd.aux_global) + bd.aux_local
        want = want + settings.coupling_lambda * bd.coupling
        assert bd.total == want   # byte-for-byte, same float ops

    def test_total_without_coupling_term(self):
        params, image, labels, grid, settings = micro_setup(coupling_lambda=0.0)
        _, bd = forward_train(image, labels, grid, params, settings)
        assert bd.total == (bd.main + bd.aux_global) + bd.aux_local
        assert bd.coupling > 0.0   # still measured, just not charged

    def test_lambda_does_not_touch_forward_outputs(self):
        params, image, labels, grid, settings = micro_setup()
        out_a, _ = forward_train(image, labels, grid, params, settings)
        settings.coupling_lambda = 0.0
        out_b, _ = forward_train(image, labels, grid, params, settings)
        assert out_a.s_agg.data.tobytes() == out_b.s_agg.data.tobytes()
        assert out_a.x_glb.data.tobytes() == out_b.x_glb.data.tobytes()

    def test_lambda_does_change_gradients(self):
        params, image, labels, grid, settings = micro_setup()
        grads = {}
        for lam in (0.0, 0.15):
            settings.coupling_lambda = lam
            params.zero_grads()
            with GradTape() as tape:
                _, bd = forward_train(image, labels, grid, params, settings)
            tape.backward(bd.total_tensor)
            grads[lam] = params.by_name["backbone_l.0.kernel"].grad.copy()
        assert not np.array_equal(grads[0.0], grads[0.15])

    def test_flag_combinations_give_distinct_outputs(self):
        # 4x4 global token grid keeps the geometric mask non-trivial
        outs = []
        for sa in (True, False):
            for mk in (True, False):
                params, image, labels, grid, settings = micro_setup(
                    global_size=16, use_self_attn=sa, use_mask=mk)
                out, _ = forward_train(image, labels, grid, params, settings)
                outs.append(out.s_agg.data.tobytes())
        assert len(set(outs)) == 4

    def test_components_finite_and_nonnegative(self):
        params, image, labels, grid, settings = micro_setup(seed=11)
        _, bd = forward_train(image, labels, grid, params, settings)
        for v in (bd.main, bd.aux_global, bd.aux_local, bd.coupling, bd.total):
            assert np.isfinite(v) and v >= 0.0

    def test_every_parameter_receives_gradient(self):
        params, image, labels, grid, settings = micro_setup()
        with GradTape() as tape:
            _, bd = forward_train(image, labels, grid, params, settings)
        tape.backward(bd.total_tensor)
        missing = [n for n, t in params.named().items() if t.grad is None]
        assert missing == []

    def test_deterministic_repeat(self):
        params, image, labels, grid, settings = micro_setup(seed=12)
        out_a, bd_a = forward_train(image, labels, grid, params, settings)
        out_b, bd_b = forward_train(image, labels, grid, params, settings)
        assert out_a.s_agg.data.tobytes() == out_b.s_agg.data.tobytes()
        assert bd_a.total == bd_b.total

    def test_short_optimisation_reduces_loss(self):
        params, image, labels, grid, settings = micro_setup(seed=13)
        opt = Adam(params.named(), lr_global=1e-2, lr_local=1e-2)
        first = None
        for _ in range(30):
            opt.zero_grads()
            with GradTape() as tape:
                _, bd = forward_train(image, labels, grid, params, settings)
            tape.backward(bd.total_tensor)
            opt.step()
            first = bd.total if first is None else first
        _, bd = forward_train(image, labels, grid, params, settings)
        assert bd.total < 0.8 * first

    def test_validation(self):
        params, image, labels, grid, settings = micro_setup()
        with pytest.raises(DataError):
            forward_train(image, labels + 5, grid, params, settings)
        with pytest.raises(DimensionError):
            forward_train(image[:2], labels, grid, params, settings)
        with pytest.raises(DimensionError):
            forward_train(image, labels, plan_grid(8, 8, 4, 2), params, settings)


# ---------------------------------------------------------------------------
# inference pass


class TestForwardInfer:
    def test_single_class_predicts_zero(self):
        params, image, _, grid, settings = micro_setup(num_classes=1)
        pred = forward_infer(image, grid, params, settings)
        assert pred.shape == (16, 16) and not pred.any()

    def test_all_equal_logits_break_ties_low(self):
        params, image, _, grid, settings = micro_setup(num_classes=3, seed=14)
        params.by_name["f_agg.kernel"] = Tensor(np.zeros((3, 8, 3, 3)))
        params.by_name["f_agg.bias"] = Tensor(np.zeros(3))
        pred = forward_infer(image, grid, params, settings)
        assert not pred.any()

    def test_single_tile_matches_training_head(self):
        params, image, labels, _, settings = micro_setup()
        grid = plan_grid(16, 16, 16, 0)
        out, _ = forward_train(image, labels, grid, params, settings)
        want = np.argmax(out.s_agg.data, axis=0)
        pred = forward_infer(image, grid, params, settings, mode="patch")
        assert np.array_equal(pred, want)

    def test_global_mode_equals_single_tile_patch_mode(self):
        params, image, _, _, settings = micro_setup(seed=15)
        grid = plan_grid(16, 16, 16, 0)
        a = forward_infer(image, grid, params, settings, mode="patch")
        b = forward_infer(image, None, params, settings, mode="global")
        assert np.array_equal(a, b)

    def test_overlapping_grid_runs_and_fills(self):
        params, image, _, grid, settings = micro_setup(seed=16, num_classes=3)
        pred = forward_infer(image, grid, params, settings)
        assert pred.shape == (16, 16)
        assert pred.dtype == np.int64
        assert pred.min() >= 0 and pred.max() < 3

    def test_deterministic_repeat(self):
        params, image, _, grid, settings = micro_setup(seed=17)
        a = forward_infer(image, grid, params, settings)
        b = forward_infer(image, grid, params, settings)
        assert np.array_equal(a, b)

    def test_mem_report_populated(self):
        params, image, _, grid, settings = micro_setup()
        report = {}
        forward_infer(image, grid, params, settings, mem_report=report)
        assert set(report) == {"baseline_bytes", "peak_bytes", "transient_bytes"}
        assert report["peak_bytes"] >= report["baseline_bytes"] > 0
        assert report["transient_bytes"] > 0

    def test_local_branch_runs_once_per_tile(self, monkeypatch):
        params, image, labels, grid, settings = micro_setup(
            h=40, w=28, patch=16, overlap=4)
        assert grid.n_tiles == 6
        calls = count_local_backbone_calls(monkeypatch)
        forward_infer(image, grid, params, settings, mode="patch")
        assert len(calls) == grid.n_tiles
        calls.clear()
        forward_infer(image, None, params, settings, mode="global")
        assert len(calls) == 1
        calls.clear()
        forward_train(image, labels, grid, params, settings)
        assert len(calls) == grid.n_tiles

    # 40x28: six tiles covering pixels once, twice or four times;
    # 40x12: the image is narrower than the patch, so every tile overhangs
    @pytest.mark.parametrize("h,w", [(40, 28), (40, 12)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_two_pass_oracle(self, seed, h, w):
        params, image, _, grid, settings = micro_setup(
            seed=seed, num_classes=3, h=h, w=w, patch=16, overlap=4)
        assert grid.n_tiles > 1
        # a nonzero bias, so that adding it to both conv halves shows
        params.f_agg()[1].data[:] = np.random.default_rng(seed).normal(
            0.0, 0.1, 3)
        want = two_pass_infer_oracle(image, grid, params, settings)
        got = forward_infer(image, grid, params, settings, mode="patch")
        assert np.array_equal(got, want)

    def test_patch_transient_flat_in_image_size(self):
        transients = []
        for side in (64, 128):
            params, image, _, grid, settings = micro_setup(
                h=side, w=side, patch=16, overlap=4)
            report = {}
            forward_infer(image, grid, params, settings, mem_report=report)
            transients.append(report["transient_bytes"])
        assert transients[0] == transients[1]

    def test_mode_validation(self):
        params, image, _, grid, settings = micro_setup()
        with pytest.raises(UsageError):
            forward_infer(image, grid, params, settings, mode="mosaic")
        with pytest.raises(UsageError):
            forward_infer(image, None, params, settings, mode="patch")


# ---------------------------------------------------------------------------
# optimizer


class TestAdam:
    def test_no_gradient_means_no_movement(self):
        p = {"w": Tensor(np.arange(4.0))}
        before = p["w"].data.copy()
        opt = Adam(p)
        opt.step()
        assert np.array_equal(p["w"].data, before)

    def test_first_step_closed_form(self):
        p = {"w": Tensor(np.array([1.0]))}
        p["w"].grad = np.array([0.5])
        Adam(p, lr_global=1e-3).step()
        # after bias correction the first step is lr * g / (|g| + eps)
        want = 1.0 - 1e-3 * 0.5 / (0.5 + 1e-8)
        assert abs(p["w"].data[0] - want) <= 1e-15

    def test_matches_scalar_recurrence(self):
        rng = np.random.default_rng(18)
        grads = rng.standard_normal(12)
        p = {"w": Tensor(np.array([0.7]))}
        opt = Adam(p, lr_global=3e-3, beta1=0.8, beta2=0.95)
        for g in grads:
            p["w"].grad = np.array([g])
            opt.step()
        want = adam_oracle(0.7, grads, 3e-3, 0.8, 0.95, 1e-8)
        assert abs(p["w"].data[0] - want) <= 1e-12

    def test_constant_gradient_step_size_approaches_lr(self):
        p = {"w": Tensor(np.array([0.0]))}
        opt = Adam(p, lr_global=1e-2)
        for _ in range(400):
            p["w"].grad = np.array([1.0])
            prev = p["w"].data[0]
            opt.step()
        assert abs((prev - p["w"].data[0]) - 1e-2) <= 1e-6

    def test_learning_rate_groups_by_name(self):
        p = {"backbone_l.0.kernel": Tensor(np.array([1.0])),
             "sa_l.w_q": Tensor(np.array([1.0])),
             "head_l.bias": Tensor(np.array([1.0])),
             "fuse_g.w_q": Tensor(np.array([1.0])),
             "f_agg.kernel": Tensor(np.array([1.0]))}
        opt = Adam(p, lr_global=1e-4, lr_local=2e-5)
        for t in p.values():
            t.grad = np.array([1.0])
        opt.step()
        moved = {n: 1.0 - t.data[0] for n, t in p.items()}
        for name in ("backbone_l.0.kernel", "sa_l.w_q", "head_l.bias"):
            assert abs(moved[name] - 2e-5 / (1 + 1e-8)) <= 1e-15
        for name in ("fuse_g.w_q", "f_agg.kernel"):
            assert abs(moved[name] - 1e-4 / (1 + 1e-8)) <= 1e-15

    def test_zero_grads_clears(self):
        p = {"w": Tensor(np.array([1.0]))}
        p["w"].grad = np.array([1.0])
        opt = Adam(p)
        opt.zero_grads()
        assert p["w"].grad is None

    def test_beta_validation(self):
        with pytest.raises(UsageError):
            Adam({"w": Tensor(np.array([1.0]))}, beta1=1.0)
        with pytest.raises(UsageError):
            Adam({"w": Tensor(np.array([1.0]))}, beta2=-0.1)
