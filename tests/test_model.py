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
from dualseg.autodiff import GradTape, Tensor
from dualseg.errors import DataError, DimensionError, UsageError
from dualseg.memory import LEDGER
from dualseg.harness.config import preset_convergence
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


def focal_chain(logits, targets, gamma):
    """The op chain `focal_loss` fuses, as it was once built from taped
    primitives."""
    k, h, w = logits.shape
    n = h * w
    flat = ad.transpose(ad.reshape(logits, (k, n)))
    p = ad.softmax_rows(flat)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), targets.reshape(-1)] = 1.0
    p_t = ad.matmul(ad.mul(p, Tensor(onehot)), Tensor(np.ones((k, 1))))
    focal_w = ad.power(ad.sub(Tensor(np.ones((n, 1))), p_t), gamma)
    per_pixel = ad.mul(focal_w, ad.log(p_t))
    return ad.scale(ad.mean_all(per_pixel), -1.0)


def coupling_chain(x_loc, x_glb):
    """The op chain `coupling_penalty` fuses, as it was once built from
    taped primitives over the global map resized to the canvas."""
    diff = ad.sub(x_loc, ad.bilinear_resize(x_glb, *x_loc.shape[1:]))
    return ad.sqrt(ad.sum_all(ad.mul(diff, diff)))


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
    in pass 2 and is upsampled to the tile, its global window is cropped
    (zero past the image) from the full-size resize of the averaged global
    map, and the full aggregation kernel runs over the channel concat;
    the tile logits are stitched with a Welford mean."""
    h, w = image.shape[1:]
    p = grid.patch
    glb = model._global_branch(Tensor(image), params, settings)
    fused = [model._tile_forward(image, grid, i, glb, params, settings)[0].data
             for i in range(grid.n_tiles)]
    gh, gw = glb.seq.spatial
    x_glb = np.mean(fused, axis=0).T.reshape(params.backbone.d_model, gh, gw)
    glb_full = ad.bilinear_resize(Tensor(x_glb), h, w).data
    agg_k, agg_b = params.by_name["f_agg.kernel"], params.by_name["f_agg.bias"]
    mean = np.zeros((params.num_classes, h, w))
    count = np.zeros((h, w))
    for i, (r, c) in enumerate(grid.origins):
        _, loc_map = model._tile_forward(image, grid, i, glb, params, settings)
        loc_up = ad.bilinear_resize(loc_map, p, p)
        hh, ww = min(p, h - r), min(p, w - c)
        glb_win = np.zeros((x_glb.shape[0], p, p))
        glb_win[:, :hh, :ww] = glb_full[:, r:r + hh, c:c + ww]
        s_agg = ad.conv2d(ad.concat_channels([Tensor(glb_win), loc_up]),
                          agg_k, padding=1, bias=agg_b).data
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
        back = map_from_tokens(tokens_from_map(x))
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

    @staticmethod
    def loss_and_grad(fn, logits, targets, gamma):
        t = Tensor(logits, requires_grad=True)
        with GradTape() as tape:
            loss = fn(t, targets, gamma)
            tape.backward(loss)
        return loss.item(), t.grad

    @pytest.mark.parametrize("gamma", [0.0, 1.0, 2.0, 6.0])
    def test_matches_op_chain_and_differences(self, gamma):
        rng = np.random.default_rng(8)
        logits = rng.standard_normal((4, 5, 3)) * 2.0
        targets = rng.integers(0, 4, size=(5, 3))
        got, got_g = self.loss_and_grad(focal_loss, logits, targets, gamma)
        want, want_g = self.loss_and_grad(focal_chain, logits, targets, gamma)
        assert abs(got - want) <= 1e-12
        np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-12)
        err = ad.gradcheck(lambda t: focal_loss(t, targets[:2, :2], gamma),
                           [logits[:, :2, :2]])
        assert err < 1e-5

    @pytest.mark.parametrize("gamma", [0.0, 2.0])
    def test_p_t_below_log_floor_gets_no_log_gradient(self, gamma):
        # pixel 0 puts p_t ~ 4e-18 under the 1e-12 floor of the log
        logits = np.zeros((2, 1, 2))
        logits[1, 0, 0] = 40.0
        targets = np.zeros((1, 2), dtype=np.int64)
        got, got_g = self.loss_and_grad(focal_loss, logits, targets, gamma)
        want, want_g = self.loss_and_grad(focal_chain, logits, targets, gamma)
        assert abs(got - want) <= 1e-12
        np.testing.assert_allclose(got_g, want_g, rtol=0, atol=1e-12)
        if gamma == 0.0:
            assert not got_g[:, 0, 0].any() and got_g[:, 0, 1].any()

    def test_one_tape_record(self):
        logits = Tensor(np.zeros((3, 4, 4)), requires_grad=True)
        with GradTape() as tape:
            focal_loss(logits, np.zeros((4, 4), dtype=np.int64), 6.0)
        assert len(tape._records) == 1

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

    @staticmethod
    def value_and_grads(fn, x_loc, x_glb, weight):
        a = Tensor(x_loc, requires_grad=True)
        b = Tensor(x_glb, requires_grad=True)
        with GradTape() as tape:
            out = fn(a, b)
            tape.backward(ad.scale(out, weight))
        return out.item(), a.grad, b.grad

    # same size (identity resize), and a non-square token map upsampled
    # to a non-square canvas; weight 0.15 is the default lambda
    @pytest.mark.parametrize("glb_shape", [(3, 10, 14), (3, 3, 5)])
    @pytest.mark.parametrize("weight", [1.0, 0.15])
    def test_matches_op_chain_bitwise(self, glb_shape, weight):
        rng = np.random.default_rng(10)
        x_loc, x_glb = rng.standard_normal((3, 10, 14)), rng.standard_normal(glb_shape)
        got = self.value_and_grads(coupling_penalty, x_loc, x_glb, weight)
        want = self.value_and_grads(coupling_chain, x_loc, x_glb, weight)
        assert got[0] == want[0]
        for g, want_g in zip(got[1:], want[1:]):
            assert g.tobytes() == want_g.tobytes()

    def test_token_resolution_global_map_matches_chain(self):
        # the penalty resizes a smaller global map itself
        rng = np.random.default_rng(11)
        x_loc, x_glb = Tensor(rng.random((2, 8, 8))), Tensor(rng.random((2, 4, 4)))
        up = ad.bilinear_resize(x_glb, 8, 8).data
        want = float(np.sqrt(((x_loc.data - up) ** 2).sum()))
        assert coupling_penalty(x_loc, x_glb).item() == want

    def test_gradcheck_non_square(self):
        rng = np.random.default_rng(12)
        x_loc, x_glb = rng.standard_normal((2, 7, 9)), rng.standard_normal((2, 3, 4))
        assert ad.gradcheck(coupling_penalty, [x_loc, x_glb]) < 1e-6

    def test_one_tape_record(self):
        x_loc = Tensor(np.ones((2, 6, 6)), requires_grad=True)
        x_glb = Tensor(np.zeros((2, 3, 3)), requires_grad=True)
        with GradTape() as tape:
            coupling_penalty(x_loc, x_glb)
        assert len(tape._records) == 1

    def test_ndim_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            coupling_penalty(Tensor(np.zeros((2, 4, 4))),
                             Tensor(np.zeros((2, 4))))

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
        opt = Adam(params.named())
        grads = {}
        for lam in (0.0, 0.15):
            settings.coupling_lambda = lam
            opt.zero_grads()
            with GradTape() as tape:
                _, bd = forward_train(image, labels, grid, params, settings)
            tape.backward(bd.total_tensor)
            grads[lam] = params.by_name["backbone_l.0.kernel"].grad.copy()
        assert not np.array_equal(grads[0.0], grads[0.15])

    def test_no_canvas_size_resize_of_global_map(self, monkeypatch):
        # the coupling penalty resizes inside its own op
        params, image, labels, grid, settings = micro_setup()
        targets = []
        real = ad.bilinear_resize

        def counted(x, th, tw):
            targets.append((th, tw))
            return real(x, th, tw)

        monkeypatch.setattr(ad, "bilinear_resize", counted)
        forward_train(image, labels, grid, params, settings)
        assert targets and (16, 16) not in targets

    def test_no_full_canvas_concat(self, monkeypatch):
        # the aggregation conv runs as two halves; nothing builds the
        # [2d, H, W] concat of the global and local maps
        params, image, labels, grid, settings = micro_setup()
        d = params.backbone.d_model

        def concat(*args, **kwargs):
            raise AssertionError("forward_train built a channel concat")

        monkeypatch.setattr(ad, "concat_channels", concat)
        with GradTape() as tape:
            forward_train(image, labels, grid, params, settings)
            shapes = [out.shape for out, _ in tape._records]
        assert shapes and not [s for s in shapes
                               if len(s) == 3 and s[0] == 2 * d]

    @pytest.mark.parametrize("lam", [0.0, 0.15])
    def test_only_canvas_size_map_on_tape_is_x_loc_full(self, lam):
        params, image, labels, grid, settings = micro_setup(coupling_lambda=lam)
        shape = (params.backbone.d_model, 16, 16)
        with GradTape() as tape:
            out, _ = forward_train(image, labels, grid, params, settings)
            canvas = [o for o, _ in tape._records if o.shape == shape]
        assert len(canvas) == 1 and canvas[0] is out.x_loc_full

    def test_backbone_keeps_only_stage_outputs_on_tape(self, monkeypatch):
        # each stage is one checkpoint: neither a conv's pre-activation
        # nor the relu map a pool reads is a record output
        params, image, labels, grid, settings = micro_setup()
        inner = []
        for op in ("relu", "avg_pool2d"):
            real = getattr(ad, op)

            def spy(x, *args, real=real):
                inner.append(x)
                return real(x, *args)

            monkeypatch.setattr(ad, op, spy)
        with GradTape() as tape:
            forward_train(image, labels, grid, params, settings)
            records = list(tape._records)
        # global: 2 relus, 2 pools; local: the last stage keeps full rate
        assert len(inner) == 4 + 3 * grid.n_tiles
        outputs = [out for out, _ in records]
        assert not [x for x in inner if any(x is out for out in outputs)]
        ops = [bw.__qualname__.split(".")[0] for _, bw in records]
        assert ops.count("checkpoint") == 2 * (1 + grid.n_tiles)

    def test_conv_and_attention_backwards_keep_no_large_array(self):
        # conv2d rebuilds its im2col and sdpa its probabilities in
        # backward; a 4x4 global token grid makes p larger than q, k, v
        params, image, labels, grid, settings = micro_setup(global_size=16)
        inputs = {"conv2d": ("x", "kernel", "bias"), "sdpa": ("q", "k", "v")}

        def held(fn):
            """Values in the closure of fn and of the functions it holds."""
            for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
                value = cell.cell_contents
                if hasattr(value, "__closure__"):
                    yield from held(value)
                else:
                    yield name, value

        checked = set()
        with GradTape() as tape:
            forward_train(image, labels, grid, params, settings)
            records = list(tape._records)
        for _, bw in records:
            op = bw.__qualname__.removesuffix(".<locals>.bw")
            if op not in inputs:
                continue
            values = dict(held(bw))
            limit = max(values[n].data.nbytes for n in inputs[op]
                        if values.get(n) is not None)
            for name, value in values.items():
                if isinstance(value, Tensor):
                    value = value.data
                elif not (isinstance(value, np.ndarray)
                          and value.flags.writeable):
                    continue
                assert value.nbytes <= limit, (op, name, value.shape)
            checked.add(op)
        assert checked == set(inputs)

    def test_coupling_is_distance_to_resized_global_map(self):
        params, image, labels, grid, settings = micro_setup(seed=3)
        out, bd = forward_train(image, labels, grid, params, settings)
        up = ad.bilinear_resize(out.x_glb, 16, 16).data
        diff = out.x_loc_full.data - up
        assert bd.coupling == float(np.sqrt((diff * diff).sum()))

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


@pytest.fixture
def refuse_work(monkeypatch):
    """Fail any pass that resizes the image or cuts a tile."""
    def fail(*args, **kwargs):
        raise AssertionError("a refused pass did work")

    monkeypatch.setattr(ad, "bilinear_resize", fail)
    monkeypatch.setattr(model, "extract_patch", fail)


class TestTrainPaddedTile:
    """An image smaller than the patch has one zero-padded tile: training
    refuses it, inference crops the padding away."""

    def test_refused_before_any_tile(self, refuse_work):
        params, image, _, grid, settings = micro_setup(
            num_classes=3, h=24, w=40, patch=32, overlap=8)
        labels = np.random.default_rng(1).integers(1, 3, size=(24, 40))
        with pytest.raises(DimensionError,
                           match=r"^forward_train: a 24x40 image is smaller "
                                 r"than the 32 px patch; training would "
                                 r"learn its zero padding as class 0$"):
            forward_train(image, labels, grid, params, settings)

    def test_inference_keeps_padding(self):
        params, image, _, grid, settings = micro_setup(
            h=24, w=40, patch=32, overlap=8)
        assert forward_infer(image, grid, params, settings).shape == (24, 40)


class TestTrainTokenCap:
    """forward_train refuses what forward_infer refuses, before its first
    tile or the global downsample."""

    def test_tile_tokens_are_capped(self, monkeypatch, refuse_work):
        params, image, labels, grid, settings = micro_setup()
        # an 8 px patch at stride 2 has 16 tokens
        monkeypatch.setattr(model, "MAX_TILE_TOKENS", 15)
        with pytest.raises(DimensionError,
                           match=r"forward_train: a 8 px tile has 16 tokens, "
                                 r"more than 15; use a smaller patch"):
            forward_train(image, labels, grid, params, settings)

    def test_global_tokens_are_capped(self, refuse_work):
        params, image, labels, grid, settings = micro_setup(global_size=65536)
        with pytest.raises(DimensionError,
                           match=r"268435456 tokens, more than 65536; "
                                 r"use a smaller global_size"):
            forward_train(image, labels, grid, params, settings)

    def test_a_pass_at_the_cap_runs(self, monkeypatch):
        # 16 tile tokens and (8 // 4) ** 2 = 4 global tokens
        params, image, labels, grid, settings = micro_setup()
        monkeypatch.setattr(model, "MAX_TILE_TOKENS", 16)
        _, bd = forward_train(image, labels, grid, params, settings)
        assert np.isfinite(bd.total)


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
        params.by_name["f_agg.bias"].data[:] = \
            np.random.default_rng(seed).normal(0.0, 0.1, 3)
        want = two_pass_infer_oracle(image, grid, params, settings)
        got = forward_infer(image, grid, params, settings, mode="patch")
        assert np.array_equal(got, want)

    # both passes sum the tiles' fused global tokens in tile order and
    # scale once, so the map inference aggregates is training's x_glb;
    # inference runs in float32, so training is fed the same float32
    # image and weights, which it keeps in float32
    @pytest.mark.parametrize("seed", range(6))
    def test_global_map_equals_training_x_glb(self, monkeypatch, seed):
        params, image, labels, grid, settings = micro_setup(
            seed=seed, num_classes=3, h=40, w=28, patch=16, overlap=4)
        assert grid.n_tiles == 6
        maps, real = [], model.resized_conv

        def resized_conv(x, *args):
            maps.append(x.data)
            return real(x, *args)

        monkeypatch.setattr(model, "resized_conv", resized_conv)
        forward_infer(image, grid, params, settings, mode="patch")
        out, _ = forward_train(image.astype(np.float32), labels, grid,
                               params.astype(np.float32), settings)
        assert out.x_glb.data.dtype == np.float32
        # the last inference call is a global half's; training's one call
        # takes x_glb itself
        assert len(maps) == 2 * grid.n_tiles + 1
        assert maps[-1] is out.x_glb.data
        assert np.array_equal(maps[-2], out.x_glb.data)

    # one op per aggregation half: 2 per tile untaped, 1 over the canvas
    # in a taped training step
    @pytest.mark.parametrize("mode", ["patch", "global"])
    def test_resized_conv_calls(self, monkeypatch, mode):
        params, image, labels, grid, settings = micro_setup(
            h=40, w=28, patch=16, overlap=4)
        calls, real = [], model.resized_conv

        def resized_conv(*args):
            out = real(*args)
            calls.append(out.requires_grad)
            return out

        monkeypatch.setattr(model, "resized_conv", resized_conv)
        forward_infer(image, grid if mode == "patch" else None, params,
                      settings, mode=mode)
        n_tiles = grid.n_tiles if mode == "patch" else 1
        assert calls == [False] * (2 * n_tiles)
        calls.clear()
        with GradTape():
            forward_train(image, labels, grid, params, settings)
        assert calls == [True]

    @pytest.mark.parametrize("mode", ["patch", "global"])
    def test_backbone_map_freed_before_self_attention(self, monkeypatch,
                                                      mode):
        # the tokens copy the backbone's last map; once they exist, the
        # map and the branch input are dead, so the ledger holds what it
        # held as the backbone returned, less the input
        params, image, _, grid, settings = micro_setup()
        after_backbone, at_refine = [], []
        backbone, refine = model.backbone_forward, model.refine_tokens

        def spy_backbone(x, *args, **kwargs):
            out = backbone(x, *args, **kwargs)
            after_backbone.append(LEDGER.current_bytes - x.data.nbytes)
            return out

        def spy_refine(*args):
            at_refine.append(LEDGER.current_bytes)
            return refine(*args)

        monkeypatch.setattr(model, "backbone_forward", spy_backbone)
        monkeypatch.setattr(model, "refine_tokens", spy_refine)
        forward_infer(image, grid, params, settings, mode=mode)
        assert len(at_refine) == 1 + (grid.n_tiles if mode == "patch" else 1)
        assert at_refine == after_backbone

    def test_patch_transient_flat_in_image_size(self):
        transients = []
        for side in (64, 128):
            params, image, _, grid, settings = micro_setup(
                h=side, w=side, patch=16, overlap=4)
            report = {}
            forward_infer(image, grid, params, settings, mem_report=report)
            transients.append(report["transient_bytes"])
        assert transients[0] == transients[1]

    # a one-tile crop, 9 tiles and 64 tiles: equal only when no tile's
    # tensors are still alive while the next tile runs
    def test_patch_transient_independent_of_tile_count(self):
        cfg = preset_convergence()
        params = ModelParams(cfg.backbone(), cfg.num_classes,
                             rng=np.random.default_rng(0))
        image = np.random.default_rng(1).random((3, 192, 192))
        tiles, transients = [], []
        for side in (32, 64, 192):
            grid = plan_grid(side, side, cfg.patch, cfg.overlap)
            report = {}
            forward_infer(np.ascontiguousarray(image[:, :side, :side]), grid,
                          params, cfg.settings(), mem_report=report)
            tiles.append(grid.n_tiles)
            transients.append(report["transient_bytes"])
        assert tiles == [1, 9, 64]
        assert transients[0] == transients[1] == transients[2]

    # the only resize is the global downsample, the only convs are the
    # backbones': each aggregation half is `resized_conv`
    @pytest.mark.parametrize("mode", ["patch", "global"])
    def test_one_resize_and_backbone_convs_only(self, monkeypatch, mode):
        params, image, _, grid, settings = micro_setup(
            h=40, w=28, patch=16, overlap=4)
        resizes, convs, in_backbone = [], [], [False]
        real_resize, real_conv = ad.bilinear_resize, ad.conv2d
        real_backbone = model.backbone_forward

        def resize(x, th, tw):
            resizes.append((th, tw))
            return real_resize(x, th, tw)

        def conv(*args, **kwargs):
            convs.append(in_backbone[0])
            return real_conv(*args, **kwargs)

        def backbone(*args, **kwargs):
            in_backbone[0] = True
            try:
                return real_backbone(*args, **kwargs)
            finally:
                in_backbone[0] = False

        monkeypatch.setattr(ad, "bilinear_resize", resize)
        monkeypatch.setattr(ad, "conv2d", conv)
        monkeypatch.setattr(model, "backbone_forward", backbone)
        forward_infer(image, grid if mode == "patch" else None, params,
                      settings, mode=mode)
        assert resizes == [(settings.global_size, settings.global_size)]
        assert convs and all(convs)

    def test_tile_tokens_are_capped_before_building(self, monkeypatch):
        params, image, _, grid, settings = micro_setup()
        # a zero-stride image: whole-image mode would make it 600 x 600
        # at 90000 tokens, and the refusal must come before any copy
        huge = np.broadcast_to(np.float64(0.5), (3, 600, 600))
        peak = LEDGER.reset_peak()
        with pytest.raises(DimensionError,
                           match=r"has 90000 tokens, more than 65536; "
                                 r"use patch mode"):
            forward_infer(huge, None, params, settings, mode="global")
        assert LEDGER.peak_bytes == peak
        # an 8 px patch at stride 2 has 16 tokens
        monkeypatch.setattr(model, "MAX_TILE_TOKENS", 16)
        forward_infer(image, grid, params, settings)
        monkeypatch.setattr(model, "MAX_TILE_TOKENS", 15)
        for mode in ("patch", "global"):
            with pytest.raises(DimensionError, match="more than 15"):
                forward_infer(image, grid if mode == "patch" else None,
                              params, settings, mode=mode)

    def test_global_branch_is_capped_before_downsampling(self, monkeypatch):
        params, image, _, grid, settings = micro_setup(global_size=65536)

        def resize(*args, **kwargs):
            raise AssertionError("the refused global branch resized")

        monkeypatch.setattr(ad, "bilinear_resize", resize)
        for mode in ("patch", "global"):
            with pytest.raises(DimensionError,
                               match=r"the 65536 px global branch input has "
                                     r"268435456 tokens, more than 65536; "
                                     r"use a smaller global_size"):
                forward_infer(image, grid if mode == "patch" else None,
                              params, settings, mode=mode)

    def test_mode_validation(self):
        params, image, _, grid, settings = micro_setup()
        with pytest.raises(UsageError):
            forward_infer(image, grid, params, settings, mode="mosaic")
        with pytest.raises(UsageError):
            forward_infer(image, None, params, settings, mode="patch")


class TestDtypeAudit:
    """Inference runs in float32 and training in float64, end to end. Like
    the tape audits, these watch a whole pass: every Tensor it makes,
    every memoised resize, pool or window matrix it reads and the mean of
    its stitch accumulator."""

    @staticmethod
    def watch(monkeypatch) -> dict:
        seen = {"tensors": [], "matrices": [], "means": []}
        real_init = Tensor.__init__

        def init(self, data, requires_grad=False):
            real_init(self, data, requires_grad)
            seen["tensors"].append(self.data.dtype)

        monkeypatch.setattr(Tensor, "__init__", init)
        for owner, name in ((ad, "_resize_matrix"), (ad, "_pool_matrix"),
                            (ad, "_resize_reads"), (model, "_resize_matrix"),
                            (model, "_window_taps")):
            def read(*args, real=getattr(owner, name), **kwargs):
                m = real(*args, **kwargs)
                seen["matrices"].append(
                    (m[1] if isinstance(m, tuple) else m).dtype)
                return m

            monkeypatch.setattr(owner, name, read)
        real_add = model.StitchAccumulator.add

        def add(self, values, index):
            seen["means"].append(self.mean.dtype)
            real_add(self, values, index)

        monkeypatch.setattr(model.StitchAccumulator, "add", add)
        return seen

    @pytest.mark.parametrize("mode", ["patch", "global"])
    def test_inference_is_float32(self, monkeypatch, mode):
        params, image, _, grid, settings = micro_setup(
            h=40, w=28, patch=16, overlap=4)
        grid = grid if mode == "patch" else None
        # warm the memos, whose float64 builds are not reads of the pass
        forward_infer(image, grid, params, settings, mode=mode)
        seen = self.watch(monkeypatch)
        forward_infer(image, grid, params, settings, mode=mode)
        for what, dtypes in seen.items():
            assert dtypes and set(dtypes) == {np.dtype(np.float32)}, what

    def test_training_makes_no_float32_tensor(self, monkeypatch):
        params, image, labels, grid, settings = micro_setup(
            h=40, w=28, patch=16, overlap=4, coupling_lambda=0.5)
        seen = self.watch(monkeypatch)
        with GradTape() as tape:
            _, bd = forward_train(image, labels, grid, params, settings)
        tape.backward(bd.total_tensor)
        for what, dtypes in seen.items():
            assert dtypes and set(dtypes) == {np.dtype(np.float64)}, what
        assert {t.grad.dtype for t in params.named().values()} \
            == {np.dtype(np.float64)}

    def test_astype_copies_without_drawing_weights(self, monkeypatch):
        params, *_ = micro_setup()

        def draw(*args, **kwargs):
            raise AssertionError("astype drew weights")

        monkeypatch.setattr(ad, "init_uniform", draw)
        cast = params.astype(np.float32)
        assert cast.backbone is params.backbone
        assert cast.num_classes == params.num_classes
        for name, t in params.named().items():
            c = cast.by_name[name]
            assert c.data.dtype == np.float32 and not c.requires_grad
            np.testing.assert_array_equal(c.data, t.data.astype(np.float32))
            assert t.data.dtype == np.float64


class TestResizedConv:
    """`resized_conv` against conv2d over a window of the built resize,
    and over the whole canvas against resize-then-conv."""

    @staticmethod
    def crop_then_conv(x, kernel, h, w, r, c, size):
        full = ad.bilinear_resize(Tensor(x), h, w).data
        hh, ww = min(size[0], h - r), min(size[1], w - c)
        win = np.zeros((x.shape[0], *size))
        win[:, :hh, :ww] = full[:, r:r + hh, c:c + ww]
        return ad.conv2d(Tensor(win), Tensor(kernel), padding=1).data

    @staticmethod
    def check(x, h, w, r, c, size, seed):
        kernel = np.random.default_rng(seed).standard_normal(
            (3, x.shape[0], 3, 3))
        got = model.resized_conv(Tensor(x), Tensor(kernel), (h, w), (r, c),
                                 size).data
        want = TestResizedConv.crop_then_conv(x, kernel, h, w, r, c, size)
        assert got.shape == (3, *size)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    # origins into a 23x17 canvas, patch 8, from a 5x6 source: interior,
    # corner, flush with the bottom/right edges, and overhanging both
    # edges by 4 and 5 pixels
    @pytest.mark.parametrize("r,c", [(5, 3), (0, 0), (15, 9), (19, 12)])
    def test_window_matches_crop_then_conv(self, r, c):
        xg = np.random.default_rng(20).standard_normal((4, 5, 6))
        self.check(xg, 23, 17, r, c, (8, 8), seed=21)

    # a tile's local map, 16 -> 32, and a non-square source on a
    # non-square canvas, in a square window past the canvas and in a
    # window of exactly the canvas
    @pytest.mark.parametrize("shape,h,w", [((16, 16, 16), 32, 32),
                                           ((5, 7, 3), 12, 20)])
    def test_whole_canvas_matches_resize_then_conv(self, shape, h, w):
        x = np.random.default_rng(22).standard_normal(shape)
        for size in ((max(h, w), max(h, w)), (h, w)):
            self.check(x, h, w, 0, 0, size, seed=23)
        # `size` defaults to the canvas
        kernel = np.random.default_rng(23).standard_normal((3, shape[0], 3, 3))
        np.testing.assert_array_equal(
            model.resized_conv(Tensor(x), Tensor(kernel), (h, w)).data,
            model.resized_conv(Tensor(x), Tensor(kernel), (h, w), (0, 0),
                               (h, w)).data)

    def test_taped_op_matches_resize_then_conv(self):
        rng = np.random.default_rng(24)
        x, kernel = rng.standard_normal((4, 5, 3)), rng.standard_normal((3, 4, 3, 3))
        got = model.resized_conv(Tensor(x), Tensor(kernel), (12, 20)).data
        want = ad.conv2d(ad.bilinear_resize(Tensor(x), 12, 20), Tensor(kernel),
                         padding=1).data
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
        # and the gradients, against the same chain, to rounding
        w = rng.random(want.shape) + 0.5
        grads = []
        for fn in (lambda a, k: model.resized_conv(a, k, (12, 20)),
                   lambda a, k: ad.conv2d(ad.bilinear_resize(a, 12, 20), k,
                                          padding=1)):
            a, k = Tensor(x, requires_grad=True), Tensor(kernel, requires_grad=True)
            with GradTape() as tape:
                tape.backward(ad.sum_all(ad.mul(fn(a, k), Tensor(w))))
            grads.append((a.grad, k.grad))
        for g, want_g in zip(*grads):
            np.testing.assert_allclose(g, want_g, rtol=0,
                                       atol=1e-12 * np.abs(want_g).max())

    def test_taped_op_gradcheck(self):
        rng = np.random.default_rng(25)
        x, kernel = rng.standard_normal((2, 3, 4)), rng.standard_normal((2, 2, 3, 3))
        err = ad.gradcheck(lambda a, k: model.resized_conv(a, k, (7, 5)),
                           [x, kernel])
        assert err < 1e-6

    # the windowed backward a per-tile training pass would use: an
    # interior window, and one overhanging a non-square canvas's corner
    @pytest.mark.parametrize("origin", [(3, 2), (12, 13)])
    def test_windowed_gradcheck(self, origin):
        rng = np.random.default_rng(27)
        x, kernel = rng.standard_normal((2, 4, 3)), rng.standard_normal((2, 2, 3, 3))
        err = ad.gradcheck(
            lambda a, k: model.resized_conv(a, k, (15, 18), origin, (6, 8)),
            [x, kernel])
        assert err < 1e-6

    def test_kernel_gradient_lands_in_its_half_of_f_agg(self):
        params, image, labels, grid, settings = micro_setup(seed=4)
        d = params.backbone.d_model
        agg_k = params.by_name["f_agg.kernel"]
        x = Tensor(np.random.default_rng(26).standard_normal((d, 2, 2)),
                   requires_grad=True)
        with GradTape() as tape:
            k_glb, _, _ = params.agg_halves()
            out = model.resized_conv(x, k_glb, (16, 16))
            tape.backward(ad.sum_all(out))
        assert agg_k.grad[:, :d].any() and not agg_k.grad[:, d:].any()


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
