"""Allocation ledger: hand-instrumented sequences and tensor wiring."""

import contextlib
import gc
import platform
import resource

import numpy as np
import pytest

import dualseg.autodiff as ad
import dualseg.model as model
from dualseg.autodiff import Tensor
from dualseg.harness.config import RunConfig, preset_convergence
from dualseg.memory import LEDGER, AllocationLedger
from dualseg.model import ModelParams, forward_infer
from dualseg.tiling import plan_grid

# Each allocating op on fixed inputs. The input tensors die with the call;
# the output must own its buffer, or the ledger (which counts only arrays
# with no base) misses it.
RNG = np.random.default_rng(0)
MAP = RNG.standard_normal((4, 6, 10))
MAT = RNG.standard_normal((6, 5))
K3 = RNG.standard_normal((5, 4, 3, 3))
K1 = RNG.standard_normal((3, 4, 1, 1))
T = Tensor
ALLOCATING_OPS = {
    "conv2d_3x3_pad1": lambda: ad.conv2d(T(MAP), T(K3), 1),
    "conv2d_3x3_pad1_bias": lambda: ad.conv2d(T(MAP), T(K3), 1, T(np.ones(5))),
    "conv2d_1x1": lambda: ad.conv2d(T(MAP), T(K1), 0),
    "conv2d_1x1_bias": lambda: ad.conv2d(T(MAP), T(K1), 0, T(np.ones(3))),
    "bilinear_up": lambda: ad.bilinear_resize(T(MAP), 13, 21),
    "bilinear_down": lambda: ad.bilinear_resize(T(MAP), 3, 4),
    "bilinear_identity": lambda: ad.bilinear_resize(T(MAP), 6, 10),
    "matmul": lambda: ad.matmul(T(MAT), T(MAT.T)),
    "avg_pool2d": lambda: ad.avg_pool2d(T(MAP), 2),
    "softmax_rows": lambda: ad.softmax_rows(T(MAT)),
    "relu": lambda: ad.relu(T(MAP)),
    "concat_channels": lambda: ad.concat_channels([T(MAP), T(MAP[:1])]),
    "transpose": lambda: ad.transpose(T(MAT)),
    "sdpa": lambda: ad.sdpa(T(MAT), T(MAT), T(MAT[:, :2])),
}

class TestLedgerArithmetic:
    def test_scripted_sequence_matches_hand_count(self):
        led = AllocationLedger()
        led.on_alloc(100)          # live 100, peak 100
        led.on_alloc(50)           # live 150, peak 150
        led.on_free(100)           # live 50,  peak 150
        led.on_alloc(25)           # live 75,  peak 150
        assert led.current_bytes == 75
        assert led.peak_bytes == 150
        led.on_alloc(200)          # live 275, peak 275
        led.on_free(200)
        assert led.peak_bytes == 275
        assert led.current_bytes == 75

    def test_peak_is_monotone_within_phase(self):
        led = AllocationLedger()
        rng = np.random.default_rng(0)
        peaks = []
        for _ in range(200):
            if rng.random() < 0.6:
                led.on_alloc(int(rng.integers(1, 1000)))
            elif led.current_bytes:
                led.on_free(min(led.current_bytes, int(rng.integers(1, 500))))
            assert led.peak_bytes >= led.current_bytes >= 0
            peaks.append(led.peak_bytes)
        assert peaks == sorted(peaks)

    def test_reset_collapses_peak_to_current(self):
        led = AllocationLedger()
        led.on_alloc(100)
        led.on_free(60)
        led.on_alloc(500)
        led.on_free(500)
        assert led.peak_bytes == 540
        baseline = led.reset_peak()
        assert baseline == led.current_bytes == led.peak_bytes == 40
        led.on_alloc(10)
        assert led.peak_bytes == 50


class TestTensorWiring:
    def test_tensor_lifecycle_moves_the_global_ledger(self):
        gc.collect()
        before = LEDGER.current_bytes
        t = Tensor(np.zeros((100, 100)))
        assert LEDGER.current_bytes == before + 100 * 100 * 8
        del t
        gc.collect()
        assert LEDGER.current_bytes == before

    def test_views_are_not_double_counted(self):
        gc.collect()
        before = LEDGER.current_bytes
        base = Tensor(np.zeros(64))
        view = Tensor(base.data.reshape(8, 8))
        assert LEDGER.current_bytes == before + 64 * 8
        del base, view
        gc.collect()
        assert LEDGER.current_bytes == before

    @pytest.mark.parametrize("name", sorted(ALLOCATING_OPS))
    def test_op_output_is_counted(self, name):
        build = ALLOCATING_OPS[name]
        gc.collect()
        before = LEDGER.current_bytes
        out = build()
        gc.collect()
        assert LEDGER.current_bytes - before == out.data.nbytes

    def test_sdpa_counts_one_score_buffer(self):
        n_q, n_k = 40, 50
        rng = np.random.default_rng(1)
        q, k, v = (Tensor(rng.standard_normal(s))
                   for s in ((n_q, 3), (n_k, 3), (n_k, 2)))
        gc.collect()
        base = LEDGER.reset_peak()
        out = ad.sdpa(q, k, v, np.ones((1, n_k), dtype=bool))
        score = n_q * n_k * 8
        # the probabilities are held by a Tensor while the op runs, and
        # there is exactly one such [n_q, n_k] buffer
        assert LEDGER.peak_bytes - base >= score
        assert LEDGER.peak_bytes - base < 2 * score
        gc.collect()
        assert LEDGER.current_bytes - base == out.data.nbytes

    @pytest.mark.parametrize("taped", [False, True])
    def test_sdpa_streams_scores(self, taped):
        n_q, n_k = 2 * ad.SDPA_BLOCK_ROWS + 3, 50
        rng = np.random.default_rng(2)
        q, k, v = (Tensor(rng.standard_normal(s), requires_grad=taped)
                   for s in ((n_q, 3), (n_k, 3), (n_k, 2)))
        gc.collect()
        base = LEDGER.reset_peak()
        with ad.GradTape() if taped else contextlib.nullcontext():
            out = ad.sdpa(q, k, v)
        # one block of rows is reused, taped or not
        assert LEDGER.peak_bytes - base == \
            ad.SDPA_BLOCK_ROWS * n_k * 8 + out.data.nbytes

    def test_sdpa_backward_rebuilds_one_probability_matrix_at_a_time(self):
        n_q, n_k = 2 * ad.SDPA_BLOCK_ROWS + 3, 50
        rng = np.random.default_rng(3)
        q, k, v = (Tensor(rng.standard_normal(s), requires_grad=True)
                   for s in ((n_q, 3), (n_k, 3), (n_k, 3)))
        with ad.GradTape() as tape:
            # two calls, so two backwards each rebuild their probabilities
            out = ad.sdpa(ad.sdpa(q, k, v), k, v)
            loss = ad.sum_all(out)
        gc.collect()
        base = LEDGER.reset_peak()
        tape.backward(loss)
        assert LEDGER.peak_bytes - base == n_q * n_k * 8
        gc.collect()
        assert LEDGER.current_bytes <= base

    def test_global_mode_does_not_hold_the_score_matrix(self):
        cfg = RunConfig().validate()
        params = ModelParams(cfg.backbone(), cfg.num_classes,
                             rng=np.random.default_rng(0))
        image = np.random.default_rng(1).random((3, 24, 120))
        report: dict = {}
        forward_infer(image, None, params, cfg.settings(), mode="global",
                      mem_report=report)
        n_tokens = (120 // cfg.backbone().stride(skip_last_pool=True)) ** 2
        assert n_tokens == 3600
        assert report["transient_bytes"] < n_tokens ** 2 * 8 / 4

    def test_training_pass_frees_the_image_before_the_tiles(self, monkeypatch):
        cfg = RunConfig().validate()
        params = ModelParams(cfg.backbone(), cfg.num_classes,
                             rng=np.random.default_rng(0))
        rng = np.random.default_rng(3)
        image = rng.random((3, 32, 32))
        labels = rng.integers(0, cfg.num_classes, (32, 32))
        live: dict = {}
        global_branch, tile_forward = model._global_branch, model._tile_forward

        def spy_global(*args):
            glb = global_branch(*args)
            live["global_done"] = LEDGER.current_bytes
            return glb

        def spy_tile(*args):
            live.setdefault("first_tile", LEDGER.current_bytes)
            return tile_forward(*args)

        monkeypatch.setattr(model, "_global_branch", spy_global)
        monkeypatch.setattr(model, "_tile_forward", spy_tile)
        with ad.GradTape():
            model.forward_train(image, labels, plan_grid(32, 32, 16, 0),
                                params, cfg.settings())
        # nothing is allocated in between; the image tensor is freed
        assert live["global_done"] - live["first_tile"] == image.nbytes

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap is kept through glibc's mallopt")
    def test_training_step_reuses_the_memory_backward_frees(self):
        # backward frees the newest arrays first; were the heap top trimmed
        # at once, every 64 px step would fault ~3500 pages back in
        cfg = preset_convergence()
        params = ModelParams(cfg.backbone(), cfg.num_classes,
                             rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        image = rng.random((3, 64, 64))
        labels = rng.integers(0, cfg.num_classes, (64, 64))
        grid = plan_grid(64, 64, cfg.patch, cfg.overlap)
        faults = []
        for _ in range(4):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with ad.GradTape() as tape:
                _, bd = model.forward_train(image, labels, grid, params,
                                            cfg.settings())
            tape.backward(bd.total_tensor)
            del tape, bd
            for p in params.named().values():
                p.grad = None
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - before)
        assert max(faults[1:]) < 500, faults

    def test_reshape_adds_nothing(self):
        x = Tensor(MAP)
        gc.collect()
        before = LEDGER.current_bytes
        out = ad.reshape(x, (4, 60))
        assert LEDGER.current_bytes == before
        assert np.shares_memory(out.data, x.data)
