"""Tensor core: forward values against loop oracles, backwards against
central differences computed independently of the library's own checker."""

import gc
import math
import sys

import numpy as np
import pytest

import dualseg.autodiff as ad
from dualseg import model
from dualseg.autodiff import GradTape, Tensor
from dualseg.errors import DimensionError, UsageError
from dualseg.memory import LEDGER


# ---------------------------------------------------------------------------
# oracles (no library code involved)


def matmul_oracle(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_oracle(x):
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        row = x[i]
        mx = row.max()
        e = [math.exp(v - mx) for v in row]
        s = sum(e)
        out[i] = [v / s for v in e]
    return out


def conv2d_oracle(x, k, padding=0, bias=None):
    c, h, w = x.shape
    o, _, kh, kw = k.shape
    xp = np.zeros((c, h + 2 * padding, w + 2 * padding))
    xp[:, padding:padding + h, padding:padding + w] = x
    oh = xp.shape[1] - kh + 1
    ow = xp.shape[2] - kw + 1
    out = np.zeros((o, oh, ow))
    for oc in range(o):
        for i in range(oh):
            for j in range(ow):
                acc = 0.0
                for ic in range(c):
                    for di in range(kh):
                        for dj in range(kw):
                            acc += xp[ic, i + di, j + dj] * k[oc, ic, di, dj]
                out[oc, i, j] = acc + (0.0 if bias is None else bias[oc])
    return out


def conv2d_input_grad_oracle(g, k, h, w, padding=0):
    """Scatter each output gradient back onto the inputs its window read."""
    o, c, kh, kw = k.shape
    _, oh, ow = g.shape
    gx = np.zeros((c, h, w))
    for oc in range(o):
        for i in range(oh):
            for j in range(ow):
                for ic in range(c):
                    for di in range(kh):
                        for dj in range(kw):
                            y, xx = i + di - padding, j + dj - padding
                            if 0 <= y < h and 0 <= xx < w:
                                gx[ic, y, xx] += g[oc, i, j] * k[oc, ic, di, dj]
    return gx


def avg_pool_oracle(x, f):
    c, h, w = x.shape
    out = np.zeros((c, h // f, w // f))
    for ch in range(c):
        for i in range(h // f):
            for j in range(w // f):
                out[ch, i, j] = x[ch, i * f:(i + 1) * f, j * f:(j + 1) * f].mean()
    return out


def bilinear_oracle(x, th, tw):
    c, h, w = x.shape
    out = np.zeros((c, th, tw))
    for i in range(th):
        sy = min(max((i + 0.5) * h / th - 0.5, 0.0), h - 1.0)
        y0 = int(math.floor(sy))
        y1 = min(y0 + 1, h - 1)
        wy = sy - y0
        for j in range(tw):
            sx = min(max((j + 0.5) * w / tw - 0.5, 0.0), w - 1.0)
            x0 = int(math.floor(sx))
            x1 = min(x0 + 1, w - 1)
            wx = sx - x0
            for ch in range(c):
                top = x[ch, y0, x0] + wx * (x[ch, y0, x1] - x[ch, y0, x0])
                bot = x[ch, y1, x0] + wx * (x[ch, y1, x1] - x[ch, y1, x0])
                out[ch, i, j] = top + wy * (bot - top)
    return out


def bilinear_four_corner(x, th, tw):
    """Vectorised `bilinear_oracle`: four full-size corner gathers, then
    the lerp form."""
    def axis(src, dst):
        s = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
        s = np.clip(s, 0.0, src - 1.0)
        i0 = np.floor(s).astype(np.intp)
        return i0, np.minimum(i0 + 1, src - 1), s - i0

    r0, r1, wy = axis(x.shape[1], th)
    c0, c1, wx = axis(x.shape[2], tw)
    a = x[:, r0[:, None], c0[None, :]]
    b = x[:, r0[:, None], c1[None, :]]
    c = x[:, r1[:, None], c0[None, :]]
    d = x[:, r1[:, None], c1[None, :]]
    top = a + wx[None, :] * (b - a)
    bot = c + wx[None, :] * (d - c)
    return top + wy[:, None] * (bot - top)


def bilinear_adjoint_oracle(g, h, w):
    """Transposed Jacobian of `bilinear_oracle` (linear in x) applied to g.

    Column k of the Jacobian is the oracle's resize of the k-th unit map.
    """
    c, th, tw = g.shape
    gx = np.zeros((c, h, w))
    for y in range(h):
        for xx in range(w):
            e = np.zeros((1, h, w))
            e[0, y, xx] = 1.0
            col = bilinear_oracle(e, th, tw)[0]
            gx[:, y, xx] = (g * col).sum(axis=(1, 2))
    return gx


def fd_grads(scalar_fn, arrays, eps=1e-6):
    """Central differences of scalar_fn w.r.t. arrays mutated in place."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gf = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = scalar_fn()
            flat[i] = orig - eps
            lo = scalar_fn()
            flat[i] = orig
            gf[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def assert_grads_match(build, arrays, rtol=1e-5, atol=1e-7):
    """Analytic grads of a weighted output sum vs independent differences."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    rng = np.random.default_rng(7)
    weights = None

    def run():
        return build(*tensors)

    probe = run()
    weights = rng.random(probe.shape) + 0.5
    wt = Tensor(weights)

    with GradTape() as tape:
        out = build(*tensors)
        loss = ad.sum_all(ad.mul(out, wt))
        tape.backward(loss)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    def scalar():
        return float((run().data * weights).sum())

    numeric = fd_grads(scalar, arrays)
    for a, n in zip(analytic, numeric):
        np.testing.assert_allclose(a, n, rtol=rtol, atol=atol)


def spy_grads(tape):
    """Spy on `tape`: keep each gradient its records read during
    backward, which backward itself would release. Returns read(t), the
    gradient that t's record read."""
    seen = []
    record = tape.record

    def spy(output, backward_fn):
        def bw(g):
            seen.append((output, g))
            backward_fn(g)
        record(output, bw)

    tape.record = spy
    return lambda t: next(g for out, g in seen if out is t)


# ---------------------------------------------------------------------------


class TestTensorBasics:
    def test_default_dtype_is_double(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_float32_stays_float32(self):
        a = np.arange(6, dtype=np.float32).reshape(2, 3)
        t = Tensor(a)
        assert t.data is a
        assert Tensor(np.float32(2.5)).data.dtype == np.float32

    @pytest.mark.parametrize("data", [
        [1.5, 2.5], [1, 2], 3, 2.5, True, np.float64(2.5),
        np.array([1, 2]), np.array([True]),
        np.array([1.5], dtype=np.float16),
        np.array([1.5], dtype=">f4"),
    ], ids=["list", "int-list", "int", "float", "bool", "np-float64",
            "int-array", "bool-array", "float16", "big-endian-float32"])
    def test_everything_else_becomes_double(self, data):
        assert Tensor(data).data.dtype == np.float64

    # each op allocates its output, and sdpa its buffers, in its inputs'
    # dtype: no memoised matrix or scalar promotes float32 to float64
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ops_keep_the_dtype(self, dtype):
        rng = np.random.default_rng(3)

        def t(*shape):
            return Tensor(rng.standard_normal(shape).astype(dtype))

        x, q, kv = t(2, 8, 6), t(5, 4), t(7, 4)
        keep_row = np.ones((1, 7), dtype=bool)
        keep_full = np.tril(np.ones((5, 7), dtype=bool))
        outs = [ad.conv2d(x, t(3, 2, 3, 3), padding=1, bias=t(3)),
                ad.avg_pool2d(x, 2), ad.bilinear_resize(x, 5, 11),
                ad.bilinear_resize(x, 3, 2), ad.sdpa(q, kv, kv),
                ad.sdpa(q, kv, kv, keep_row), ad.sdpa(q, kv, kv, keep_full),
                ad.matmul(q, t(4, 3)), ad.relu(q), ad.scale(q, 0.5),
                ad.add(q, q), ad.softmax_rows(q), ad.mean_all(q)]
        assert [o.data.dtype for o in outs] == [np.dtype(dtype)] * len(outs)

    def test_grad_starts_empty(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.grad is None

    def test_operator_overloads(self):
        rng = np.random.default_rng(0)
        a, b = rng.random((3, 4)), rng.random((3, 4))
        ta, tb = Tensor(a), Tensor(b)
        np.testing.assert_array_equal((ta + tb).data, a + b)
        np.testing.assert_array_equal((ta - tb).data, a - b)
        np.testing.assert_array_equal((ta * tb).data, a * b)
        np.testing.assert_allclose((Tensor(a) @ Tensor(b.T)).data, a @ b.T)


class TestTapeSemantics:
    def test_ops_outside_tape_do_not_track(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.relu(x)
        assert not y.requires_grad

    def test_reused_input_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            read = spy_grads(tape)
            y = x + x
            loss = ad.sum_all(y)
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0])
        # add hands one g to both inputs; the stored grad must be a copy
        np.testing.assert_array_equal(read(y), [1.0])
        assert not np.shares_memory(x.grad, read(y))

    def test_first_grad_from_transposed_view(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 3))
        x = Tensor(a, requires_grad=True)
        with GradTape() as tape:
            read = spy_grads(tape)
            y = ad.transpose(x)
            tape.backward(ad.sum_all(ad.mul(y, Tensor(w))))
        np.testing.assert_array_equal(x.grad, w.T)
        assert x.grad.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(x.grad, read(y))

    def test_concat_parts_own_their_grads(self):
        rng = np.random.default_rng(24)
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((1, 3, 4))
        w = rng.standard_normal((3, 3, 4))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with GradTape() as tape:
            read = spy_grads(tape)
            y = ad.concat_channels([ta, tb])
            tape.backward(ad.sum_all(ad.mul(y, Tensor(w))))
        np.testing.assert_array_equal(ta.grad, w[:2])
        np.testing.assert_array_equal(tb.grad, w[2:])
        assert not np.shares_memory(ta.grad, read(y))
        assert not np.shares_memory(tb.grad, read(y))

    def test_later_accumulation_leaves_earlier_grads_alone(self):
        # backward replays add first: a and b both get its g. Then mul adds
        # more into a.grad, which must not reach b.grad or the add's g.
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        c = Tensor([10.0, 20.0])
        with GradTape() as tape:
            read = spy_grads(tape)
            m = ad.mul(a, c)
            z = ad.add(a, b)
            tape.backward(ad.add(ad.sum_all(m), ad.sum_all(z)))
        np.testing.assert_array_equal(a.grad, [11.0, 21.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(read(z), [1.0, 1.0])
        read(z)[...] += 100.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_diamond_graph(self):
        x = Tensor([1.5, -2.0], requires_grad=True)
        with GradTape() as tape:
            y = x * x
            loss = ad.sum_all(y + y)
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, 4.0 * x.data)

    def test_second_backward_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = ad.relu(x)
            loss = ad.sum_all(ad.mul(y, y))
            tape.backward(loss)
        # a consumed tape holds nothing; only the leaf keeps its grad
        assert tape._records == []
        assert y.grad is None and loss.grad is None
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])
        with pytest.raises(UsageError):
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_ledger_falls_while_backward_runs(self):
        x = Tensor(np.ones((32, 32)), requires_grad=True)
        live = []
        gc.collect()
        gc.disable()  # only backward may free tensors here
        try:
            with GradTape() as tape:
                record = tape.record
                # reads the ledger as each record starts, holding no tensor
                tape.record = lambda out, bw: record(
                    out, lambda g: (live.append(LEDGER.current_bytes), bw(g)))
                h = x
                for _ in range(4):
                    h = ad.relu(h)
                loss = ad.sum_all(h)
                del h
                tape.backward(loss)
        finally:
            gc.enable()
        # each record run frees one 8 KB relu output, the last only on return
        assert len(live) == 5
        assert all(b - a == -x.data.nbytes for a, b in zip(live[1:], live[2:]))
        assert LEDGER.current_bytes == live[-1] - x.data.nbytes

    def test_failed_construction_frees_nothing(self, monkeypatch):
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        gc.collect()
        before = LEDGER.current_bytes
        with pytest.raises(ValueError):
            Tensor("abc")
        gc.collect()
        assert unraisable == []
        assert LEDGER.current_bytes == before

    def test_backward_needs_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = x + x
            with pytest.raises(UsageError):
                tape.backward(y)

    def test_nested_tapes_rejected(self):
        with GradTape():
            with pytest.raises(UsageError):
                with GradTape():
                    pass

    def test_untracked_branch_gets_no_grad(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0], requires_grad=True)
        with GradTape() as tape:
            _ = x * x
            loss = ad.sum_all(y)
            tape.backward(loss)
        assert x.grad is None
        np.testing.assert_array_equal(y.grad, [1.0])


def pooled_stage(x, kernel, bias):
    return ad.avg_pool2d(ad.relu(ad.conv2d(x, kernel, padding=1, bias=bias)), 2)


def relu_stage(x, kernel, bias):
    return ad.relu(ad.conv2d(x, kernel, padding=1, bias=bias))


def stage_inputs(seed, c_in=3):
    rng = np.random.default_rng(seed)
    return (Tensor(rng.standard_normal((c_in, 8, 6)), requires_grad=True),
            Tensor(rng.standard_normal((4, c_in, 3, 3)), requires_grad=True),
            Tensor(rng.standard_normal(4), requires_grad=True))


class TestSeededBackward:
    def test_matches_scalar_loss_of_seeded_sum(self):
        rng = np.random.default_rng(40)
        a0, b0 = rng.standard_normal((3, 4)), rng.standard_normal((4, 5))
        seed = rng.standard_normal((3, 5))
        grads = []
        for seeded in (True, False):
            a, b = Tensor(a0, requires_grad=True), Tensor(b0, requires_grad=True)
            with GradTape() as tape:
                y = ad.relu(ad.matmul(a, b))
                if seeded:
                    tape.backward(y, seed)
                else:
                    tape.backward(ad.sum_all(ad.mul(y, Tensor(seed))))
            grads.append((a.grad, b.grad))
        for got, want in zip(*grads):
            np.testing.assert_array_equal(got, want)

    def test_seed_must_match_the_output(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with GradTape() as tape:
            y = ad.relu(x)
            with pytest.raises(UsageError, match="seed shape"):
                tape.backward(y, np.ones(3))

    def test_backward_replays_with_recording_off(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        ran = []
        with GradTape() as tape:
            loss = ad.sum_all(ad.relu(x))
            tape.record(loss, lambda g: ran.append(ad.relu(x)))
            tape.backward(loss)
            assert ad._ACTIVE_TAPE is tape
        assert tape._records == []
        assert len(ran) == 1 and not ran[0].requires_grad


class TestCheckpoint:
    def test_stage_gradients_bitwise_equal_to_unwrapped_chain(self):
        # two stages, as the backbone runs them: the first stage's input
        # is not a leaf, and the second reads the first's output
        w = Tensor(np.random.default_rng(41).standard_normal((4, 4, 3)))
        grads = []
        for wrap in (True, False):
            x, k1, b1 = stage_inputs(42)
            _, k2, b2 = stage_inputs(43, c_in=4)
            run = (lambda fn, *t: ad.checkpoint(fn, *t)) if wrap \
                else (lambda fn, *t: fn(*t))
            with GradTape() as tape:
                h = run(pooled_stage, ad.scale(x, 0.5), k1, b1)
                h = run(relu_stage, h, k2, b2)
                loss = ad.sum_all(ad.mul(h, w))
                tape.backward(loss)
            grads.append([loss.item(), x.grad, k1.grad, b1.grad, k2.grad,
                          b2.grad])
        assert grads[0][0] == grads[1][0]
        for got, want in zip(grads[0][1:], grads[1][1:]):
            np.testing.assert_array_equal(got, want)

    def test_one_record_per_checkpoint(self):
        x, kernel, bias = stage_inputs(43)
        before = LEDGER.current_bytes
        with GradTape() as tape:
            y = ad.checkpoint(pooled_stage, x, kernel, bias)
            # the conv and relu maps died with the forward
            assert LEDGER.current_bytes - before == y.data.nbytes
            assert [out for out, _ in tape._records] == [y]
        assert y.requires_grad

    def test_gradcheck_passes_through_checkpoint(self):
        x, kernel, bias = stage_inputs(44)
        err = ad.gradcheck(lambda *t: ad.checkpoint(pooled_stage, *t),
                           [x.data, kernel.data, bias.data])
        assert err < 1e-6

    def test_without_tape_records_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a tape was used")

        monkeypatch.setattr(GradTape, "__enter__", refuse)
        monkeypatch.setattr(GradTape, "record", refuse)
        x, kernel, bias = stage_inputs(45)
        y = ad.checkpoint(pooled_stage, x, kernel, bias)
        assert not y.requires_grad
        np.testing.assert_array_equal(y.data, pooled_stage(x, kernel, bias).data)

    def test_forward_error_restores_the_tape(self):
        with GradTape() as tape:
            with pytest.raises(DimensionError):
                ad.checkpoint(ad.transpose, Tensor(np.ones(3), requires_grad=True))
            assert ad._ACTIVE_TAPE is tape


class TestMatmul:
    def test_identity_and_hand_product(self):
        m = Tensor([[3.0, 4.0], [5.0, 6.0]])
        np.testing.assert_array_equal(ad.matmul(Tensor(np.eye(2)), m).data, m.data)
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])
        z = Tensor(np.zeros((2, 2)))
        np.testing.assert_array_equal(ad.matmul(z, b).data, 0.0)

    def test_forward_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        for m, k, n in [(1, 1, 1), (2, 3, 4), (5, 7, 2), (4, 4, 4)]:
            a = rng.standard_normal((m, k))
            b = rng.standard_normal((k, n))
            got = ad.matmul(Tensor(a), Tensor(b)).data
            np.testing.assert_allclose(got, matmul_oracle(a, b), atol=1e-12)

    def test_backward_matches_differences(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        assert_grads_match(ad.matmul, [a, b])

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


class TestSoftmax:
    def test_constant_row_is_uniform(self):
        for c in (-7.0, 0.0, 3.5, 1000.0):
            got = ad.softmax_rows(Tensor([[c, c, c, c]])).data
            np.testing.assert_allclose(got, 0.25, atol=1e-12)

    def test_log_two_row(self):
        got = ad.softmax_rows(Tensor([[0.0, math.log(2.0)]])).data
        np.testing.assert_allclose(got, [[1 / 3, 2 / 3]], atol=1e-12)

    def test_forward_matches_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 7)) * 3
        got = ad.softmax_rows(Tensor(x)).data
        np.testing.assert_allclose(got, softmax_oracle(x), atol=1e-12)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, atol=1e-12)

    def test_large_logits_stay_finite(self):
        x = np.array([[1e9, 1e9 + 1.0, 1e9 - 2.0]])
        got = ad.softmax_rows(Tensor(x)).data
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, softmax_oracle(x - 1e9), atol=1e-12)

    def test_backward_matches_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 5))
        assert_grads_match(ad.softmax_rows, [x])

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            ad.softmax_rows(Tensor(np.ones(4)))


def sdpa_chain(q, k, v, keep=None):
    """The op chain `ad.sdpa` fuses, as scaled_dot_attention once built it."""
    s = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(q.shape[1]))
    if keep is not None:
        s = ad.masked_fill(s, keep, ad.MASKED_SCORE)
    return ad.matmul(ad.softmax_rows(s), v)


def assert_near_chain(got, want):
    """sdpa against its op chain: it scales the queries and divides the
    output rows, so it agrees to rounding, 1e-12 of the largest value."""
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


def _sdpa_masks(n_q, n_k):
    rng = np.random.default_rng(12)
    row = rng.random((1, n_k)) < 0.5
    row[0, 2] = True
    full = rng.random((n_q, n_k)) < 0.4
    full[np.arange(n_q), rng.integers(0, n_k, n_q)] = True
    return {"none": None, "row": row, "full": full,
            "all_allowed": np.ones((n_q, n_k), dtype=bool)}


SDPA_MASKS = _sdpa_masks(5, 7)


def _sdpa_grads(fn, arrays, keep, w):
    """fn's output and the gradients of sum(out * w) on q, k and v."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    with GradTape() as tape:
        out = fn(*tensors, keep)
        tape.backward(ad.sum_all(ad.mul(out, Tensor(w))))
    return out.data, [t.grad for t in tensors]


class TestSdpa:
    def _qkv(self, seed=5):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((5, 3)), rng.standard_normal((7, 3)),
                rng.standard_normal((7, 4)))

    def _run(self, fn, arrays, keep):
        w = np.random.default_rng(9).random((5, 4)) + 0.5
        return _sdpa_grads(fn, arrays, keep, w)

    @pytest.mark.parametrize("mask", sorted(SDPA_MASKS))
    def test_bitwise_equal_to_op_chain(self, mask):
        keep = SDPA_MASKS[mask]
        arrays = self._qkv()
        got, got_grads = self._run(ad.sdpa, arrays, keep)
        want, want_grads = self._run(sdpa_chain, arrays, keep)
        assert_near_chain(got, want)
        for g, w in zip(got_grads, want_grads):
            assert_near_chain(g, w)

    def test_all_allowed_mask_equals_no_mask(self):
        # a full mask of True, and a row mask that keeps every key
        arrays = self._qkv()
        plain, plain_grads = self._run(ad.sdpa, arrays, None)
        for keep in (SDPA_MASKS["all_allowed"], np.ones((1, 7), dtype=bool)):
            full, full_grads = self._run(ad.sdpa, arrays, keep)
            assert plain.tobytes() == full.tobytes()
            for g, w in zip(plain_grads, full_grads):
                assert g.tobytes() == w.tobytes()

    def test_masked_keys_get_no_weight(self):
        q, k, v = self._qkv()
        keep = SDPA_MASKS["row"]
        out = ad.sdpa(Tensor(q), Tensor(k), Tensor(v), keep).data
        kept = keep[0]
        scores = q @ k[kept].T / math.sqrt(3)
        np.testing.assert_allclose(out, softmax_oracle(scores) @ v[kept],
                                   atol=1e-12)

    @pytest.mark.parametrize("mask", ["row", "full"])
    def test_dropped_keys_get_zero_gradient(self, mask):
        keep = SDPA_MASKS[mask]
        if mask == "full":
            keep = keep.copy()
            keep[:, 0] = False
        dropped = ~keep.any(axis=0)
        assert dropped.any() and not dropped.all()
        _, (_, gk, gv) = self._run(ad.sdpa, self._qkv(), keep)
        assert not gk[dropped].any() and not gv[dropped].any()
        assert gk[~dropped].any() and gv[~dropped].any()

    @pytest.mark.parametrize("mask", ["none", "row", "full"])
    def test_backward_matches_differences(self, mask):
        keep = SDPA_MASKS[mask]
        assert_grads_match(lambda q, k, v: ad.sdpa(q, k, v, keep),
                           list(self._qkv(seed=6)))

    def test_shared_input_accumulates_all_three_gradients(self):
        x = np.random.default_rng(8).standard_normal((6, 6))
        assert_grads_match(lambda t: ad.sdpa(t, t, t), [x.copy()])
        got = Tensor(x, requires_grad=True)
        want = Tensor(x, requires_grad=True)
        for t, fn in ((got, ad.sdpa), (want, sdpa_chain)):
            with GradTape() as tape:
                tape.backward(ad.sum_all(fn(t, t, t)))
        assert_near_chain(got.grad, want.grad)

    def test_one_tape_record(self):
        q, k, v = (Tensor(a, requires_grad=True) for a in self._qkv())
        with GradTape() as tape:
            ad.sdpa(q, k, v, SDPA_MASKS["full"])
        assert len(tape._records) == 1

    @pytest.mark.parametrize("mask", ["none", "row", "full"])
    def test_one_block_untaped_is_bitwise_equal_to_op_chain(self, mask):
        n_q, n_k = ad.SDPA_BLOCK_ROWS, 9
        rng = np.random.default_rng(13)
        q, k, v = (Tensor(rng.standard_normal(s))
                   for s in ((n_q, 3), (n_k, 3), (n_k, 4)))
        keep = _sdpa_masks(n_q, n_k)[mask]
        assert_near_chain(ad.sdpa(q, k, v, keep).data,
                          sdpa_chain(q, k, v, keep).data)

    @pytest.mark.parametrize("mask", ["none", "row", "full"])
    def test_streamed_blocks_match_op_chain(self, mask):
        # three blocks, the last one three rows tall
        n_q, n_k = 2 * ad.SDPA_BLOCK_ROWS + 3, 11
        rng = np.random.default_rng(14)
        arrays = (rng.standard_normal((n_q, 3)), rng.standard_normal((n_k, 3)),
                  rng.standard_normal((n_k, 4)))
        keep = _sdpa_masks(n_q, n_k)[mask]
        untaped = ad.sdpa(*(Tensor(a) for a in arrays), keep).data
        want = sdpa_chain(*(Tensor(a) for a in arrays), keep).data
        np.testing.assert_allclose(untaped, want, rtol=0, atol=1e-12)

        w = rng.random((n_q, 4)) + 0.5
        results = [_sdpa_grads(fn, arrays, keep, w)
                   for fn in (ad.sdpa, sdpa_chain)]
        (got, got_grads), (want, want_grads) = results
        for g, w in zip([got] + got_grads, [want] + want_grads):
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
        # a row's arithmetic does not depend on its block
        assert untaped.tobytes() == got.tobytes()

    @pytest.mark.parametrize("n_q, n_k, d, masked", [
        (2304, 2304, 16, False),   # whole-image local self-attention
        (256, 64, 16, True),       # a tile's local queries on global keys
    ])
    def test_matches_op_chain_at_workload_shapes(self, n_q, n_k, d, masked):
        rng = np.random.default_rng(15)
        arrays = (rng.standard_normal((n_q, d)), rng.standard_normal((n_k, d)),
                  rng.standard_normal((n_k, d)))
        keep = None
        if masked:
            keep = np.zeros((1, n_k), dtype=bool)
            keep[0, rng.choice(n_k, 16, replace=False)] = True
        assert_near_chain(ad.sdpa(*(Tensor(a) for a in arrays), keep).data,
                          sdpa_chain(*(Tensor(a) for a in arrays), keep).data)
        if masked:
            w = rng.random((n_q, d)) + 0.5
            got = _sdpa_grads(ad.sdpa, arrays, keep, w)
            want = _sdpa_grads(sdpa_chain, arrays, keep, w)
            for g, w in zip([got[0]] + got[1], [want[0]] + want[1]):
                assert_near_chain(g, w)

    # the backward takes rowsum(dP * P) as rowsum(g * out) and scales the
    # query gradient, not the score gradient, by 1/sqrt(d)
    @pytest.mark.parametrize("mask", ["none", "row", "full"])
    def test_backward_matches_op_chain_at_tile_shape(self, mask):
        n_q, n_k, d = 256, 64, 16
        rng = np.random.default_rng(16)
        arrays = (rng.standard_normal((n_q, d)) * 2.0,
                  rng.standard_normal((n_k, d)), rng.standard_normal((n_k, d)))
        keep = _sdpa_masks(n_q, n_k)[mask]
        w = rng.random((n_q, d)) + 0.5
        got = _sdpa_grads(ad.sdpa, arrays, keep, w)[1]
        want = _sdpa_grads(sdpa_chain, arrays, keep, w)[1]
        for g, w in zip(got, want):
            assert_near_chain(g, w)

    def test_rejects_bad_shapes(self):
        q, k, v = (Tensor(a) for a in self._qkv())
        with pytest.raises(DimensionError, match="sdpa"):
            ad.sdpa(q, Tensor(np.ones((7, 2))), v)
        with pytest.raises(DimensionError, match="sdpa"):
            ad.sdpa(q, k, Tensor(np.ones((6, 4))))
        with pytest.raises(DimensionError, match="sdpa: keep"):
            ad.sdpa(q, k, v, np.ones((2, 7), dtype=bool))
        with pytest.raises(DimensionError, match="sdpa: keep"):
            ad.sdpa(q, k, v, np.ones((1, 6), dtype=bool))
        with pytest.raises(DimensionError, match="sdpa: keep allows no key"):
            ad.sdpa(q, k, v, np.zeros((1, 7), dtype=bool))


class TestConv2d:
    def test_forward_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6, 7))
        k = rng.standard_normal((4, 3, 3, 3))
        for pad in (0, 1, 2):
            got = ad.conv2d(Tensor(x), Tensor(k), padding=pad).data
            np.testing.assert_allclose(got, conv2d_oracle(x, k, pad), atol=1e-10)

    def test_forward_with_bias(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 5, 5))
        k = rng.standard_normal((3, 2, 1, 1))
        b = rng.standard_normal(3)
        got = ad.conv2d(Tensor(x), Tensor(k), padding=0, bias=Tensor(b)).data
        np.testing.assert_allclose(got, conv2d_oracle(x, k, 0, b), atol=1e-10)

    def test_backward_matches_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 5, 6))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        assert_grads_match(
            lambda xx, kk, bb: ad.conv2d(xx, kk, padding=1, bias=bb), [x, k, b])

    @pytest.mark.parametrize("kh,kw", [(1, 1), (2, 2), (3, 3), (1, 3)])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("with_bias", [False, True])
    def test_backward_kernel_and_padding_grid(self, kh, kw, pad, with_bias):
        # non-square input; (1, 1) with pad >= 1 has padding > k-1
        rng = np.random.default_rng(100 + 10 * kh + kw + pad)
        x = rng.standard_normal((2, 5, 7))
        k = rng.standard_normal((3, 2, kh, kw))
        arrays = [x, k]
        if with_bias:
            arrays.append(rng.standard_normal(3))
        assert_grads_match(
            lambda xx, kk, *bb: ad.conv2d(xx, kk, padding=pad,
                                          bias=bb[0] if bb else None),
            [a.copy() for a in arrays])

        tx = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            out = ad.conv2d(tx, Tensor(k), padding=pad)
            g = rng.standard_normal(out.shape)
            tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
        np.testing.assert_allclose(
            tx.grad, conv2d_input_grad_oracle(g, k, 5, 7, pad), atol=1e-12)

    @pytest.mark.parametrize("kh,kw", [(1, 1), (2, 2), (3, 3), (1, 3)])
    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("with_bias", [False, True])
    @pytest.mark.parametrize("c,o", [(4, 2), (2, 5)])
    def test_forward_kernel_and_padding_grid(self, kh, kw, pad, with_bias,
                                             c, o):
        rng = np.random.default_rng(200 + 10 * kh + kw + pad + c)
        x = rng.standard_normal((c, 5, 7))
        k = rng.standard_normal((o, c, kh, kw))
        b = rng.standard_normal(o) if with_bias else None
        got = ad.conv2d(Tensor(x), Tensor(k), padding=pad,
                        bias=None if b is None else Tensor(b)).data
        np.testing.assert_allclose(got, conv2d_oracle(x, k, pad, b),
                                   rtol=0, atol=1e-10)

    def test_even_kernel_sum(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        k = Tensor(np.ones((1, 1, 2, 2)))
        np.testing.assert_array_equal(ad.conv2d(x, k).data, [[[10.0]]])

    def test_identity_kernel_with_same_padding(self):
        rng = np.random.default_rng(40)
        x = rng.standard_normal((1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        got = ad.conv2d(Tensor(x), Tensor(k), padding=1).data
        np.testing.assert_array_equal(got, x)

    def test_zero_kernel_gives_zero(self):
        x = Tensor(np.random.default_rng(41).standard_normal((2, 4, 4)))
        k = Tensor(np.zeros((3, 2, 3, 3)))
        np.testing.assert_array_equal(ad.conv2d(x, k, padding=1).data, 0.0)

    def test_rejects_channel_mismatch(self):
        with pytest.raises(DimensionError):
            ad.conv2d(Tensor(np.ones((2, 4, 4))), Tensor(np.ones((1, 3, 3, 3))))

    def test_rejects_kernel_larger_than_input(self):
        with pytest.raises(DimensionError):
            ad.conv2d(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 1, 5, 5))))


class TestPoolAndResize:
    def test_avg_pool_hand_case(self):
        x = Tensor([[[1.0, 2.0], [3.0, 4.0]]])
        np.testing.assert_array_equal(ad.avg_pool2d(x, 2).data, [[[2.5]]])

    def test_relu_sign_cases(self):
        got = ad.relu(Tensor([-1.0, 0.0, 2.0])).data
        np.testing.assert_array_equal(got, [0.0, 0.0, 2.0])

    def test_avg_pool_matches_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 6, 12))
        for f in (1, 2, 3, 6):
            got = ad.avg_pool2d(Tensor(x), f).data
            np.testing.assert_allclose(got, avg_pool_oracle(x, f), atol=1e-12)

    def test_avg_pool_backward(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 4, 4))
        assert_grads_match(lambda t: ad.avg_pool2d(t, 2), [x])

    def test_avg_pool_rejects_indivisible(self):
        with pytest.raises(DimensionError):
            ad.avg_pool2d(Tensor(np.ones((1, 5, 4))), 2)

    def test_bilinear_matches_oracle(self):
        rng = np.random.default_rng(10)
        cases = [((7, 5), dst) for dst in [(5, 9), (14, 10), (3, 3), (1, 1)]]
        cases += [
            ((6, 7), (6, 7)),      # identity
            ((8, 6), (3, 2)),      # down, rows skipped
            ((4, 3), (9, 8)),      # up
            ((5, 9), (12, 4)),     # non-square, up in y and down in x
            ((1, 5), (4, 3)),      # 1-pixel rows
            ((5, 1), (2, 6)),      # 1-pixel columns
            ((1, 1), (3, 2)),      # one pixel
        ]
        for src, (th, tw) in cases:
            x = rng.standard_normal((2,) + src)
            got = ad.bilinear_resize(Tensor(x), th, tw).data
            np.testing.assert_allclose(got, bilinear_oracle(x, th, tw), atol=1e-9)

    @pytest.mark.parametrize("src,dst", [
        ((6, 7), (6, 7)),      # identity
        ((8, 6), (3, 2)),      # down, rows skipped
        ((4, 3), (9, 8)),      # up
        ((5, 9), (12, 4)),     # non-square, up in y and down in x
        ((1, 5), (4, 3)),      # 1-pixel rows
        ((5, 1), (2, 6)),      # 1-pixel columns
        ((1, 1), (3, 2)),      # one pixel
    ])
    def test_bilinear_forward_equals_four_corner_form(self, src, dst):
        # The separable product sums the same two-tap convex combinations
        # as the lerp form in another order, so each output lies within a
        # few ulp of the largest input.
        x = np.random.default_rng(14).standard_normal((3,) + src)
        atol = 4 * np.finfo(np.float64).eps * np.abs(x).max()
        np.testing.assert_allclose(ad.bilinear_resize(Tensor(x), *dst).data,
                                   bilinear_four_corner(x, *dst), rtol=0, atol=atol)

    def test_bilinear_identity_is_exact(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 6, 7))
        got = ad.bilinear_resize(Tensor(x), 6, 7).data
        np.testing.assert_array_equal(got, x)

    def test_bilinear_constant_round_trip_exact(self):
        x = np.full((1, 8, 8), 0.37)
        down = ad.bilinear_resize(Tensor(x), 3, 3)
        up = ad.bilinear_resize(down, 8, 8)
        np.testing.assert_array_equal(up.data, x)

    def test_bilinear_backward(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 5, 4))
        assert_grads_match(lambda t: ad.bilinear_resize(t, 7, 3), [x])
        assert_grads_match(lambda t: ad.bilinear_resize(t, 3, 6), [x])

    @pytest.mark.parametrize("src,dst", [
        ((6, 7), (6, 7)),      # identity
        ((8, 6), (4, 3)),      # exact 2x down
        ((4, 3), (9, 8)),      # upsampling
        ((1, 5), (4, 3)),      # 1-pixel rows: r0 == r1 everywhere
        ((5, 1), (2, 6)),      # 1-pixel columns
    ])
    def test_bilinear_backward_matches_adjoint_oracle(self, src, dst):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2,) + src)
        g = rng.standard_normal((2,) + dst)
        tx = Tensor(x, requires_grad=True)
        with GradTape() as tape:
            out = ad.bilinear_resize(tx, *dst)
            tape.backward(ad.sum_all(ad.mul(out, Tensor(g))))
        np.testing.assert_allclose(tx.grad, bilinear_adjoint_oracle(g, *src),
                                   rtol=1e-12, atol=1e-12)
        if src == dst:
            np.testing.assert_array_equal(tx.grad, g)

    # a shrink puts weight on only some source rows and columns; the
    # forward multiplies just those and must agree with the dense product
    @pytest.mark.parametrize("src,dst", [
        ((64, 64), (5, 5)),      # square
        ((96, 96), (32, 32)),    # integer factor: zero-weight taps dropped
        ((40, 24), (6, 3)),      # non-square
        ((1, 9), (1, 2)),        # 1-pixel rows, every row read
        ((8, 8), (1, 1)),        # down to one pixel
        ((97, 89), (7, 5)),      # prime sizes
    ])
    def test_bilinear_shrink_reads_a_subset_like_the_dense_product(
            self, src, dst):
        x = np.random.default_rng(15).standard_normal((3,) + src)
        ry = ad._resize_matrix(src[0], dst[0])
        rx = ad._resize_matrix(src[1], dst[1])
        read, cols = ad._resize_reads(src[1], dst[1])
        assert read.size < src[1] and not cols.flags.writeable
        np.testing.assert_allclose(ad.bilinear_resize(Tensor(x), *dst).data,
                                   ry @ (x @ rx.T), rtol=0, atol=1e-12)

    def test_bilinear_rejects_bad_target(self):
        with pytest.raises(DimensionError):
            ad.bilinear_resize(Tensor(np.ones((1, 4, 4))), 0, 4)

    def test_resize_tables_are_shared_and_read_only(self):
        tables = [(ad._resize_matrix, (16, 32)), (ad._pool_matrix, (32, 2)),
                  (model._window_taps, (8, 64, 24, 16, 3))]
        for build, key in tables:
            m = build(*key)
            assert build(*key) is m
            assert not m.flags.writeable
            with pytest.raises(ValueError):
                m[0] = 0


class TestElementwise:
    def test_add_sub_mul_scale_relu_backward(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 4)) + 0.1
        b = rng.standard_normal((3, 4)) + 0.1
        assert_grads_match(ad.add, [a.copy(), b.copy()])
        assert_grads_match(ad.sub, [a.copy(), b.copy()])
        assert_grads_match(ad.mul, [a.copy(), b.copy()])
        assert_grads_match(lambda t: ad.scale(t, -2.5), [a.copy()])
        shifted = a + np.sign(a) * 0.05  # keep clear of the kink at zero
        assert_grads_match(ad.relu, [shifted])

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            ad.add(Tensor(np.ones(3)), Tensor(np.ones(4)))

    def test_log_clamps_below_floor(self):
        x = Tensor(np.array([1e-20, 1.0]), requires_grad=True)
        with GradTape() as tape:
            y = ad.log(x)
            loss = ad.sum_all(y)
            tape.backward(loss)
        assert y.data[0] == math.log(1e-12)
        assert x.grad[0] == 0.0
        np.testing.assert_allclose(x.grad[1], 1.0)

    def test_log_backward(self):
        rng = np.random.default_rng(14)
        x = rng.random((3, 3)) + 0.5
        assert_grads_match(ad.log, [x])

    def test_power_values_and_grads(self):
        rng = np.random.default_rng(15)
        x = rng.random((2, 3)) + 0.5
        for p in (1.0, 2.0, 3.0, 6.0):
            np.testing.assert_allclose(ad.power(Tensor(x), p).data, x ** p)
            assert_grads_match(lambda t, pp=p: ad.power(t, pp), [x.copy()])

    def test_power_zero_exponent(self):
        x = Tensor(np.array([0.3, 2.0]), requires_grad=True)
        with GradTape() as tape:
            y = ad.power(x, 0.0)
            loss = ad.sum_all(y)
            tape.backward(loss)
        np.testing.assert_array_equal(y.data, [1.0, 1.0])
        assert x.grad is None or not x.grad.any()

    def test_sqrt_backward(self):
        rng = np.random.default_rng(16)
        x = rng.random((3, 2)) + 0.25
        np.testing.assert_allclose(ad.sqrt(Tensor(x)).data, np.sqrt(x))
        assert_grads_match(ad.sqrt, [x])

    def test_sqrt_at_zero_stays_finite(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        with GradTape() as tape:
            loss = ad.sum_all(ad.sqrt(x))
            tape.backward(loss)
        assert np.isfinite(x.grad).all()

    def test_sum_and_mean(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 5))
        assert ad.sum_all(Tensor(a)).item() == pytest.approx(a.sum(), abs=1e-12)
        assert ad.mean_all(Tensor(a)).item() == pytest.approx(a.mean(), abs=1e-12)
        x = Tensor(a, requires_grad=True)
        with GradTape() as tape:
            loss = ad.mean_all(x)
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, np.full_like(a, 1.0 / a.size))

    def test_transpose_and_reshape(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((3, 5))
        np.testing.assert_array_equal(ad.transpose(Tensor(a)).data, a.T)
        assert_grads_match(ad.transpose, [a.copy()])
        assert_grads_match(lambda t: ad.reshape(t, (5, 3)), [a.copy()])
        with pytest.raises(DimensionError):
            ad.reshape(Tensor(a), (4, 4))
        with pytest.raises(DimensionError):
            ad.transpose(Tensor(np.ones((2, 2, 2))))

    def test_concat_channels(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((2, 4, 4))
        b = rng.standard_normal((3, 4, 4))
        got = ad.concat_channels([Tensor(a), Tensor(b)]).data
        np.testing.assert_array_equal(got, np.concatenate([a, b], axis=0))
        assert_grads_match(lambda x, y: ad.concat_channels([x, y]), [a, b])
        with pytest.raises(DimensionError):
            ad.concat_channels([Tensor(a), Tensor(np.ones((1, 3, 4)))])
        with pytest.raises(DimensionError):
            ad.concat_channels([])

    def test_narrow(self):
        a = np.random.default_rng(21).standard_normal((2, 6, 3, 3))
        got = ad.narrow(Tensor(a), 1, 2, 5).data
        np.testing.assert_array_equal(got, a[:, 2:5])
        assert got.flags["C_CONTIGUOUS"]
        assert_grads_match(lambda t: ad.narrow(t, 1, 2, 5), [a.copy()])
        assert_grads_match(lambda t: ad.narrow(t, 0, 1, 2), [a.copy()])


class TestGradcheck:
    def test_clean_gradient_passes(self):
        rng = np.random.default_rng(20)
        x = rng.standard_normal((3, 4))

        def f(t):
            return ad.mul(t, t)

        assert ad.gradcheck(f, [x]) < 1e-7

    def test_composite_function_passes(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))

        def f(ta, tb):
            return ad.softmax_rows(ad.matmul(ta, tb))

        assert ad.gradcheck(f, [a, b]) < 1e-6

    def test_corrupted_gradient_fails(self, scale_matmul_input_grad):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        scale_matmul_input_grad(1.05)
        err = ad.gradcheck(ad.matmul, [a, b])
        assert err > 1e-3

    def test_casts_inputs_to_double(self):
        seen = []

        def f(t):
            seen.append(t.data.dtype)
            return ad.mul(t, t)

        x = np.random.default_rng(23).standard_normal((2, 3))
        assert ad.gradcheck(f, [x.astype(np.float32)]) < 1e-7
        assert set(seen) == {np.dtype(np.float64)}

    def test_rejects_bad_epsilon(self):
        with pytest.raises(UsageError):
            ad.gradcheck(lambda t: t, [np.ones(2)], epsilon=0.0)
