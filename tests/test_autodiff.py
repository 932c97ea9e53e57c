"""Tensor core: forward values against loop oracles, backwards against
central differences computed independently of the library's own checker."""

import math

import numpy as np
import pytest

import dualseg.autodiff as ad
from dualseg.autodiff import GradTape, Tensor
from dualseg.errors import DimensionError, UsageError


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


# ---------------------------------------------------------------------------


class TestTensorBasics:
    def test_default_dtype_is_double(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

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

    def test_detach_copies(self):
        t = Tensor([1.0, 2.0])
        d = t.detach()
        d.data[0] = 9.0
        assert t.data[0] == 1.0


class TestTapeSemantics:
    def test_ops_outside_tape_do_not_track(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = ad.relu(x)
        assert not y.requires_grad

    def test_reused_input_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with GradTape() as tape:
            y = x + x
            loss = ad.sum_all(y)
            tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [2.0])
        # add hands one g to both inputs; the stored grad must be a copy
        np.testing.assert_array_equal(y.grad, [1.0])
        assert not np.shares_memory(x.grad, y.grad)

    def test_first_grad_from_transposed_view(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3, 5))
        w = rng.standard_normal((5, 3))
        x = Tensor(a, requires_grad=True)
        with GradTape() as tape:
            y = ad.transpose(x)
            tape.backward(ad.sum_all(ad.mul(y, Tensor(w))))
        np.testing.assert_array_equal(x.grad, w.T)
        assert x.grad.flags["C_CONTIGUOUS"]
        assert not np.shares_memory(x.grad, y.grad)

    def test_concat_parts_own_their_grads(self):
        rng = np.random.default_rng(24)
        a, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((1, 3, 4))
        w = rng.standard_normal((3, 3, 4))
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        with GradTape() as tape:
            y = ad.concat_channels([ta, tb])
            tape.backward(ad.sum_all(ad.mul(y, Tensor(w))))
        np.testing.assert_array_equal(ta.grad, w[:2])
        np.testing.assert_array_equal(tb.grad, w[2:])
        assert not np.shares_memory(ta.grad, y.grad)
        assert not np.shares_memory(tb.grad, y.grad)

    def test_later_accumulation_leaves_earlier_grads_alone(self):
        # backward replays add first: a and b both get its g. Then mul adds
        # more into a.grad, which must not reach b.grad or the add's g.
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        c = Tensor([10.0, 20.0])
        with GradTape() as tape:
            m = ad.mul(a, c)
            z = ad.add(a, b)
            tape.backward(ad.add(ad.sum_all(m), ad.sum_all(z)))
        np.testing.assert_array_equal(a.grad, [11.0, 21.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])
        np.testing.assert_array_equal(z.grad, [1.0, 1.0])
        z.grad += 100.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_diamond_graph(self):
        x = Tensor([1.5, -2.0], requires_grad=True)
        with GradTape() as tape:
            y = x * x
            loss = ad.sum_all(y + y)
            tape.backward(loss)
        np.testing.assert_allclose(x.grad, 4.0 * x.data)

    def test_second_backward_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with GradTape() as tape:
            loss = ad.sum_all(x)
            tape.backward(loss)
        with pytest.raises(UsageError):
            tape.backward(loss)

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
        x = rng.standard_normal((3, 6, 8))
        got = ad.avg_pool2d(Tensor(x), 2).data
        np.testing.assert_allclose(got, avg_pool_oracle(x, 2), atol=1e-12)

    def test_avg_pool_backward(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 4, 4))
        assert_grads_match(lambda t: ad.avg_pool2d(t, 2), [x])

    def test_avg_pool_rejects_indivisible(self):
        with pytest.raises(DimensionError):
            ad.avg_pool2d(Tensor(np.ones((1, 5, 4))), 2)

    def test_bilinear_matches_oracle(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 7, 5))
        for th, tw in [(5, 9), (14, 10), (3, 3), (1, 1)]:
            got = ad.bilinear_resize(Tensor(x), th, tw).data
            np.testing.assert_allclose(got, bilinear_oracle(x, th, tw), atol=1e-9)

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

    def test_bilinear_rejects_bad_target(self):
        with pytest.raises(DimensionError):
            ad.bilinear_resize(Tensor(np.ones((1, 4, 4))), 0, 4)


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

    def test_rejects_bad_epsilon(self):
        with pytest.raises(UsageError):
            ad.gradcheck(lambda t: t, [np.ones(2)], epsilon=0.0)
