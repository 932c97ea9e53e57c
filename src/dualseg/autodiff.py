"""Dense tensors with reverse-mode differentiation.

A Tensor wraps a numpy array, float64 throughout. Differentiable
operations are plain functions; when a GradTape is active and an input
tracks gradients, the operation appends a record to the tape.
`GradTape.backward` replays the records in exact reverse execution
order, accumulating `.grad` arrays on every tracked tensor. A tape is
single-use: backward on a consumed tape raises.

All public operations keep finite inputs finite (softmax subtracts the
row max, logarithms clamp their argument), and everything is serial and
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, UsageError
from .memory import LEDGER


class Tensor:
    """Dense n-dimensional array, row-major, optionally gradient-tracked."""

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype or np.float64)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        # Only buffers we own count toward the ledger; views count zero.
        if arr.base is None:
            nbytes = arr.nbytes
            LEDGER.on_alloc(nbytes)
            weakref.finalize(self, LEDGER.on_free, nbytes)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # An owned copy: `g` may be a view, or be handed to several
            # inputs at once (add(x, x)), so it must never be aliased.
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, requires_grad={self.requires_grad})"

    # Small conveniences; the full op set lives at module level.
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def zeros(shape, requires_grad=False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def init_uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Seeded weight init, uniform in [-sqrt(1/fan_in), +sqrt(1/fan_in)]."""
    s = math.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-s, s, size=shape), requires_grad=True)


class _Record:
    __slots__ = ("output", "backward_fn")

    def __init__(self, output: Tensor, backward_fn: Callable[[np.ndarray], None]):
        self.output = output
        self.backward_fn = backward_fn


class GradTape:
    """Ordered record of executed differentiable operations.

    Use as a context manager around the forward pass, then call
    `backward(loss)` once. Records replay in exact reverse execution
    order; a second backward raises UsageError.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._consumed = False

    def __enter__(self) -> "GradTape":
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise UsageError("nested gradient tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def record(self, output: Tensor, backward_fn: Callable[[np.ndarray], None]) -> None:
        self._records.append(_Record(output, backward_fn))

    def backward(self, loss: Tensor) -> None:
        """Populate `.grad` on every tensor reachable from `loss`."""
        if self._consumed:
            raise UsageError("tape already consumed; rebuild the forward pass")
        if loss.data.size != 1:
            raise UsageError(f"backward needs a scalar loss, got shape {tuple(loss.shape)}")
        self._consumed = True
        loss.grad = np.ones_like(loss.data)
        for rec in reversed(self._records):
            g = rec.output.grad
            if g is None:
                continue
            rec.backward_fn(g)


_ACTIVE_TAPE: Optional[GradTape] = None


def _maybe_record(inputs: Sequence[Tensor], output: Tensor,
                  backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        output.requires_grad = True
        tape.record(output, backward_fn)
    return output


# ---------------------------------------------------------------------------
# elementwise and shape ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"add: shapes {tuple(a.shape)} and {tuple(b.shape)} differ")
    out = Tensor(a.data + b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)

    return _maybe_record((a, b), out, bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise DimensionError(f"sub: shapes {tuple(a.shape)} and {tuple(b.shape)} differ")
    out = Tensor(a.data - b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(-g)

    return _maybe_record((a, b), out, bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product."""
    if a.shape != b.shape:
        raise DimensionError(f"mul: shapes {tuple(a.shape)} and {tuple(b.shape)} differ")
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * b.data)
        if b.requires_grad:
            b.accumulate_grad(g * a.data)

    return _maybe_record((a, b), out, bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.data * c)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * c)

    return _maybe_record((a,), out, bw)


def relu(a: Tensor) -> Tensor:
    out = Tensor(np.maximum(a.data, 0.0))

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g * (a.data > 0))

    return _maybe_record((a,), out, bw)


def log(a: Tensor, floor: float = 1e-12) -> Tensor:
    """Natural log with the argument clamped to `floor` from below."""
    clamped = np.maximum(a.data, floor)
    out = Tensor(np.log(clamped))

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.where(a.data >= floor, g / clamped, 0.0))

    return _maybe_record((a,), out, bw)


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for p >= 1 or p == 0 (p == 0 gives ones, zero grad)."""
    p = float(p)
    out = Tensor(np.ones_like(a.data) if p == 0.0 else a.data ** p)

    def bw(g):
        if a.requires_grad:
            if p == 0.0:
                return
            a.accumulate_grad(g * p * a.data ** (p - 1.0))

    return _maybe_record((a,), out, bw)


def sqrt(a: Tensor) -> Tensor:
    root = np.sqrt(a.data)
    out = Tensor(root)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g / (2.0 * np.maximum(root, 1e-12)))

    return _maybe_record((a,), out, bw)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum())

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g)))

    return _maybe_record((a,), out, bw)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = Tensor(a.data.sum() / n)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(np.full_like(a.data, float(g) / n))

    return _maybe_record((a,), out, bw)


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise DimensionError(f"transpose expects a matrix, got shape {tuple(a.shape)}")
    out = Tensor(a.data.T)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.T)

    return _maybe_record((a,), out, bw)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != a.size:
        raise DimensionError(f"reshape: cannot view {tuple(a.shape)} as {shape}")
    out = Tensor(a.data.reshape(shape))
    src_shape = a.shape

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(src_shape))

    return _maybe_record((a,), out, bw)


def concat_channels(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate [C_i, H, W] maps along the channel axis."""
    if not parts:
        raise DimensionError("concat_channels: empty input list")
    hw = parts[0].shape[1:]
    for t in parts:
        if t.ndim != 3 or t.shape[1:] != hw:
            raise DimensionError(
                f"concat_channels: spatial dims differ ({[tuple(t.shape) for t in parts]})")
    out = Tensor(np.concatenate([t.data for t in parts], axis=0))
    sizes = [t.shape[0] for t in parts]

    def bw(g):
        off = 0
        for t, c in zip(parts, sizes):
            if t.requires_grad:
                t.accumulate_grad(g[off:off + c])
            off += c

    return _maybe_record(tuple(parts), out, bw)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(
            f"matmul: incompatible shapes {tuple(a.shape)} x {tuple(b.shape)}")
    out = Tensor(a.data @ b.data)

    def bw(g):
        if a.requires_grad:
            a.accumulate_grad(g @ b.data.T)
        if b.requires_grad:
            b.accumulate_grad(a.data.T @ g)

    return _maybe_record((a, b), out, bw)


def masked_fill(x: Tensor, keep: np.ndarray, value: float) -> Tensor:
    """Replace entries of a matrix where `keep` is False with `value`.

    `keep` is boolean [m, n] or a broadcast row [1, n]. Where every entry
    is kept the output is a bit-identical copy of the input. Gradients
    flow only through kept entries.
    """
    keep = np.asarray(keep, dtype=bool)
    if x.ndim != 2 or keep.ndim != 2 or keep.shape[1] != x.shape[1] \
            or keep.shape[0] not in (1, x.shape[0]):
        raise DimensionError(
            f"masked_fill: keep {keep.shape} does not broadcast over {tuple(x.shape)}")
    out = Tensor(np.where(keep, x.data, float(value)))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(np.where(keep, g, 0.0))

    return _maybe_record((x,), out, bw)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a matrix, stabilised by per-row max subtraction."""
    if x.ndim != 2 or x.shape[1] < 1:
        raise DimensionError(f"softmax_rows expects [m, n>=1], got {tuple(x.shape)}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)
    out = Tensor(y)

    def bw(g):
        if x.requires_grad:
            dot = (g * y).sum(axis=1, keepdims=True)
            x.accumulate_grad(y * (g - dot))

    return _maybe_record((x,), out, bw)


# ---------------------------------------------------------------------------
# spatial ops on [C, H, W] maps


def conv2d(x: Tensor, kernel: Tensor, padding: int = 0,
           bias: Optional[Tensor] = None) -> Tensor:
    """Cross-correlation of [C,H,W] with [O,C,kh,kw], zero padding.

    Output is [O, H + 2*padding - kh + 1, W + 2*padding - kw + 1]; the
    kernel (any size >= 1) must fit inside the padded input. Forward is
    one GEMM over the im2col patch matrix. Backward gives the kernel and
    bias gradients from the same patches, and the input gradient as one
    GEMM of the flipped kernel, reshaped to [C, O*kh*kw], with the
    im2col of the output gradient zero-padded by kh-1-padding and
    kw-1-padding (cropped instead where padding exceeds k-1).
    """
    if x.ndim != 3 or kernel.ndim != 4:
        raise DimensionError(
            f"conv2d: expected [C,H,W] and [O,C,kh,kw], got {tuple(x.shape)} and {tuple(kernel.shape)}")
    c, h, w = x.shape
    o, kc, kh, kw = kernel.shape
    if kc != c:
        raise DimensionError(f"conv2d: input has {c} channels, kernel expects {kc}")
    if kh < 1 or kw < 1:
        raise DimensionError(f"conv2d: empty kernel {kh}x{kw}")
    if padding < 0:
        raise DimensionError("conv2d: padding must be >= 0")
    hp, wp = h + 2 * padding, w + 2 * padding
    oh, ow = hp - kh + 1, wp - kw + 1
    if oh < 1 or ow < 1:
        raise DimensionError(
            f"conv2d: kernel {kh}x{kw} larger than padded input {hp}x{wp}")
    if bias is not None and bias.shape != (o,):
        raise DimensionError(f"conv2d: bias shape {tuple(bias.shape)} != ({o},)")

    xp = np.zeros((c, hp, wp), dtype=x.data.dtype)
    xp[:, padding:padding + h, padding:padding + w] = x.data
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    # [oh*ow, c*kh*kw] patch matrix; the copy makes BLAS happy.
    patches = windows.transpose(1, 2, 0, 3, 4).reshape(oh * ow, c * kh * kw)
    kmat = kernel.data.reshape(o, c * kh * kw)
    y = patches @ kmat.T
    if bias is not None:
        y = y + bias.data
    out = Tensor(y.T.reshape(o, oh, ow))

    def bw(g):
        gmat = g.reshape(o, oh * ow).T
        if kernel.requires_grad:
            kernel.accumulate_grad((gmat.T @ patches).reshape(o, c, kh, kw))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(gmat.sum(axis=0))
        if x.requires_grad:
            # Full correlation of g with the flipped kernel, as one GEMM:
            # pad g by k-1-padding per axis (or crop the windows where
            # padding > k-1) so it yields exactly h x w windows.
            qh, qw = max(kh - 1 - padding, 0), max(kw - 1 - padding, 0)
            gp = np.zeros((o, oh + 2 * qh, ow + 2 * qw), dtype=g.dtype)
            gp[:, qh:qh + oh, qw:qw + ow] = g
            sh, sw = padding + qh - (kh - 1), padding + qw - (kw - 1)
            gwin = np.lib.stride_tricks.sliding_window_view(gp, (kh, kw), axis=(1, 2))
            gcols = gwin[:, sh:sh + h, sw:sw + w].transpose(0, 3, 4, 1, 2) \
                .reshape(o * kh * kw, h * w)
            kflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) \
                .reshape(c, o * kh * kw)
            x.accumulate_grad((kflip @ gcols).reshape(c, h, w))

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _maybe_record(inputs, out, bw)


def avg_pool2d(x: Tensor, factor: int = 2) -> Tensor:
    if x.ndim != 3:
        raise DimensionError(f"avg_pool2d expects [C,H,W], got {tuple(x.shape)}")
    c, h, w = x.shape
    f = int(factor)
    if f < 1 or h % f or w % f:
        raise DimensionError(f"avg_pool2d: dims {h}x{w} not divisible by factor {f}")
    y = x.data.reshape(c, h // f, f, w // f, f).mean(axis=(2, 4))
    out = Tensor(y)

    def bw(g):
        if x.requires_grad:
            gx = np.repeat(np.repeat(g, f, axis=1), f, axis=2) / (f * f)
            x.accumulate_grad(gx)

    return _maybe_record((x,), out, bw)


def _resize_axis(src: int, dst: int):
    """Half-pixel source coordinates for each destination index."""
    s = (np.arange(dst, dtype=np.float64) + 0.5) * (src / dst) - 0.5
    s = np.clip(s, 0.0, src - 1.0)
    i0 = np.floor(s).astype(np.intp)
    i1 = np.minimum(i0 + 1, src - 1)
    return i0, i1, s - i0


def _resize_matrix(src: int, dst: int) -> np.ndarray:
    """[dst, src] matrix of the 1-D interpolation along one axis.

    Where the edge clamp gives i0 == i1, both weights land in one entry.
    """
    i0, i1, w = _resize_axis(src, dst)
    m = np.zeros((dst, src))
    rows = np.arange(dst)
    m[rows, i0] += 1.0 - w
    m[rows, i1] += w
    return m


def bilinear_resize(x: Tensor, target_h: int, target_w: int) -> Tensor:
    """Bilinear resampling of [C,H,W]; identity when the size is unchanged.

    Forward interpolates in lerp form, with half-pixel centres and edge
    clamping. The map is separable, out = Ry · x · Rxᵀ per channel with
    Ry [th, H] and Rx [tw, W] from `_resize_matrix`, so backward is the
    adjoint gx = Ryᵀ · g · Rx: two small GEMMs, no scatter.
    """
    if x.ndim != 3:
        raise DimensionError(f"bilinear_resize expects [C,H,W], got {tuple(x.shape)}")
    th, tw = int(target_h), int(target_w)
    if th < 1 or tw < 1:
        raise DimensionError(f"bilinear_resize: non-positive target {th}x{tw}")
    c, h, w = x.shape
    r0, r1, wy = _resize_axis(h, th)
    c0, c1, wx = _resize_axis(w, tw)
    wy = wy[:, None]
    wx = wx[None, :]
    a = x.data[:, r0[:, None], c0[None, :]]
    b = x.data[:, r0[:, None], c1[None, :]]
    cc = x.data[:, r1[:, None], c0[None, :]]
    d = x.data[:, r1[:, None], c1[None, :]]
    # lerp form keeps constants (and the identity resize) exact
    top = a + wx * (b - a)
    bot = cc + wx * (d - cc)
    out = Tensor(top + wy * (bot - top))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(_resize_matrix(h, th).T @ (g @ _resize_matrix(w, tw)))

    return _maybe_record((x,), out, bw)


# ---------------------------------------------------------------------------
# gradient checking


def gradcheck(f, inputs, epsilon: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` takes the given tensors and returns a Tensor of any shape; the
    output is contracted to a scalar with a fixed pseudo-random weighting
    so off-diagonal Jacobian errors cannot cancel. Relative error per
    input scalar is |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    """
    if epsilon <= 0:
        raise UsageError("gradcheck: epsilon must be positive")
    tensors = []
    for x in inputs:
        t = x if isinstance(x, Tensor) else Tensor(x)
        t = Tensor(t.data.astype(np.float64), requires_grad=True)
        tensors.append(t)

    probe_rng = np.random.Generator(np.random.PCG64(20240117))

    probe_state = probe_rng.bit_generator.state

    def scalarize() -> float:
        out = f(*tensors)
        w = probe_rng.random(out.shape) + 0.5
        # rewind so every call reuses identical weights
        probe_rng.bit_generator.state = probe_state
        return float((out.data * w).sum())
    with GradTape() as tape:
        out = f(*tensors)
        w = Tensor(probe_rng.random(out.shape) + 0.5)
        probe_rng.bit_generator.state = probe_state
        loss = sum_all(mul(out, w) if out.shape else scale(out, float(w.data)))
        tape.backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for t in tensors]

    max_err = 0.0
    for ti, t in enumerate(tensors):
        flat = t.data.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            plus = scalarize()
            flat[k] = orig - epsilon
            minus = scalarize()
            flat[k] = orig
            numeric = (plus - minus) / (2.0 * epsilon)
            a = analytic[ti].reshape(-1)[k]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if err > max_err:
                max_err = err
    return max_err
