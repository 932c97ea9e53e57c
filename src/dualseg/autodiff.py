"""Dense tensors with reverse-mode differentiation.

A Tensor wraps a numpy array of floats. The dtype travels with the
data (`as_float`): a float32 array stays float32 and anything else
becomes float64, and every op allocates its outputs and buffers in its
inputs' dtype. Inference hands the ops float32 data, training and
`gradcheck` float64. Differentiable operations are plain functions;
when a GradTape is active and an input tracks gradients, the operation
appends a record to the tape.
`GradTape.backward` replays the records in exact reverse execution
order, accumulating `.grad` arrays on every tracked tensor. It releases
each record, with the arrays its closure saved, and each non-leaf
`.grad` once it has read them, so after backward only the leaves (the
tensors no op produced) keep a gradient. A tape is single-use: backward
on a consumed tape raises. Backward takes a seed gradient for an output
of any shape, and it replays with recording off, so a record may run a
tape of its own: `checkpoint(fn, *inputs)` is one taped op that keeps
none of fn's intermediates and, in backward, runs fn again under its
own tape and replays that from the output's gradient (gradient
checkpointing). Tapes still do not nest in the forward.

Most ops are single numpy primitives. An op's backward closure keeps
its inputs and small arrays, and recomputes what is large and cheap to
rebuild from them. Attention is one fused op, `sdpa`, that scores
blocks of at most SDPA_BLOCK_ROWS pre-scaled query rows against the
kept keys in one reused buffer, exponentiates them in place and divides
the output rows, not the scores, by the row sums; its backward rebuilds
the probability matrix bit for bit. It agrees with the chain of
primitive ops it stands for to rounding. `conv2d` is one GEMM over an
im2col that its backward rebuilds for the kernel gradient.

The spatial resamples, `bilinear_resize` and `avg_pool2d`, are linear
and separable: each is out = My · x · Mxᵀ per channel, over memoised,
read-only 1-D matrices (`_resize_matrix`, `_pool_matrix`), and its
backward is the adjoint gx = Myᵀ · g · Mx over the same two matrices.
The matrices are memoised per dtype (`_matrix_memo`), so a float32 map
never meets a float64 matrix: under NEP 50 that would promote the whole
product to float64. A numpy float64 scalar does the same, so scale
factors stay Python floats.

All public operations keep finite inputs finite (softmax subtracts the
row max, logarithms clamp their argument), and everything is serial and
deterministic for a fixed seed.
"""

from __future__ import annotations

import ctypes
import functools
import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, UsageError
from .memory import LEDGER

# Score given to disallowed query/key pairs before the softmax: far enough
# below any real score that exp() of it underflows to exactly 0.
MASKED_SCORE = -1e9

# Query rows per block of sdpa's forward, taped or not; a row count, so
# the block still grows with n_k. At 64 rows the 2304-key block of
# whole-image inference is 1.2 MB, small enough to stay in a 2 MB
# per-core L2 between its passes.
SDPA_BLOCK_ROWS = 64

# Backward frees each record's arrays as it replays it, newest first, so
# the freed memory sits at the top of the heap, which glibc by default
# hands back to the kernel at once; the next allocations then fault it
# back in page by page (~3500 faults and ~10 ms of system time per 64 px
# training step on a 2-vCPU x86 VM). A fixed mmap threshold, at glibc's
# dynamic maximum, and a 64 MB trim threshold keep that memory for
# reuse. Where libc has no mallopt, the allocator is left as it is.
try:
    ctypes.CDLL(None).mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    ctypes.CDLL(None).mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
except (AttributeError, OSError):
    pass


_F32, _F64 = np.dtype(np.float32), np.dtype(np.float64)


def as_float(data) -> np.ndarray:
    """`data` as a float array: float32 numpy data stays float32, and
    anything else (lists, Python numbers, ints, bools, float16, float64)
    becomes float64. It copies only to convert. Every Tensor's dtype
    comes from here."""
    arr = np.asarray(data)
    # training's float64 is decided by identity, the cheapest test
    if arr.dtype is _F64 or arr.dtype == _F32:
        return arr
    return arr.astype(_F64)


class Tensor:
    """Dense n-dimensional float32 or float64 array (`as_float`),
    row-major, optionally gradient-tracked."""

    __slots__ = ("_owned_bytes", "data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        # set first: __del__ runs even when the conversion below raises
        self._owned_bytes = 0
        arr = as_float(data)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        # Only buffers we own count toward the ledger; views count zero.
        if arr.base is None:
            self._owned_bytes = arr.nbytes
            LEDGER.on_alloc(arr.nbytes)

    def __del__(self):
        LEDGER.on_free(self._owned_bytes)

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


def zeros(shape, requires_grad=False) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def init_uniform(rng: np.random.Generator, shape, fan_in: int) -> Tensor:
    """Seeded weight init, uniform in [-sqrt(1/fan_in), +sqrt(1/fan_in)]."""
    s = math.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-s, s, size=shape), requires_grad=True)


class GradTape:
    """Ordered record of executed differentiable operations.

    Use as a context manager around the forward pass, then call
    `backward(loss)` once. Records replay in exact reverse execution
    order, and each is dropped, with its output's `.grad`, once it has
    run; a second backward raises UsageError.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
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
        self._records.append((output, backward_fn))

    def backward(self, loss: Tensor, seed: Optional[np.ndarray] = None) -> None:
        """Populate `.grad` on every leaf reachable from `loss`.

        Without `seed`, `loss` must be a scalar and its gradient is 1.
        With it, `loss` may have any shape and `seed`, of that shape, is
        its gradient, not copied: the leaves get the gradients of
        sum(loss * seed).
        The records replay with recording off, so a backward closure may
        run a tape of its own (`checkpoint`), even when this backward is
        called inside this tape's `with` block.
        """
        global _ACTIVE_TAPE
        if self._consumed:
            raise UsageError("tape already consumed; rebuild the forward pass")
        if seed is None:
            if loss.data.size != 1:
                raise UsageError(
                    f"backward needs a scalar loss, got shape {tuple(loss.shape)}")
            seed = np.ones_like(loss.data)
        elif np.shape(seed) != loss.shape:
            raise UsageError(f"backward: seed shape {np.shape(seed)} != "
                             f"output shape {tuple(loss.shape)}")
        else:
            seed = np.asarray(seed, dtype=loss.data.dtype)
        self._consumed = True
        loss.grad = seed
        records = self._records
        active, _ACTIVE_TAPE = _ACTIVE_TAPE, None
        try:
            while records:
                output, backward_fn = records.pop()
                g, output.grad = output.grad, None
                if g is not None:
                    backward_fn(g)
        finally:
            _ACTIVE_TAPE = active


_ACTIVE_TAPE: Optional[GradTape] = None


def _maybe_record(inputs: Sequence[Tensor], output: Tensor,
                  backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Tape `output` when a tape is active and an input tracks gradients."""
    if _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs):
        output.requires_grad = True
        _ACTIVE_TAPE.record(output, backward_fn)
    return output


def checkpoint(fn: Callable[..., Tensor], *inputs: Tensor) -> Tensor:
    """`fn(*inputs)` as one taped op that keeps none of fn's intermediates
    (gradient checkpointing, Chen et al. 2016, arXiv:1604.06174).

    The forward runs fn with recording off, so a tape holds only the
    inputs and the output, and what fn allocated on the way dies at once.
    Backward runs fn again under a tape of its own and replays that tape
    from the output's gradient (a seeded `GradTape.backward`), which
    accumulates into the inputs. The recompute repeats the forward's
    arithmetic, so the gradients are bitwise those of the unwrapped ops.
    fn must read no Tensor that is not among `inputs`, and must return a
    new Tensor. With no tape active it is a plain call of fn.
    """
    global _ACTIVE_TAPE
    active, _ACTIVE_TAPE = _ACTIVE_TAPE, None
    try:
        out = fn(*inputs)
    finally:
        _ACTIVE_TAPE = active

    def bw(g):
        with GradTape() as tape:
            redo = fn(*inputs)
        tape.backward(redo, g)

    return _maybe_record(inputs, out, bw)


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


def narrow(a: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Entries start..stop-1 of `a` along `axis`, as an owned copy;
    backward puts the gradient back in that range and zeros elsewhere."""
    index = (slice(None),) * axis + (slice(start, stop),)
    out = Tensor(a.data[index])

    def bw(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[index] = g
            a.accumulate_grad(ga)

    return _maybe_record((a,), out, bw)


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


def sdpa(q: Tensor, k: Tensor, v: Tensor,
         keep: Optional[np.ndarray] = None) -> Tensor:
    """softmax(mask(q kᵀ / sqrt(d))) v as one op, streamed by query rows.

    q [n_q, d], k [n_k, d], v [n_k, d_v]; `keep` is boolean [n_q, n_k] or
    a broadcast row [1, n_k] that allows at least one key per row (as
    attention.AttentionMask ensures). A row `keep` gathers the kept rows
    of k and v once, and only those are scored; backward scatters their
    gradients back, so dropped keys get exactly zero. A full `keep` sets
    the scores where it is False to MASKED_SCORE, whose probability
    underflows to exactly 0, so their gradient is 0 too.

    The queries are scaled by 1/sqrt(d) before scoring. Blocks of at
    most SDPA_BLOCK_ROWS query rows are scored in turn into one buffer
    that a Tensor owns, and turned in place into e = exp(s - rowmax);
    the output rows are (e v) / z with z the row sums of e, so no pass
    divides the scores. Each row sees all its keys, so the softmax is
    exact, and a row's arithmetic does not depend on the block it falls
    in. Taped or not, the forward is this one loop and keeps no scores:
    backward rebuilds the probabilities p = e / z of all rows as one
    block, with the forward's own expressions, into one [n_q, n_k]
    Tensor that lives only while it runs (the recompute of
    FlashAttention, gradient checkpointing at op level). The ledger
    counts the block buffer and that p. The block, the output and p are
    allocated in q's dtype. The result agrees with the op
    chain transpose, matmul, scale, masked_fill, softmax_rows, matmul
    to rounding, not bitwise.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2 or q.shape[1] != k.shape[1] \
            or k.shape[0] != v.shape[0]:
        raise DimensionError(
            f"sdpa: incompatible q {tuple(q.shape)}, k {tuple(k.shape)}, "
            f"v {tuple(v.shape)}")
    n_q, n_k = q.shape[0], k.shape[0]
    kept = None  # indices of the keys a row `keep` allows
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if keep.ndim != 2 or keep.shape[1] != n_k \
                or keep.shape[0] not in (1, n_q):
            raise DimensionError(
                f"sdpa: keep {keep.shape} does not broadcast over "
                f"{n_q} queries x {n_k} keys")
        if keep.shape[0] == 1:
            kept = np.flatnonzero(keep[0])
            if kept.size == 0:
                raise DimensionError("sdpa: keep allows no key")
            keep = None
    k_s, v_s = (k.data, v.data) if kept is None else (k.data[kept], v.data[kept])
    c = 1.0 / math.sqrt(q.shape[1])
    qc = q.data * c
    kt = np.ascontiguousarray(k_s.T)

    def exp_scores(r0, s):
        """Turn `s` into e = exp(scores - rowmax) of query rows r0.. and
        return the row sums z."""
        r1 = r0 + s.shape[0]
        np.matmul(qc[r0:r1], kt, out=s)
        if keep is not None:
            np.copyto(s, MASKED_SCORE, where=~keep[r0:r1])
        s -= s.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        return s.sum(axis=1, keepdims=True)

    dtype = q.data.dtype
    block = Tensor(np.empty((min(n_q, SDPA_BLOCK_ROWS), kt.shape[1]), dtype))
    out = Tensor(np.empty((n_q, v.shape[1]), dtype))
    for r0 in range(0, n_q, SDPA_BLOCK_ROWS):
        s = block.data[:min(SDPA_BLOCK_ROWS, n_q - r0)]
        z = exp_scores(r0, s)
        rows = out.data[r0:r0 + s.shape[0]]
        np.matmul(s, v_s, out=rows)
        rows /= z

    def scatter(g_s):
        """Key-row gradients of the kept keys, zero rows elsewhere."""
        if kept is None:
            return g_s
        g = np.zeros((n_k, g_s.shape[1]), g_s.dtype)
        g[kept] = g_s
        return g

    def bw(g):
        # all rows as one block: each row is the forward's e / z, bit for bit
        p = Tensor(np.empty((n_q, kt.shape[1]), dtype))
        p.data /= exp_scores(0, p.data)
        if v.requires_grad:
            v.accumulate_grad(scatter(p.data.T @ g))
        if not (q.requires_grad or k.requires_grad):
            return
        # rowsum(dP * P) = rowsum(g * out): read on [n_q, d_v], not [n_q, n_k]
        gp = g @ v_s.T
        gp -= (g * out.data).sum(axis=1, keepdims=True)
        gp *= p.data
        if q.requires_grad:
            q.accumulate_grad((gp @ k_s) * c)
        if k.requires_grad:
            k.accumulate_grad(scatter(gp.T @ qc))

    return _maybe_record((q, k, v), out, bw)


# ---------------------------------------------------------------------------
# spatial ops on [C, H, W] maps


def _im2col(a: np.ndarray, kh: int, kw: int, ph: int, pw: int,
            oh: int, ow: int) -> np.ndarray:
    """Channel-major im2col [C*kh*kw, oh*ow] of the first oh x ow kh x kw
    windows of [C, H, W] `a` zero-padded by ph rows and pw columns per
    side, or cropped by -ph and -pw where they are negative. The caller
    sizes oh and ow so that every window lies inside the padded map."""
    c, h, w = a.shape
    qh, qw = max(ph, 0), max(pw, 0)
    ap = np.zeros((c, h + 2 * qh, w + 2 * qw), dtype=a.dtype)
    ap[:, qh:qh + h, qw:qw + w] = a
    # entry [c, i, j, y, x] is ap[c, qh - ph + y + i, qw - pw + x + j]
    win = np.lib.stride_tricks.as_strided(
        ap[:, qh - ph:, qw - pw:], (c, kh, kw, oh, ow),
        ap.strides + ap.strides[1:], writeable=False)
    return win.reshape(c * kh * kw, oh * ow)


def conv2d(x: Tensor, kernel: Tensor, padding: int = 0,
           bias: Optional[Tensor] = None) -> Tensor:
    """Cross-correlation of [C,H,W] with [O,C,kh,kw], zero padding.

    Output is [O, H + 2*padding - kh + 1, W + 2*padding - kw + 1]; the
    kernel (any size >= 1) must fit inside the padded input. Forward is
    one GEMM, kernel [O, C*kh*kw] times the `_im2col` [C*kh*kw, oh*ow]
    of the input, into a fresh output that owns its buffer so the ledger
    counts it. Backward keeps no im2col: it rebuilds the input's for the
    kernel gradient, takes the bias gradient from the output gradient,
    and gives the input gradient as one GEMM of the flipped kernel,
    reshaped to [C, O*kh*kw], with the `_im2col` of the output gradient
    padded by kh-1-padding and kw-1-padding (a crop where padding
    exceeds k-1).
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

    y = np.empty((o, oh, ow), dtype=x.data.dtype)
    np.matmul(kernel.data.reshape(o, c * kh * kw),
              _im2col(x.data, kh, kw, padding, padding, oh, ow),
              out=y.reshape(o, oh * ow))
    if bias is not None:
        y += bias.data[:, None, None]
    out = Tensor(y)

    def bw(g):
        gmat = g.reshape(o, oh * ow)
        if kernel.requires_grad:
            cols = _im2col(x.data, kh, kw, padding, padding, oh, ow)
            kernel.accumulate_grad((gmat @ cols.T).reshape(o, c, kh, kw))
        if bias is not None and bias.requires_grad:
            bias.accumulate_grad(gmat.sum(axis=1))
        if x.requires_grad:
            gcols = _im2col(g, kh, kw, kh - 1 - padding, kw - 1 - padding, h, w)
            kflip = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3) \
                .reshape(c, o * kh * kw)
            x.accumulate_grad((kflip @ gcols).reshape(c, h, w))

    inputs = (x, kernel) if bias is None else (x, kernel, bias)
    return _maybe_record(inputs, out, bw)


def _matrix_memo(build):
    """Memoise `build(*sizes)`, a float64 matrix, per (sizes, dtype).

    `dtype` (float64 by default) is a keyword. Each entry is built in
    float64 and cast to its dtype once, so a float32 entry holds the
    float64 weights rounded, and a float32 pass reads no float64 matrix.
    Entries are read-only, since every caller shares them; a tile grid
    resizes between the same few sizes on every image.
    """
    @functools.lru_cache(maxsize=128)
    def cached(sizes, dtype):
        m = build(*sizes).astype(dtype, copy=False)
        m.flags.writeable = False
        return m

    @functools.wraps(build)
    def memo(*sizes, dtype=_F64):
        return cached(sizes, np.dtype(dtype))

    return memo


@_matrix_memo
def _resize_matrix(src: int, dst: int) -> np.ndarray:
    """[dst, src] matrix of the 1-D bilinear interpolation along one axis.

    Half-pixel centres, clamped to the edge: row i puts weight 1 - w on
    source index i0 and w on i0 + 1 (clamped too, so where i0 == i1 both
    weights land in one entry). Memoised per dtype (`_matrix_memo`).
    """
    rows = np.arange(dst)
    s = np.clip((rows + 0.5) * (src / dst) - 0.5, 0.0, src - 1.0)
    i0 = np.floor(s).astype(np.intp)
    w = s - i0
    m = np.zeros((dst, src))
    m[rows, i0] += 1.0 - w
    m[rows, np.minimum(i0 + 1, src - 1)] += w
    return m


@_matrix_memo
def _pool_matrix(n: int, f: int) -> np.ndarray:
    """[n // f, n] matrix of the 1-D average of each run of f samples:
    row i holds 1/f at columns i*f .. i*f + f - 1. Memoised per dtype
    (`_matrix_memo`)."""
    return np.kron(np.eye(n // f), np.full(f, 1.0 / f))


@functools.lru_cache(maxsize=128)
def _resize_reads(src: int, dst: int, dtype: np.dtype = _F64
                  ) -> tuple[slice | np.ndarray, np.ndarray]:
    """(index, matrix) for a forward resize along one axis: the source
    indices `_resize_matrix(src, dst, dtype=dtype)` puts a weight on and
    its columns at them. A shrink weights only a few sources per output,
    so it reads a subset; when every source is read the index is a full
    slice and the matrix is `_resize_matrix` itself. Memoised and
    read-only."""
    m = _resize_matrix(src, dst, dtype=dtype)
    read = np.flatnonzero(m.any(axis=0))
    if read.size == src:
        return slice(None), m
    cols = m[:, read]
    cols.flags.writeable = False
    return read, cols


def avg_pool2d(x: Tensor, factor: int = 2) -> Tensor:
    """Mean over non-overlapping factor x factor blocks of [C,H,W].

    The map is out = Py · x · Pxᵀ per channel with Py and Px from
    `_pool_matrix`, so backward is the adjoint gx = Pyᵀ · g · Px.
    """
    if x.ndim != 3:
        raise DimensionError(f"avg_pool2d expects [C,H,W], got {tuple(x.shape)}")
    h, w = x.shape[1:]
    f = int(factor)
    if f < 1 or h % f or w % f:
        raise DimensionError(f"avg_pool2d: dims {h}x{w} not divisible by factor {f}")
    dtype = x.data.dtype
    py, px = _pool_matrix(h, f, dtype=dtype), _pool_matrix(w, f, dtype=dtype)
    out = Tensor(py @ (x.data @ px.T))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(py.T @ (g @ px))

    return _maybe_record((x,), out, bw)


def bilinear_resize(x: Tensor, target_h: int, target_w: int) -> Tensor:
    """Bilinear resampling of [C,H,W]; identity when the size is unchanged.

    Half-pixel centres, edge clamping. The map is out = Ry · x · Rxᵀ per
    channel with Ry [th, H] and Rx [tw, W] from `_resize_matrix`, so
    backward is the adjoint gx = Ryᵀ · g · Rx: two small GEMMs each way,
    no scatter. The forward multiplies only the source rows and columns
    that carry a weight (`_resize_reads`), so a shrink of a large image
    costs O(C·th·W) rather than O(C·H·W·tw).
    """
    if x.ndim != 3:
        raise DimensionError(f"bilinear_resize expects [C,H,W], got {tuple(x.shape)}")
    th, tw = int(target_h), int(target_w)
    if th < 1 or tw < 1:
        raise DimensionError(f"bilinear_resize: non-positive target {th}x{tw}")
    h, w = x.shape[1:]
    dtype = x.data.dtype
    ry, rx = _resize_matrix(h, th, dtype=dtype), _resize_matrix(w, tw, dtype=dtype)
    iy, my = _resize_reads(h, th, dtype=dtype)
    ix, mx = _resize_reads(w, tw, dtype=dtype)
    out = Tensor(my @ (x.data[:, iy][:, :, ix] @ mx.T))

    def bw(g):
        if x.requires_grad:
            x.accumulate_grad(ry.T @ (g @ rx))

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

    with GradTape() as tape:
        out = f(*tensors)
        probe_rng = np.random.Generator(np.random.PCG64(20240117))
        w = Tensor(probe_rng.random(out.shape) + 0.5)
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
            plus = float((f(*tensors).data * w.data).sum())
            flat[k] = orig - epsilon
            minus = float((f(*tensors).data * w.data).sum())
            flat[k] = orig
            numeric = (plus - minus) / (2.0 * epsilon)
            a = analytic[ti].reshape(-1)[k]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            if err > max_err:
                max_err = err
    return max_err
