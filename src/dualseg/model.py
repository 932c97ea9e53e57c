"""Dual-branch segmentation network.

One branch sees the whole image bilinearly downsampled to a small fixed
size; the other sees full-resolution overlapping tiles. Both run a small
conv backbone (3x3 conv + relu per stage, optional 2x average pooling;
the local branch always keeps its last stage at full stride so fine
detail survives). Branch feature maps are flattened to token sequences,
optionally refined by residual self-attention, then fused by
bidirectional residual cross-attention. Local queries can be restricted
to the global cells around their tile (`use_mask`); the reverse
direction is never masked, because a distant global query would be left
with no allowed keys, which is a hard error by design.

Each backbone stage runs as one `ad.checkpoint`, so a training tape
holds each stage's output but not its conv pre-activation or, in a
pooled stage, its relu map; backward recomputes those, with the
forward's arithmetic, so the gradients are unchanged bit for bit.
Without a tape the checkpoint is a plain call, and inference runs the
same stages.

Both passes share one front end: `_checked_image` checks the image and
its grid, `_global_branch` runs the global branch once and projects its
tokens for fusion, and `_tile_forward` runs one tile's local branch
(`_branch_tokens`, as the global branch does) and its cross-attention.
Both sum the tiles' fused global tokens in tile order and scale the sum
once by 1 / n_tiles, so inference aggregates training's global map bit
for bit when training is fed the same float32 image and weights.

Per tile, the fused local tokens are mapped back to a feature map,
upsampled to tile resolution and stitched onto the full canvas. A 3x3
conv over the channel-concat of both (global resized up to canvas size)
yields the aggregate logits. The conv is linear in its input channels,
so both passes take it as two halves, split once by
`ModelParams.agg_halves`, and build no concat. `resized_conv`, one taped
op, folds the bilinear upsample into the conv as three small GEMMs on
the token-resolution map, equal to resize-then-conv to rounding, over
the whole canvas or over one tile's window of it.

Training convolves the stitched local map and adds `resized_conv` of the
global map over the whole canvas. It adds per-branch 1x1 heads and
combines three focal losses, each one taped op, with a Euclidean penalty
tying the two branches' features together. The penalty is one taped op
too: it compares at canvas size through a bilinear upsample of the
token-resolution global map that it computes itself, and recomputes in
backward, so training holds no resized copy of the global map; with
lambda = 0 its backward never runs.

Inference (`forward_infer`) runs the same tile pipeline without a tape,
in float32 where training runs in float64, once per tile in patch mode
(bounded transients) or on one full-size tile in global mode. Each
tile's local half is `resized_conv` of its local map, stitched in that
one pass; its global half, which needs the global map, is
`resized_conv` over the tile's window of the canvas, added per tile
afterwards. A one-tile image gets the same arithmetic,
and prediction, in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import autodiff as ad
from .attention import (AttentionWeights, TokenSeq, build_patch_mask,
                        cross_fuse, project_qkv, self_attention)
from .autodiff import Tensor, _matrix_memo, _maybe_record, _resize_matrix
from .errors import DataError, DimensionError, UsageError
from .tiling import (StitchAccumulator, TileGrid, extract_patch, plan_grid,
                     stitch)

IN_CHANNELS = 3

# Most tokens one tile, or the global branch's downsampled image, may hold.
# Self-attention scores a block of rows against all of them, so the cap
# bounds what one tile allocates; a global-mode call on a large image, or a
# large global_size, would otherwise ask for gigabytes.
MAX_TILE_TOKENS = 2 ** 16


# ---------------------------------------------------------------------------
# configuration and parameters


@dataclass(frozen=True)
class BackboneConfig:
    stage_channels: tuple[int, ...]
    downsample_per_stage: tuple[bool, ...]
    d_model: int

    def __post_init__(self):
        if len(self.stage_channels) < 1:
            raise DimensionError("BackboneConfig: need at least one stage")
        if len(self.stage_channels) != len(self.downsample_per_stage):
            raise DimensionError(
                "BackboneConfig: one downsample flag per stage required")
        if any(c < 1 for c in self.stage_channels):
            raise DimensionError("BackboneConfig: stage channels must be >= 1")
        if self.stage_channels[-1] != self.d_model:
            raise DimensionError(
                f"BackboneConfig: last stage has {self.stage_channels[-1]} "
                f"channels but d_model is {self.d_model}; attention tokens "
                f"come straight off the final stage")

    def stride(self, skip_last_pool: bool = False) -> int:
        flags = list(self.downsample_per_stage)
        if skip_last_pool:
            flags[-1] = False
        return 2 ** sum(flags)


@dataclass
class TrainSettings:
    """Knobs forward passes need beyond the parameters themselves."""

    global_size: int = 32
    use_self_attn: bool = True
    use_mask: bool = True
    focal_gamma: float = 6.0
    coupling_lambda: float = 0.15
    mask_dilation: int = 1


class ModelParams:
    """All named weight tensors, keyed for optimizer grouping.

    Names starting with backbone_l / sa_l / head_l form the local-branch
    group; everything else (global branch, fusion projections, the
    aggregation conv) belongs to the global group.
    """

    def __init__(self, backbone: BackboneConfig, num_classes: int,
                 rng: Optional[np.random.Generator] = None):
        if num_classes < 1:
            raise DimensionError(f"ModelParams: need >= 1 class, got {num_classes}")
        rng = rng or np.random.default_rng(0)
        self.backbone = backbone
        self.num_classes = int(num_classes)
        d = backbone.d_model
        by: dict[str, Tensor] = {}
        for branch in ("g", "l"):
            c_in = IN_CHANNELS
            for i, c_out in enumerate(backbone.stage_channels):
                by[f"backbone_{branch}.{i}.kernel"] = ad.init_uniform(
                    rng, (c_out, c_in, 3, 3), c_in * 9)
                by[f"backbone_{branch}.{i}.bias"] = ad.zeros((c_out,),
                                                             requires_grad=True)
                c_in = c_out
        for key in ("sa_g", "sa_l", "fuse_g", "fuse_l"):
            by.update(AttentionWeights(d, d, rng=rng).named(key))
        for branch in ("g", "l"):
            by[f"head_{branch}.kernel"] = ad.init_uniform(
                rng, (num_classes, d, 1, 1), d)
            by[f"head_{branch}.bias"] = ad.zeros((num_classes,), requires_grad=True)
        by["f_agg.kernel"] = ad.init_uniform(
            rng, (num_classes, 2 * d, 3, 3), 2 * d * 9)
        by["f_agg.bias"] = ad.zeros((num_classes,), requires_grad=True)
        self.by_name = by

    def named(self) -> dict[str, Tensor]:
        return dict(self.by_name)

    def stage(self, branch: str, i: int) -> tuple[Tensor, Tensor]:
        return (self.by_name[f"backbone_{branch}.{i}.kernel"],
                self.by_name[f"backbone_{branch}.{i}.bias"])

    def attn(self, key: str) -> AttentionWeights:
        w = AttentionWeights.__new__(AttentionWeights)
        w.w_q = self.by_name[f"{key}.w_q"]
        w.w_k = self.by_name[f"{key}.w_k"]
        w.w_v = self.by_name[f"{key}.w_v"]
        return w

    def head(self, branch: str) -> tuple[Tensor, Tensor]:
        return (self.by_name[f"head_{branch}.kernel"],
                self.by_name[f"head_{branch}.bias"])

    def astype(self, dtype) -> "ModelParams":
        """These weights as `dtype` copies that track no gradient. Only
        the tensors are built; no weights are drawn first."""
        p = ModelParams.__new__(ModelParams)
        p.backbone, p.num_classes = self.backbone, self.num_classes
        p.by_name = {name: Tensor(t.data.astype(dtype))
                     for name, t in self.by_name.items()}
        return p

    def agg_halves(self) -> tuple[Tensor, Tensor, Tensor]:
        """The aggregation conv's global and local kernel halves, cut from
        f_agg.kernel by `ad.narrow` (taped when a tape records), and its
        bias: the one place that splits the kernel."""
        k, d = self.by_name["f_agg.kernel"], self.backbone.d_model
        return (ad.narrow(k, 1, 0, d), ad.narrow(k, 1, d, 2 * d),
                self.by_name["f_agg.bias"])

    @classmethod
    def from_named(cls, backbone: BackboneConfig, num_classes: int,
                   named: dict[str, Tensor]) -> "ModelParams":
        p = cls(backbone, num_classes)
        if set(named) != set(p.by_name):
            missing = sorted(set(p.by_name) - set(named))
            extra = sorted(set(named) - set(p.by_name))
            raise DataError(
                f"parameter set mismatch: missing {missing}, unexpected {extra}")
        for name, t in named.items():
            want = p.by_name[name].shape
            if tuple(t.shape) != tuple(want):
                raise DataError(
                    f"parameter {name}: shape {tuple(t.shape)} != expected {tuple(want)}")
            t.requires_grad = True
        p.by_name = dict(named)
        return p


@dataclass
class BranchOutputs:
    x_glb: Tensor                    # fused global feature map [d, gh, gw]
    x_loc_full: Tensor               # stitched local features [d, H, W]
    s_glb: Tensor                    # global-branch logits [K, gh, gw]
    s_agg: Tensor                    # aggregate logits [K, H, W]


@dataclass
class LossBreakdown:
    main: float
    aux_global: float
    aux_local: float
    coupling: float
    total: float
    total_tensor: Tensor = field(repr=False, compare=False, default=None)


# ---------------------------------------------------------------------------
# building blocks


def _stage(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    return ad.relu(ad.conv2d(x, kernel, padding=1, bias=bias))


def _pooled_stage(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    return ad.avg_pool2d(_stage(x, kernel, bias), 2)


def backbone_forward(x: Tensor, params: ModelParams, branch: str,
                     skip_last_pool: bool = False) -> Tensor:
    """Conv3x3 + relu stages with optional 2x average pooling.

    Each stage is one `ad.checkpoint`: a tape keeps its input and output,
    not the conv's pre-activation or a pooled stage's relu map, and
    backward recomputes them. With no tape it is a plain call.
    """
    cfg = params.backbone
    n = len(cfg.stage_channels)
    for i in range(n):
        pool = cfg.downsample_per_stage[i] and not (skip_last_pool and i == n - 1)
        x = ad.checkpoint(_pooled_stage if pool else _stage, x,
                          *params.stage(branch, i))
    return x


def tokens_from_map(x: Tensor) -> TokenSeq:
    d, h, w = x.shape
    return TokenSeq(ad.transpose(ad.reshape(x, (d, h * w))), (h, w))


def map_from_tokens(seq: TokenSeq) -> Tensor:
    h, w = seq.spatial
    return ad.reshape(ad.transpose(seq.tokens), (seq.d, h, w))


def refine_tokens(seq: TokenSeq, weights: AttentionWeights) -> TokenSeq:
    """Residual self-attention: tokens + attention(tokens)."""
    att = self_attention(seq, weights)
    return TokenSeq(ad.add(seq.tokens, att.tokens), seq.spatial)


def downsample_labels_nn(labels: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Nearest-neighbour label shrink (labels are categories, no averaging)."""
    h, w = labels.shape
    rows = np.minimum((np.arange(th) + 0.5) * (h / th), h - 1).astype(np.intp)
    cols = np.minimum((np.arange(tw) + 0.5) * (w / tw), w - 1).astype(np.intp)
    return labels[rows[:, None], cols[None, :]]


def _check_labels(labels: np.ndarray, num_classes: int, shape) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != tuple(shape):
        raise DimensionError(f"labels {labels.shape} do not match image {shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise DataError("labels must be integer class indices")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise DataError(
            f"labels outside 0..{num_classes - 1} "
            f"(found {int(labels.min())}..{int(labels.max())})")
    return labels


# ---------------------------------------------------------------------------
# losses


def focal_loss(logits: Tensor, targets: np.ndarray, gamma: float) -> Tensor:
    """Mean over pixels of -(1 - p_t)^gamma * log(p_t), log floored at 1e-12.

    One taped op. The forward evaluates the expressions of the op chain
    softmax_rows, gather, power, log, mean_all, scale(-1) in the same
    order; the backward is closed-form. With w = (1 - p_t)^gamma and
    l = log(max(p_t, 1e-12)), dL/dz_j = (g / n) * c * (p_j - [j == t]) for
    c = w * [p_t >= 1e-12] - gamma * (1 - p_t)^(gamma - 1) * l * p_t, the
    second term dropped when gamma == 0 (w is then ones, as `ad.power`
    gives).
    """
    if gamma < 0:
        raise UsageError(f"focal_loss: gamma must be >= 0, got {gamma}")
    if logits.ndim != 3:
        raise DimensionError(f"focal_loss: logits must be [K,h,w], got {tuple(logits.shape)}")
    k, h, w = logits.shape
    targets = _check_labels(targets, k, (h, w)).reshape(-1)
    n, gamma, floor = h * w, float(gamma), 1e-12
    z = logits.data.reshape(k, n)
    # the row max is exact in any order, and over axis 0 it is one pass
    e = np.exp(np.ascontiguousarray(z.T) - z.max(axis=0)[:, None])
    p = e / e.sum(axis=1, keepdims=True)
    p_t = p[np.arange(n), targets][:, None]
    focal_w = np.ones_like(p_t) if gamma == 0.0 else (1.0 - p_t) ** gamma
    log_pt = np.log(np.maximum(p_t, floor))
    out = Tensor((focal_w * log_pt).sum() / n * -1.0)

    def bw(g):
        if logits.requires_grad:
            c = focal_w * (p_t >= floor)
            if gamma != 0.0:
                c -= gamma * (1.0 - p_t) ** (gamma - 1.0) * log_pt * p_t
            c *= float(g) / n
            gz = p * c
            gz[np.arange(n), targets] -= c[:, 0]
            logits.accumulate_grad(gz.T.reshape(k, h, w))

    return _maybe_record((logits,), out, bw)


def coupling_penalty(x_loc: Tensor, x_glb: Tensor) -> Tensor:
    """Euclidean (Frobenius) norm of the difference between the local map
    x_loc [d, H, W] and the global map x_glb [d, gh, gw] bilinearly
    upsampled to H x W. The result is 0 exactly when they are equal.

    One taped op that owns its resize and saves no array: the forward
    computes diff = x_loc - Ry · x_glb · Rxᵀ (Ry, Rx from
    `_resize_matrix`, as `bilinear_resize` uses them) and returns
    sqrt(sum(diff²)), the values of the chain sub, mul, sum_all, sqrt
    over `bilinear_resize`. Backward, which runs only when the penalty
    is weighted into the loss, recomputes diff (gradient checkpointing,
    Chen et al. 2016): x_loc gets G = diff · g / max(root, 1e-12) and
    x_glb the adjoint -Ryᵀ · G · Rx.
    """
    if x_loc.ndim != 3 or x_glb.ndim != 3 or x_glb.shape[0] != x_loc.shape[0]:
        raise DimensionError(
            f"coupling_penalty: incompatible {tuple(x_loc.shape)} vs {tuple(x_glb.shape)}")
    _, h, w = x_loc.shape
    dtype = x_glb.data.dtype
    ry = _resize_matrix(x_glb.shape[1], h, dtype=dtype)
    rx = _resize_matrix(x_glb.shape[2], w, dtype=dtype)

    def difference():
        return x_loc.data - ry @ (x_glb.data @ rx.T)

    diff = difference()
    root = np.sqrt((diff * diff).sum())

    def bw(g):
        g_loc = difference()
        g_loc *= float(g) / max(float(root), 1e-12)
        if x_loc.requires_grad:
            x_loc.accumulate_grad(g_loc)
        if x_glb.requires_grad:
            x_glb.accumulate_grad(ry.T @ (-g_loc @ rx))

    return _maybe_record((x_loc, x_glb), Tensor(root), bw)


# ---------------------------------------------------------------------------
# forward passes


class GlobalContext(NamedTuple):
    """What every tile attends to: the global tokens and their fuse_g
    query, key and value projections."""

    seq: TokenSeq
    q: Tensor
    k: Tensor
    v: Tensor


def _checked_image(image: np.ndarray, grid: Optional[TileGrid],
                   caller: str) -> np.ndarray:
    """`image` as floats after checking it is [3, H, W] and, when a grid
    is given, that the grid was planned for H x W. A float32 image passes
    through unchanged, so a pass runs in float32 on float32 data; any
    other image becomes float64 (`ad.as_float`)."""
    image = ad.as_float(image)
    if image.ndim != 3 or image.shape[0] != IN_CHANNELS:
        raise DimensionError(f"{caller}: image must be [3,H,W], got {image.shape}")
    if grid is not None and (grid.image_h, grid.image_w) != image.shape[1:]:
        raise DimensionError(f"{caller}: grid does not match image size")
    return image


def _check_tokens(what: str, side: int, stride: int, fix: str) -> None:
    """Refuse a `side` px square that holds more than MAX_TILE_TOKENS
    tokens at `stride`, before anything is sized by it."""
    tokens = (side // stride) ** 2
    if tokens > MAX_TILE_TOKENS:
        raise DimensionError(f"{what} has {tokens} tokens, more than "
                             f"{MAX_TILE_TOKENS}; {fix}")


def check_train_grid(grid: TileGrid, caller: str) -> None:
    """Refuse to train on an image smaller than the patch on either side:
    its one tile is zero-padded, and the padded labels would be learned
    as class 0. Inference keeps the padding, since it crops it away."""
    if grid.image_h < grid.patch or grid.image_w < grid.patch:
        raise DimensionError(
            f"{caller}: a {grid.image_h}x{grid.image_w} image is smaller than "
            f"the {grid.patch} px patch; training would learn its zero "
            f"padding as class 0")


def _branch_tokens(x: Tensor, params: ModelParams, branch: str,
                   settings: TrainSettings) -> TokenSeq:
    """Backbone tokens of one branch ("g" or "l"), refined by residual
    self-attention when enabled; the local branch keeps its last stage
    at full rate."""
    # before self-attention runs, rebinding x drops the branch input and
    # deleting it the backbone's map, which the tokens have copied (a
    # tape keeps the map anyway)
    x = backbone_forward(x, params, branch, skip_last_pool=branch == "l")
    seq = tokens_from_map(x)
    del x
    if settings.use_self_attn:
        seq = refine_tokens(seq, params.attn(f"sa_{branch}"))
    return seq


def _global_branch(img_t: Tensor, params: ModelParams,
                   settings: TrainSettings) -> GlobalContext:
    """The whole image downsampled to global_size, run through the global
    branch once per pass; a global_size of more than MAX_TILE_TOKENS
    tokens is refused before the downsample."""
    g = settings.global_size
    _check_tokens(f"the {g} px global branch input", g,
                  params.backbone.stride(), "use a smaller global_size")
    seq = _branch_tokens(ad.bilinear_resize(img_t, g, g), params, "g", settings)
    return GlobalContext(seq, *project_qkv(seq, params.attn("fuse_g")))


def _tile_forward(image: np.ndarray, grid: TileGrid, i: int,
                  glb: GlobalContext, params: ModelParams,
                  settings: TrainSettings) -> tuple[Tensor, Tensor]:
    """Tile `i`'s fused global tokens and fused local map [d, h_t, w_t] at
    token resolution: the one tile pipeline of training and inference."""
    loc_seq = _branch_tokens(Tensor(extract_patch(image, grid, i)), params,
                             "l", settings)
    q_l, k_l, v_l = project_qkv(loc_seq, params.attn("fuse_l"))
    mask_lg = build_patch_mask(grid, i, glb.seq.spatial,
                               settings.mask_dilation) \
        if settings.use_mask else None
    fused_g_i, fused_l_i = cross_fuse(glb.q, k_l, v_l, q_l, glb.k, glb.v,
                                      mask_gl=None, mask_lg=mask_lg)
    return fused_g_i, map_from_tokens(TokenSeq(fused_l_i, loc_seq.spatial))


def forward_train(image: np.ndarray, labels: np.ndarray, grid: TileGrid,
                  params: ModelParams, settings: TrainSettings
                  ) -> tuple[BranchOutputs, LossBreakdown]:
    """Full training pass over one image; returns outputs and the loss.
    Tiles and the global branch input are capped at MAX_TILE_TOKENS
    tokens, as in `forward_infer`, and an image smaller than the patch
    is refused (`check_train_grid`)."""
    image = _checked_image(image, grid, "forward_train")
    h, w = image.shape[1:]
    labels = _check_labels(labels, params.num_classes, (h, w))
    check_train_grid(grid, "forward_train")
    _check_tokens(f"forward_train: a {grid.patch} px tile", grid.patch,
                  params.backbone.stride(skip_last_pool=True),
                  "use a smaller patch")

    # the image tensor dies with the global branch's downsample
    glb = _global_branch(Tensor(image), params, settings)
    loc_maps_up: list[Tensor] = []
    head_l_k, head_l_b = params.head("l")
    for i in range(grid.n_tiles):
        fused_g, loc_map = _tile_forward(image, grid, i, glb, params, settings)
        loc_up = ad.bilinear_resize(loc_map, grid.patch, grid.patch)
        loc_maps_up.append(loc_up)
        s_loc = ad.conv2d(loc_up, head_l_k, padding=0, bias=head_l_b)
        loss_i = focal_loss(s_loc, extract_patch(labels, grid, i),
                            settings.focal_gamma)
        # running sums in tile order, scaled once below
        fused_g_sum = fused_g if i == 0 else ad.add(fused_g_sum, fused_g)
        loc_loss_sum = loss_i if i == 0 else ad.add(loc_loss_sum, loss_i)

    x_glb = map_from_tokens(TokenSeq(
        ad.scale(fused_g_sum, 1.0 / grid.n_tiles), glb.seq.spatial))
    x_loc_full = stitch(loc_maps_up, grid)

    head_g_k, head_g_b = params.head("g")
    s_glb = ad.conv2d(x_glb, head_g_k, padding=0, bias=head_g_b)
    labels_g = downsample_labels_nn(labels, *glb.seq.spatial)

    k_glb, k_loc, agg_b = params.agg_halves()
    s_agg = ad.add(ad.conv2d(x_loc_full, k_loc, padding=1, bias=agg_b),
                   resized_conv(x_glb, k_glb, (h, w)))

    main_t = focal_loss(s_agg, labels, settings.focal_gamma)
    aux_g_t = focal_loss(s_glb, labels_g, settings.focal_gamma)
    aux_l_t = ad.scale(loc_loss_sum, 1.0 / grid.n_tiles)
    coupling_t = coupling_penalty(x_loc_full, x_glb)

    lam = settings.coupling_lambda
    total_t = ad.add(ad.add(main_t, aux_g_t), aux_l_t)
    if lam != 0.0:
        total_t = ad.add(total_t, ad.scale(coupling_t, lam))

    outputs = BranchOutputs(x_glb=x_glb, x_loc_full=x_loc_full, s_glb=s_glb,
                            s_agg=s_agg)
    breakdown = LossBreakdown(
        main=main_t.item(), aux_global=aux_g_t.item(), aux_local=aux_l_t.item(),
        coupling=coupling_t.item(), total=total_t.item(), total_tensor=total_t)
    return outputs, breakdown


@_matrix_memo
def _window_taps(src: int, dst: int, start: int, size: int,
                 k: int) -> np.ndarray:
    """[size, k*src]: per kernel offset d, rows start+d-k//2.. of
    `_resize_matrix(src, dst)`, zero outside the window and past dst.
    Memoised per dtype, like `_resize_matrix`: a tile grid repeats the
    same few windows on every image."""
    m = np.zeros((size + k - 1, src))
    n = min(size, dst - start)
    m[k // 2:k // 2 + n] = _resize_matrix(src, dst)[start:start + n]
    return np.concatenate([m[d:d + size] for d in range(k)], axis=1)


def resized_conv(x: Tensor, kernel: Tensor, canvas: tuple[int, int],
                 origin: tuple[int, int] = (0, 0),
                 size: Optional[tuple[int, int]] = None) -> Tensor:
    """conv2d(W, kernel, padding=k//2) of the size[0] x size[1] window W
    at `origin` of bilinear_resize(x, *canvas), zero past the canvas, as
    one taped op that never builds the resized map. `size` defaults to
    the whole canvas.

    Channel mixing commutes with the resize, so one GEMM mixes x [C, h, w]
    by every kernel tap into taps [O, kh, h, kw, w]. The conv's zero
    padding and the canvas overhang are zero rows of the window's resize
    matrix R, so with A[d] = R shifted by d - k//2, out[o] = sum over
    (dy, dx) of A_y[dy] taps[o, dy, :, dx] A_x[dx]^T: two more small
    GEMMs. Backward is the adjoint: the taps gradient is A_y^T g A_x,
    then one GEMM each gives the map and kernel gradients.
    """
    c, sh, sw = x.shape
    o, _, kh, kw = kernel.shape
    size = canvas if size is None else size
    dtype = x.data.dtype
    a_y = _window_taps(sh, canvas[0], origin[0], size[0], kh, dtype=dtype)
    a_x = _window_taps(sw, canvas[1], origin[1], size[1], kw, dtype=dtype)
    kmat = kernel.data.transpose(0, 2, 3, 1).reshape(o * kh * kw, c)
    taps = (kmat @ x.data.reshape(c, -1)).reshape(o, kh, kw, sh, sw) \
        .transpose(0, 1, 3, 2, 4).reshape(o * kh * sh, kw * sw)
    out = Tensor(a_y @ (taps @ a_x.T).reshape(o, kh * sh, size[1]))

    def bw(g):
        g_taps = (a_y.T @ g).reshape(o * kh * sh, size[1]) @ a_x
        g_z = g_taps.reshape(o, kh, sh, kw, sw).transpose(0, 1, 3, 2, 4) \
            .reshape(o * kh * kw, sh * sw)
        if x.requires_grad:
            x.accumulate_grad((kmat.T @ g_z).reshape(c, sh, sw))
        if kernel.requires_grad:
            kernel.accumulate_grad((g_z @ x.data.reshape(c, -1).T)
                                   .reshape(o, kh, kw, c).transpose(0, 3, 1, 2))

    return _maybe_record((x, kernel), out, bw)


def forward_infer(image: np.ndarray, grid: Optional[TileGrid],
                  params: ModelParams, settings: TrainSettings,
                  mode: str = "patch",
                  mem_report: Optional[dict] = None) -> np.ndarray:
    """Predict a class-index map. No tape; transients die with each tile.

    Inference reads no gradient, so it runs in float32: once the image
    and grid are checked, the image and the parameters (a few KB) are
    cast once, and the dtype travels with the data through every op, the
    memoised resize matrices and the accumulator. That halves the bytes
    and the bandwidth of float64; training stays float64.

    Patch mode walks the provided grid; global mode treats the whole
    image as a single tile at full resolution (the tile is padded up to a
    stride multiple when needed). A tile of more than MAX_TILE_TOKENS
    tokens is refused before anything is allocated, and so is a global
    branch input before its downsample. Each tile's local branch runs
    once, since
    conv(concat[G, L], K) + b = conv(G, K[:, :d]) + conv(L, K[:, d:]) + b,
    and `resized_conv` gives each half of a tile without resizing its
    map. With `mem_report`, the ledger's peak is reset once the full-size
    accumulator and the kernel halves exist, so the transient excludes
    input/output buffers.
    """
    from .memory import LEDGER

    image = _checked_image(image, grid if mode == "patch" else None,
                           "forward_infer")
    h, w = image.shape[1:]
    stride = params.backbone.stride(skip_last_pool=True)
    if mode == "global":
        side = max(h, w)
        side = ((side + stride - 1) // stride) * stride
        grid = plan_grid(h, w, side, 0)
    elif mode != "patch":
        raise UsageError(f"forward_infer: unknown mode {mode!r}")
    elif grid is None:
        raise UsageError("forward_infer: patch mode needs a tile grid")
    _check_tokens(f"forward_infer: a {grid.patch} px tile", grid.patch,
                  stride, "use patch mode with a smaller patch")

    image = image.astype(np.float32, copy=False)
    params = params.astype(np.float32)
    img_t = Tensor(image)
    acc = StitchAccumulator(params.num_classes, grid, image.dtype)
    d, p = params.backbone.d_model, grid.patch
    k_glb, k_loc, agg_b = params.agg_halves()
    if mem_report is not None:
        mem_report["baseline_bytes"] = LEDGER.reset_peak()

    glb = _global_branch(img_t, params, settings)
    # sum the fused global tokens in tile order, as forward_train does;
    # stitch the local half
    for i in range(grid.n_tiles):
        fused_g, loc_map = _tile_forward(image, grid, i, glb, params, settings)
        fused_g_sum = fused_g.data if i == 0 else fused_g_sum + fused_g.data
        s_loc = resized_conv(loc_map, k_loc, (p, p))
        s_loc.data += agg_b.data[:, None, None]
        acc.add(s_loc.data, i)
        del fused_g, loc_map, s_loc  # free before the next tile allocates

    # global half: the coverage counts are final, so shares add directly
    x_glb = Tensor((fused_g_sum * (1.0 / grid.n_tiles))
                   .T.reshape(d, *glb.seq.spatial))
    for i, origin in enumerate(grid.origins):
        acc.add_share(
            resized_conv(x_glb, k_glb, (h, w), origin, (p, p)).data, i)

    if mem_report is not None:
        mem_report["peak_bytes"] = LEDGER.peak_bytes
        mem_report["transient_bytes"] = (LEDGER.peak_bytes
                                         - mem_report["baseline_bytes"])
    return np.argmax(acc.mean, axis=0)


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Bias-corrected Adam with two learning-rate groups.

    Parameters named backbone_l.* / sa_l.* / head_l.* step at lr_local;
    everything else (global branch, fusion projections, aggregation conv)
    at lr_global. Parameters without a gradient this step are treated as
    having gradient zero.
    """

    LOCAL_PREFIXES = ("backbone_l.", "sa_l.", "head_l.")

    def __init__(self, params: dict[str, Tensor], lr_global: float = 1e-4,
                 lr_local: float = 2e-5, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise UsageError("Adam: betas must lie in [0, 1)")
        self.params = dict(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.lr = {name: lr_local if name.startswith(self.LOCAL_PREFIXES)
                   else lr_global for name in self.params}
        self.m = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.v = {name: np.zeros_like(t.data) for name, t in self.params.items()}
        self.step_count = 0

    def step(self) -> None:
        self.step_count += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else 0.0
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * np.square(g)
            p.data -= self.lr[name] * (m / c1) / (np.sqrt(v / c2) + self.eps)

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad = None
