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

Per tile, the fused local tokens are mapped back to a feature map,
upsampled to tile resolution and stitched onto the full canvas; the
fused global tokens are averaged over tiles. A 3x3 conv over the
channel-concat of both (global resized up to canvas size) yields the
aggregate logits. Training adds per-branch 1x1 heads and combines three
focal losses with a Euclidean penalty tying the two branches' features
together.

Inference (`forward_infer`) runs the same per-tile pipeline
(`_tile_forward`) without a tape, once per tile in patch mode (bounded
transients) or on one full-size tile in global mode. The aggregation
conv is linear in its input channels, so its local half is stitched in
that one pass and its global half, which needs the averaged global map,
is added per tile afterwards. The global window each tile needs is
sampled directly from the small global map, bit-identical to cropping a
full-size resize, so a one-tile image gives the same prediction in both
modes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .attention import (AttentionWeights, TokenSeq, build_patch_mask,
                        cross_fuse, project_qkv, self_attention)
from .autodiff import Tensor, _resize_axis
from .errors import DataError, DimensionError, UsageError
from .tiling import (StitchAccumulator, TileGrid, extract_label_patch,
                     extract_patch, plan_grid, stitch)

IN_CHANNELS = 3


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

    def f_agg(self) -> tuple[Tensor, Tensor]:
        return self.by_name["f_agg.kernel"], self.by_name["f_agg.bias"]

    def zero_grads(self) -> None:
        for t in self.by_name.values():
            t.grad = None

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
    x_loc: list[Tensor]              # fused local map per tile [d, patch, patch]
    x_loc_full: Tensor               # stitched local features [d, H, W]
    s_glb: Tensor                    # global-branch logits [K, gh, gw]
    s_loc: list[Tensor]              # per-tile logits [K, patch, patch]
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


def backbone_forward(x: Tensor, params: ModelParams, branch: str,
                     skip_last_pool: bool = False) -> Tensor:
    """Conv3x3 + relu stages with optional 2x average pooling."""
    cfg = params.backbone
    n = len(cfg.stage_channels)
    for i in range(n):
        kernel, bias = params.stage(branch, i)
        x = ad.relu(ad.conv2d(x, kernel, padding=1, bias=bias))
        if cfg.downsample_per_stage[i] and not (skip_last_pool and i == n - 1):
            x = ad.avg_pool2d(x, 2)
    return x


def tokens_from_map(x: Tensor, origin: str) -> TokenSeq:
    d, h, w = x.shape
    return TokenSeq(ad.transpose(ad.reshape(x, (d, h * w))), origin, (h, w))


def map_from_tokens(seq: TokenSeq) -> Tensor:
    h, w = seq.spatial
    return ad.reshape(ad.transpose(seq.tokens), (seq.d, h, w))


def refine_tokens(seq: TokenSeq, weights: AttentionWeights) -> TokenSeq:
    """Residual self-attention: tokens + attention(tokens)."""
    att = self_attention(seq, weights)
    return TokenSeq(ad.add(seq.tokens, att.tokens), seq.origin, seq.spatial)


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
    """Mean over pixels of -(1 - p_t)^gamma * log(p_t), log floored at 1e-12."""
    if gamma < 0:
        raise UsageError(f"focal_loss: gamma must be >= 0, got {gamma}")
    if logits.ndim != 3:
        raise DimensionError(f"focal_loss: logits must be [K,h,w], got {tuple(logits.shape)}")
    k, h, w = logits.shape
    targets = _check_labels(targets, k, (h, w))
    n = h * w
    flat = ad.transpose(ad.reshape(logits, (k, n)))
    p = ad.softmax_rows(flat)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), targets.reshape(-1)] = 1.0
    p_t = ad.matmul(ad.mul(p, Tensor(onehot)), Tensor(np.ones((k, 1))))
    focal_w = ad.power(ad.sub(Tensor(np.ones((n, 1))), p_t), gamma)
    per_pixel = ad.mul(focal_w, ad.log(p_t))
    return ad.scale(ad.mean_all(per_pixel), -1.0)


def coupling_penalty(x_loc: Tensor, x_glb: Tensor) -> Tensor:
    """Euclidean (Frobenius) norm of the branch feature difference.

    The global map is bilinearly resized to the local map's dims first;
    the result is 0 exactly when the aligned tensors are equal.
    """
    if x_loc.ndim != 3 or x_glb.ndim != 3 or x_loc.shape[0] != x_glb.shape[0]:
        raise DimensionError(
            f"coupling_penalty: incompatible {tuple(x_loc.shape)} vs {tuple(x_glb.shape)}")
    if x_glb.shape != x_loc.shape:
        x_glb = ad.bilinear_resize(x_glb, x_loc.shape[1], x_loc.shape[2])
    diff = ad.sub(x_loc, x_glb)
    return ad.sqrt(ad.sum_all(ad.mul(diff, diff)))


def _mean_tensors(parts: Sequence[Tensor]) -> Tensor:
    acc = parts[0]
    for t in parts[1:]:
        acc = ad.add(acc, t)
    return ad.scale(acc, 1.0 / len(parts))


# ---------------------------------------------------------------------------
# forward passes


def _global_tokens(image: Tensor, params: ModelParams,
                   settings: TrainSettings) -> TokenSeq:
    g = settings.global_size
    small = ad.bilinear_resize(image, g, g)
    fmap = backbone_forward(small, params, "g")
    seq = tokens_from_map(fmap, "global")
    if settings.use_self_attn:
        seq = refine_tokens(seq, params.attn("sa_g"))
    return seq


def _local_tokens(tile: np.ndarray, index: int, params: ModelParams,
                  settings: TrainSettings) -> TokenSeq:
    fmap = backbone_forward(Tensor(tile), params, "l", skip_last_pool=True)
    seq = tokens_from_map(fmap, f"local:{index}")
    if settings.use_self_attn:
        seq = refine_tokens(seq, params.attn("sa_l"))
    return seq


def _tile_forward(image: np.ndarray, grid: TileGrid, i: int,
                  glb_seq: TokenSeq, q_g: Tensor, k_g: Tensor, v_g: Tensor,
                  params: ModelParams, settings: TrainSettings
                  ) -> tuple[Tensor, Tensor]:
    """Tile `i`'s fused global tokens and fused local map, upsampled to
    [d, patch, patch]: the one tile pipeline of training and inference."""
    loc_seq = _local_tokens(extract_patch(image, grid, i), i, params, settings)
    q_l, k_l, v_l = project_qkv(loc_seq, params.attn("fuse_l"))
    mask_lg = build_patch_mask(grid, i, glb_seq.spatial,
                               settings.mask_dilation) \
        if settings.use_mask else None
    fused_g_i, fused_l_i = cross_fuse(q_g, k_l, v_l, q_l, k_g, v_g,
                                      mask_gl=None, mask_lg=mask_lg)
    loc_map = map_from_tokens(TokenSeq(fused_l_i, loc_seq.origin,
                                       loc_seq.spatial))
    return fused_g_i, ad.bilinear_resize(loc_map, grid.patch, grid.patch)


def forward_train(image: np.ndarray, labels: np.ndarray, grid: TileGrid,
                  params: ModelParams, settings: TrainSettings
                  ) -> tuple[BranchOutputs, LossBreakdown]:
    """Full training pass over one image; returns outputs and the loss."""
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != IN_CHANNELS:
        raise DimensionError(f"forward_train: image must be [3,H,W], got {image.shape}")
    h, w = image.shape[1:]
    if (grid.image_h, grid.image_w) != (h, w):
        raise DimensionError("forward_train: grid does not match image size")
    labels = _check_labels(labels, params.num_classes, (h, w))

    img_t = Tensor(image)
    glb_seq = _global_tokens(img_t, params, settings)
    q_g, k_g, v_g = project_qkv(glb_seq, params.attn("fuse_g"))

    fused_g_parts: list[Tensor] = []
    loc_maps_up: list[Tensor] = []
    loc_losses: list[Tensor] = []
    s_loc_list: list[Tensor] = []
    head_l_k, head_l_b = params.head("l")
    for i in range(grid.n_tiles):
        fused_g_i, loc_up = _tile_forward(image, grid, i, glb_seq, q_g, k_g,
                                          v_g, params, settings)
        fused_g_parts.append(fused_g_i)
        loc_maps_up.append(loc_up)
        s_loc = ad.conv2d(loc_up, head_l_k, padding=0, bias=head_l_b)
        s_loc_list.append(s_loc)
        tile_labels = extract_label_patch(labels, grid, i)
        loc_losses.append(focal_loss(s_loc, tile_labels, settings.focal_gamma))

    x_glb_tokens = _mean_tensors(fused_g_parts)
    x_glb = map_from_tokens(TokenSeq(x_glb_tokens, "global", glb_seq.spatial))
    x_loc_full = stitch(loc_maps_up, grid)

    head_g_k, head_g_b = params.head("g")
    s_glb = ad.conv2d(x_glb, head_g_k, padding=0, bias=head_g_b)
    gh, gw = glb_seq.spatial
    labels_g = downsample_labels_nn(labels, gh, gw)

    agg_k, agg_b = params.f_agg()
    glb_up = ad.bilinear_resize(x_glb, h, w)
    s_agg = ad.conv2d(ad.concat_channels([glb_up, x_loc_full]), agg_k,
                      padding=1, bias=agg_b)

    main_t = focal_loss(s_agg, labels, settings.focal_gamma)
    aux_g_t = focal_loss(s_glb, labels_g, settings.focal_gamma)
    aux_l_t = _mean_tensors(loc_losses)
    coupling_t = coupling_penalty(x_loc_full, x_glb)

    lam = settings.coupling_lambda
    total_t = ad.add(ad.add(main_t, aux_g_t), aux_l_t)
    if lam != 0.0:
        total_t = ad.add(total_t, ad.scale(coupling_t, lam))

    outputs = BranchOutputs(x_glb=x_glb, x_loc=loc_maps_up,
                            x_loc_full=x_loc_full, s_glb=s_glb,
                            s_loc=s_loc_list, s_agg=s_agg)
    breakdown = LossBreakdown(
        main=main_t.item(), aux_global=aux_g_t.item(), aux_local=aux_l_t.item(),
        coupling=coupling_t.item(), total=total_t.item(), total_tensor=total_t)
    return outputs, breakdown


def _global_window(xg: np.ndarray, image_h: int, image_w: int,
                   r: int, c: int, size: int) -> np.ndarray:
    """Tile-sized window of bilinear_resize(xg, H, W) without building it.

    Index/weight vectors for the full-size resize are computed once and
    sliced, so the window is bit-identical to cropping the full resize;
    rows/cols beyond the image stay zero (tiles may overhang the canvas).
    """
    d, gh, gw = xg.shape
    r0, r1, wy = _resize_axis(gh, image_h)
    c0, c1, wx = _resize_axis(gw, image_w)
    hh = min(size, image_h - r)
    ww = min(size, image_w - c)
    rr0, rr1 = r0[r:r + hh], r1[r:r + hh]
    cc0, cc1 = c0[c:c + ww], c1[c:c + ww]
    vy = wy[r:r + hh][:, None]
    vx = wx[c:c + ww][None, :]
    a = xg[:, rr0[:, None], cc0[None, :]]
    b = xg[:, rr0[:, None], cc1[None, :]]
    cc = xg[:, rr1[:, None], cc0[None, :]]
    dd = xg[:, rr1[:, None], cc1[None, :]]
    top = a + vx * (b - a)
    bot = cc + vx * (dd - cc)
    out = np.zeros((d, size, size), dtype=xg.dtype)
    out[:, :hh, :ww] = top + vy * (bot - top)
    return out


def forward_infer(image: np.ndarray, grid: Optional[TileGrid],
                  params: ModelParams, settings: TrainSettings,
                  mode: str = "patch",
                  mem_report: Optional[dict] = None) -> np.ndarray:
    """Predict a class-index map. No tape; transients die with each tile.

    Patch mode walks the provided grid; global mode treats the whole
    image as a single tile at full resolution (the tile is padded up to a
    stride multiple when needed). Each tile's local branch runs once, since
    conv(concat[G, L], K) + b = conv(G, K[:, :d]) + conv(L, K[:, d:]) + b.
    When `mem_report` is given, the allocation ledger's peak is reset
    after the full-size accumulators and the two kernel halves exist, so
    the reported transient excludes input/output-scale buffers. The
    halves are per-model constants; built after the reset, their bytes
    would be counted in every transient.
    """
    from .memory import LEDGER

    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[0] != IN_CHANNELS:
        raise DimensionError(f"forward_infer: image must be [3,H,W], got {image.shape}")
    h, w = image.shape[1:]
    if mode == "patch":
        if grid is None:
            raise UsageError("forward_infer: patch mode needs a tile grid")
        if (grid.image_h, grid.image_w) != (h, w):
            raise DimensionError("forward_infer: grid does not match image size")
    elif mode == "global":
        stride = params.backbone.stride(skip_last_pool=True)
        side = max(h, w)
        side = ((side + stride - 1) // stride) * stride
        grid = plan_grid(h, w, side, 0)
    else:
        raise UsageError(f"forward_infer: unknown mode {mode!r}")

    img_t = Tensor(image)
    acc = StitchAccumulator(params.num_classes, h, w, grid.patch)
    d = params.backbone.d_model
    agg_k, agg_b = params.f_agg()
    agg_k_glb = Tensor(agg_k.data[:, :d])
    agg_k_loc = Tensor(agg_k.data[:, d:])
    if mem_report is not None:
        mem_report["baseline_bytes"] = LEDGER.reset_peak()

    glb_seq = _global_tokens(img_t, params, settings)
    q_g, k_g, v_g = project_qkv(glb_seq, params.attn("fuse_g"))

    # running mean of the fused global tokens; stitch of the local half
    fused_g_mean = np.zeros_like(q_g.data)
    for i in range(grid.n_tiles):
        fused_g_i, loc_up = _tile_forward(image, grid, i, glb_seq, q_g, k_g,
                                          v_g, params, settings)
        fused_g_mean += (fused_g_i.data - fused_g_mean) / (i + 1)
        acc.add(ad.conv2d(loc_up, agg_k_loc, padding=1, bias=agg_b).data,
                grid.origins[i])

    gh, gw = glb_seq.spatial
    x_glb = np.ascontiguousarray(fused_g_mean.T.reshape(d, gh, gw))

    # global half: the coverage counts are final, so shares add directly
    for r, c in grid.origins:
        glb_win = Tensor(_global_window(x_glb, h, w, r, c, grid.patch))
        acc.add_share(ad.conv2d(glb_win, agg_k_glb, padding=1).data, (r, c))

    if mem_report is not None:
        mem_report["peak_bytes"] = LEDGER.peak_bytes
        mem_report["transient_bytes"] = (LEDGER.peak_bytes
                                         - mem_report["baseline_bytes"])
    return np.argmax(acc.mean, axis=0).astype(np.int64)


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
