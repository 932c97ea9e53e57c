"""Scaled dot-product attention between token sequences.

Tokens are rows of a [n, d] matrix; a TokenSeq remembers which spatial
grid they were flattened from (row-major) so attention masks can be
built geometrically. Each attention call is one fused autodiff op,
`autodiff.sdpa`, which scores scaled queries and exponentiates the
scores in place, in blocks of at most `autodiff.SDPA_BLOCK_ROWS` query
rows that reuse one buffer, and normalises the output rows. It runs the
same way under a tape and keeps no scores; its backward rebuilds the
[n_q, n_k] probability matrix while it runs. The allocation ledger
counts the block buffer and that matrix. A mask that is one row shared
by every query drops the disallowed keys before scoring; a full mask
replaces disallowed scores with a large negative constant before the
softmax. Either way a fully-allowed mask leaves the result bit-identical
to running without one, and rows stay normalised over the allowed keys.
A mask row that allows no keys would make the softmax meaningless, so
that is rejected at construction time rather than silently renormalised.

Attention here is single-head. Fusion runs both cross-directions
independently and adds the attended values back onto the projected
queries, which requires the value width to equal the query width; the
model keeps every projection at d_model for that reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError, InvalidMaskError
from .tiling import TileGrid


@dataclass
class TokenSeq:
    """Flattened feature map: tokens[h * w, d] in row-major spatial order."""

    tokens: Tensor
    spatial: tuple[int, int]

    def __post_init__(self):
        h, w = self.spatial
        if self.tokens.ndim != 2 or self.tokens.shape[0] != h * w:
            raise DimensionError(
                f"TokenSeq: {tuple(self.tokens.shape)} tokens do not tile "
                f"a {h}x{w} grid")

    @property
    def d(self) -> int:
        return self.tokens.shape[1]


class AttentionMask:
    """Boolean pattern of allowed query/key pairs, [n_q, n_k] or [1, n_k]."""

    def __init__(self, allowed):
        allowed = np.ascontiguousarray(allowed, dtype=bool)
        if allowed.ndim != 2:
            raise DimensionError(
                f"AttentionMask: expected a 2-d pattern, got {allowed.shape}")
        empty = ~allowed.any(axis=1)
        if empty.any():
            rows = np.flatnonzero(empty)
            raise InvalidMaskError(
                f"mask rows {rows.tolist()} allow no keys; every query needs "
                f"at least one attendable position")
        self.allowed = allowed

    @property
    def shape(self):
        return self.allowed.shape


class AttentionWeights:
    """Query/key/value projection matrices for one token stream; values
    are as wide as queries, which `cross_fuse`'s residuals need."""

    def __init__(self, d_in: int, d_k: int,
                 rng: Optional[np.random.Generator] = None):
        if d_k < 1:
            raise DimensionError("AttentionWeights: projection dims must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.w_q = ad.init_uniform(rng, (d_in, d_k), d_in)
        self.w_k = ad.init_uniform(rng, (d_in, d_k), d_in)
        self.w_v = ad.init_uniform(rng, (d_in, d_k), d_in)

    def named(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.w_q": self.w_q, f"{prefix}.w_k": self.w_k,
                f"{prefix}.w_v": self.w_v}


def project_qkv(f: TokenSeq, w: AttentionWeights) -> tuple[Tensor, Tensor, Tensor]:
    """Project tokens into query, key and value spaces."""
    if f.d != w.w_q.shape[0]:
        raise DimensionError(
            f"project_qkv: token width {f.d} != projection input {w.w_q.shape[0]}")
    return (ad.matmul(f.tokens, w.w_q),
            ad.matmul(f.tokens, w.w_k),
            ad.matmul(f.tokens, w.w_v))


def scaled_dot_attention(q: Tensor, k: Tensor, v: Tensor,
                         mask: Optional[AttentionMask] = None) -> Tensor:
    """softmax(q kᵀ / sqrt(d_k)) v with optional masking of the scores.

    One `ad.sdpa` op: one tape record, one counted score buffer. It
    raises DimensionError on shapes or a mask that do not fit.
    """
    return ad.sdpa(q, k, v, None if mask is None else mask.allowed)


def self_attention(f: TokenSeq, w: AttentionWeights) -> TokenSeq:
    """Full (unmasked) attention of a sequence over itself.

    Pure attention output; callers that want a residual add it themselves.
    """
    q, k, v = project_qkv(f, w)
    return TokenSeq(scaled_dot_attention(q, k, v), f.spatial)


def cross_fuse(q_g: Tensor, k_l: Tensor, v_l: Tensor,
               q_l: Tensor, k_g: Tensor, v_g: Tensor,
               mask_gl: Optional[AttentionMask] = None,
               mask_lg: Optional[AttentionMask] = None) -> tuple[Tensor, Tensor]:
    """Bidirectional cross-attention with residual queries.

    Global queries attend over local keys/values and vice versa; each
    direction is computed independently and the attended values are added
    back onto the queries:

        fused_g = softmax(q_g k_lᵀ / √d) v_l + q_g
        fused_l = softmax(q_l k_gᵀ / √d) v_g + q_l

    The value width must equal the query width on each side or the
    residual addition is rejected.
    """
    if v_l.shape[1] != q_g.shape[1]:
        raise DimensionError(
            f"cross_fuse: local value width {v_l.shape[1]} != global query "
            f"width {q_g.shape[1]}; residual addition needs them equal")
    if v_g.shape[1] != q_l.shape[1]:
        raise DimensionError(
            f"cross_fuse: global value width {v_g.shape[1]} != local query "
            f"width {q_l.shape[1]}; residual addition needs them equal")
    fused_g = ad.add(scaled_dot_attention(q_g, k_l, v_l, mask_gl), q_g)
    fused_l = ad.add(scaled_dot_attention(q_l, k_g, v_g, mask_lg), q_l)
    return fused_g, fused_l


def build_patch_mask(grid: TileGrid, patch_index: int,
                     global_spatial: tuple[int, int],
                     dilation: int = 1) -> AttentionMask:
    """Allowed global positions for one tile's local queries, as [1, n_g].

    A global cell is allowed when its image footprint overlaps the tile
    rectangle, expanded by `dilation` cells of surrounding context
    (default one cell in every direction). The single row broadcasts over
    every query in the tile; a tile always overlaps at least one cell, so
    the row cannot be empty.
    """
    gh, gw = global_spatial
    if gh < 1 or gw < 1:
        raise DimensionError(f"build_patch_mask: bad global grid {gh}x{gw}")
    if dilation < 0:
        raise DimensionError("build_patch_mask: dilation must be >= 0")
    win_r, win_c = grid.window(patch_index)
    # global cell i spans image rows [i * H / gh, (i+1) * H / gh)
    lo_r = int(math.floor(win_r.start * gh / grid.image_h)) - dilation
    hi_r = int(math.ceil(win_r.stop * gh / grid.image_h)) - 1 + dilation
    lo_c = int(math.floor(win_c.start * gw / grid.image_w)) - dilation
    hi_c = int(math.ceil(win_c.stop * gw / grid.image_w)) - 1 + dilation
    rows = np.zeros(gh, dtype=bool)
    cols = np.zeros(gw, dtype=bool)
    rows[max(lo_r, 0):min(hi_r, gh - 1) + 1] = True
    cols[max(lo_c, 0):min(hi_c, gw - 1) + 1] = True
    return AttentionMask((rows[:, None] & cols[None, :]).reshape(1, gh * gw))
