"""What the geometric mask does to cross-branch retrieval.

Builds a 4x4 global token grid and one local tile, then runs the
local-to-global attention direction with and without the tile's
footprint mask and prints where each query's attention mass lands.
"""

import numpy as np

from dualseg import (AttentionMask, AttentionWeights, Tensor, TokenSeq,
                     build_patch_mask, cross_fuse, plan_grid,
                     scaled_dot_attention, self_attention)
from dualseg import autodiff as ad

rng = np.random.default_rng(1)

# a 32x32 image tiled into 16x16 patches with 4 px overlap; the global
# feature grid is 4x4, so each tile footprint covers a 2x2 block of cells
grid = plan_grid(32, 32, 16, 4)
g_spatial = (4, 4)
n_g = g_spatial[0] * g_spatial[1]
d = 8

global_tokens = TokenSeq(Tensor(rng.normal(size=(n_g, d))), g_spatial)
local_tokens = TokenSeq(Tensor(rng.normal(size=(16, d))), (4, 4))

w = AttentionWeights(d, d, rng=rng)
refined = self_attention(global_tokens, w)
print(f"self-attention keeps shape: {global_tokens.tokens.shape} -> "
      f"{refined.tokens.shape}")

mask = build_patch_mask(grid, 0, g_spatial, dilation=0)
print(f"\ntile 0 footprint over the {g_spatial[0]}x{g_spatial[1]} global grid "
      f"(dilation 0):")
print(mask.allowed.reshape(g_spatial).astype(int))
dilated = build_patch_mask(grid, 0, g_spatial, dilation=1)
print("with one cell of dilation:")
print(dilated.allowed.reshape(g_spatial).astype(int))

q_l = ad.matmul(local_tokens.tokens, w.w_q)
k_g = ad.matmul(global_tokens.tokens, w.w_k)
v_g = ad.matmul(global_tokens.tokens, w.w_v)

def mass_inside(mask_arg):
    out = scaled_dot_attention(q_l, k_g, v_g, mask_arg)
    # recompute the row weights the same way to inspect them
    scores = (q_l.data @ k_g.data.T) / np.sqrt(d)
    if mask_arg is not None:
        scores = np.where(mask_arg.allowed, scores, -np.inf)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    attn = e / e.sum(axis=1, keepdims=True)
    inside = attn[:, mask.allowed[0]].sum(axis=1)
    return out, inside

_, free_mass = mass_inside(None)
_, masked_mass = mass_inside(dilated)
print(f"\nattention mass landing on the tile's own cells, per query:")
print(f"  unmasked: min {free_mass.min():.2f}  mean {free_mass.mean():.2f}")
print(f"  masked:   min {masked_mass.min():.2f}  mean {masked_mass.mean():.2f}")

q_g = ad.matmul(global_tokens.tokens, w.w_q)
k_l = ad.matmul(local_tokens.tokens, w.w_k)
v_l = ad.matmul(local_tokens.tokens, w.w_v)
fused_g, fused_l = cross_fuse(q_g, k_l, v_l, q_l, k_g, v_g, mask_lg=dilated)
print(f"\ncross_fuse returns both directions with residual queries: "
      f"global {fused_g.shape}, local {fused_l.shape}")
zero_g, zero_l = cross_fuse(q_g, k_l, Tensor(np.zeros_like(v_l.data)),
                            q_l, k_g, Tensor(np.zeros_like(v_g.data)))
print(f"zero value streams return the queries exactly: "
      f"{bool(np.array_equal(zero_l.data, q_l.data))}")
