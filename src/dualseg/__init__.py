"""Dual-branch segmentation on a small numpy autodiff core.

Two feature streams look at the same image: a global branch on a
downsampled copy for scene-level context, and a local branch on
full-resolution overlapping tiles for detail. Self-attention refines
each token sequence, masked cross-attention exchanges context between
the branches, and a 3x3 aggregation conv over the concatenated maps
produces the final logits. Inference tiles the image so the transient
footprint stays flat while whole-image cost grows with area.

The interesting public surface:

- `autodiff`: Tensor, GradTape, the op set, and `gradcheck`.
- `attention`: scaled_dot_attention, cross_fuse, build_patch_mask.
- `tiling`: plan_grid, TileGrid.window, extract_patch, stitch.
- `model`: ModelParams, forward_train, forward_infer, Adam.
- `metrics`: ConfusionMatrix (IoU / mIoU / overall accuracy).
- `memory`: AllocationLedger behind the bench numbers.
- `harness`: RunConfig, synthetic data, train/eval loops, presets.
- `cli`: the `dualseg` command line front end.
"""

from .autodiff import GradTape, Tensor, gradcheck
from .attention import (AttentionMask, AttentionWeights, TokenSeq,
                        build_patch_mask, cross_fuse, scaled_dot_attention,
                        self_attention)
from .errors import (CheckFailure, ConfigError, DataError, DimensionError,
                     InvalidMaskError, UsageError)
from .metrics import ConfusionMatrix
from .model import (Adam, BackboneConfig, BranchOutputs, LossBreakdown,
                    ModelParams, TrainSettings, focal_loss, forward_infer,
                    forward_train)
from .tiling import TileGrid, extract_patch, plan_grid, stitch

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "AttentionMask",
    "AttentionWeights",
    "BackboneConfig",
    "BranchOutputs",
    "CheckFailure",
    "ConfigError",
    "ConfusionMatrix",
    "DataError",
    "DimensionError",
    "GradTape",
    "InvalidMaskError",
    "LossBreakdown",
    "ModelParams",
    "Tensor",
    "TileGrid",
    "TokenSeq",
    "TrainSettings",
    "UsageError",
    "build_patch_mask",
    "cross_fuse",
    "extract_patch",
    "focal_loss",
    "forward_infer",
    "forward_train",
    "gradcheck",
    "plan_grid",
    "scaled_dot_attention",
    "self_attention",
    "stitch",
    "__version__",
]
