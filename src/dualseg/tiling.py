"""Overlapped tiling of large images and exact stitch-back.

`plan_grid` enumerates patch origins with a fixed stride plus a clamped
final tile per axis, so every pixel is covered and no tile leaves the
image (images smaller than the patch get one zero-padded tile).
Overlapping predictions are averaged with a Welford running mean, which
reproduces each contribution exactly when all contributions agree, at
any coverage count. `stitch` is the differentiable version of that
averaging for training; `StitchAccumulator` is the plain numpy one for
inference, where tiles arrive one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .autodiff import Tensor, _maybe_record
from .errors import DimensionError, UsageError


# Most tiles a grid may hold: each origin is a Python tuple, so a bound on
# their number is a bound on the plan's memory (and on `dualseg tile`'s JSON).
MAX_TILES = 2 ** 22


def _axis_starts(dim: int, patch: int, stride: int) -> list[int]:
    """Origins along one axis: every stride step, then one tile flush with
    the far edge (a single origin 0 when the patch spans the axis)."""
    return [*range(0, dim - patch, stride), max(dim - patch, 0)]


def _axis_count(dim: int, patch: int, stride: int) -> int:
    """len(_axis_starts(dim, patch, stride)), without building the list."""
    return len(range(0, dim - patch, stride)) + 1


@dataclass(frozen=True)
class TileGrid:
    """Patch placement for one image size."""

    image_h: int
    image_w: int
    patch: int
    overlap: int
    row_starts: tuple[int, ...]
    col_starts: tuple[int, ...]
    origins: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "origins",
            tuple((r, c) for r in self.row_starts for c in self.col_starts))

    @property
    def n_tiles(self) -> int:
        return len(self.origins)


def plan_grid(image_h: int, image_w: int, patch: int, overlap: int) -> TileGrid:
    if patch < 1:
        raise DimensionError(f"plan_grid: patch must be positive, got {patch}")
    if not 0 <= overlap < patch:
        raise DimensionError(
            f"plan_grid: overlap must satisfy 0 <= overlap < patch, got {overlap}")
    if image_h < 1 or image_w < 1:
        raise DimensionError(f"plan_grid: empty image {image_h}x{image_w}")
    stride = patch - overlap
    n_tiles = _axis_count(image_h, patch, stride) * _axis_count(image_w, patch, stride)
    if n_tiles > MAX_TILES:
        raise DimensionError(
            f"plan_grid: {image_h}x{image_w} with patch {patch}, overlap "
            f"{overlap} needs {n_tiles} tiles, more than {MAX_TILES}")
    return TileGrid(
        image_h=image_h, image_w=image_w, patch=patch, overlap=overlap,
        row_starts=tuple(_axis_starts(image_h, patch, stride)),
        col_starts=tuple(_axis_starts(image_w, patch, stride)))


def extract_patch(image: np.ndarray, grid: TileGrid, index: int) -> np.ndarray:
    """Copy tile `index` out of a [C,H,W] array, zero-padding past the edge."""
    if image.ndim != 3 or image.shape[1:] != (grid.image_h, grid.image_w):
        raise DimensionError(
            f"extract_patch: image {image.shape} does not match grid "
            f"{grid.image_h}x{grid.image_w}")
    r, c = grid.origins[index]
    p = grid.patch
    out = np.zeros((image.shape[0], p, p), dtype=image.dtype)
    hh = min(p, grid.image_h - r)
    ww = min(p, grid.image_w - c)
    out[:, :hh, :ww] = image[:, r:r + hh, c:c + ww]
    return out


def extract_label_patch(labels: np.ndarray, grid: TileGrid, index: int,
                        fill: int = 0) -> np.ndarray:
    """Like extract_patch for a [H,W] integer label map."""
    if labels.shape != (grid.image_h, grid.image_w):
        raise DimensionError(
            f"extract_label_patch: labels {labels.shape} do not match grid")
    r, c = grid.origins[index]
    p = grid.patch
    out = np.full((p, p), fill, dtype=labels.dtype)
    hh = min(p, grid.image_h - r)
    ww = min(p, grid.image_w - c)
    out[:hh, :ww] = labels[r:r + hh, c:c + ww]
    return out


class StitchAccumulator:
    """Running per-pixel mean of tile values over a full-size canvas.

    `mean` holds the average of everything added so far and `count` the
    per-pixel coverage. The incremental update `m += (x - m) / k` keeps
    the average exact when all contributions to a pixel are equal, which
    a plain sum-then-divide does not guarantee in floating point.
    `add_share` adds a second term per tile once the counts are final.
    """

    def __init__(self, channels: int, image_h: int, image_w: int, patch: int):
        self.mean = np.zeros((channels, image_h, image_w))
        self.count = np.zeros((image_h, image_w), dtype=np.int64)
        self.patch = int(patch)

    def add(self, values: np.ndarray, origin: tuple[int, int]) -> None:
        tile, region = self._tile_region(values, origin, "add")
        self.count[region] += 1
        mean = self.mean[(slice(None),) + region]
        mean += (tile - mean) / self.count[region]

    def add_share(self, values: np.ndarray, origin: tuple[int, int]) -> None:
        """Add `values / count` over the tile's region; `count` is kept.

        With the counts final (every tile already went through `add`),
        adding each tile's second term g_i here turns the stitched mean
        of the l_i into the mean of the sums: mean(l) + sum(g) / count.
        """
        tile, region = self._tile_region(values, origin, "add_share")
        count = self.count[region]
        if not count.all():
            raise UsageError(
                f"StitchAccumulator.add_share: region at {origin} has "
                f"pixels no tile was added to")
        self.mean[(slice(None),) + region] += tile / count

    def _tile_region(self, values: np.ndarray, origin: tuple[int, int],
                     method: str) -> tuple[np.ndarray, tuple[slice, slice]]:
        """The in-canvas part of a tile and the canvas region it covers."""
        p = self.patch
        if values.shape != (self.mean.shape[0], p, p):
            raise DimensionError(
                f"StitchAccumulator.{method}: tile shape {values.shape} != "
                f"({self.mean.shape[0]}, {p}, {p})")
        r, c = origin
        hh = min(p, self.mean.shape[1] - r)
        ww = min(p, self.mean.shape[2] - c)
        if hh <= 0 or ww <= 0 or r < 0 or c < 0:
            raise DimensionError(
                f"StitchAccumulator.{method}: origin {origin} outside canvas")
        return values[:, :hh, :ww], (slice(r, r + hh), slice(c, c + ww))


def stitch(patches: Sequence[Tensor], grid: TileGrid) -> Tensor:
    """Differentiable overlap-average of per-tile maps onto the full canvas.

    Backward splits the incoming gradient evenly across the tiles that
    covered each pixel (1/count per contribution).
    """
    if len(patches) != grid.n_tiles:
        raise DimensionError(
            f"stitch: got {len(patches)} tiles for a grid of {grid.n_tiles}")
    channels = patches[0].shape[0]
    for t in patches:
        if t.ndim != 3 or t.shape != (channels, grid.patch, grid.patch):
            raise DimensionError(f"stitch: bad tile shape {tuple(t.shape)}")
    acc = StitchAccumulator(channels, grid.image_h, grid.image_w, grid.patch)
    for t, origin in zip(patches, grid.origins):
        acc.add(t.data, origin)
    out = Tensor(acc.mean)
    count = acc.count

    def bw(g):
        for t, (r, c) in zip(patches, grid.origins):
            if not t.requires_grad:
                continue
            hh = min(grid.patch, grid.image_h - r)
            ww = min(grid.patch, grid.image_w - c)
            gp = np.zeros_like(t.data)
            region = (slice(None), slice(r, r + hh), slice(c, c + ww))
            gp[:, :hh, :ww] = g[region] / count[region[1:]]
            t.accumulate_grad(gp)

    return _maybe_record(tuple(patches), out, bw)
