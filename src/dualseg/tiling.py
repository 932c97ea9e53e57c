"""Overlapped tiling of large images and exact stitch-back.

`plan_grid` enumerates patch origins with a fixed stride plus a clamped
final tile per axis, so every pixel is covered and no tile leaves the
image (images smaller than the patch get one zero-padded tile).
`TileGrid.window` is the one place that cuts a tile to the canvas:
`extract_patch` (images and label maps alike), `StitchAccumulator`,
`stitch` and `attention.build_patch_mask` all read it.
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

    def window(self, index: int) -> tuple[slice, slice]:
        """Canvas rows and columns tile `index` covers: its patch, cut at
        the image edge."""
        if not 0 <= index < self.n_tiles:
            raise DimensionError(
                f"TileGrid.window: tile {index} outside 0..{self.n_tiles - 1}")
        r, c = self.origins[index]
        return (slice(r, min(r + self.patch, self.image_h)),
                slice(c, min(c + self.patch, self.image_w)))


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


def _in_canvas(tile: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    """The view of a patch-sized `tile` that lies on the canvas in the
    window `rows`, `cols`."""
    return tile[..., :rows.stop - rows.start, :cols.stop - cols.start]


def extract_patch(image: np.ndarray, grid: TileGrid, index: int) -> np.ndarray:
    """Copy tile `index` out of a [..., H, W] array (an image or a label
    map), zero-padding past the edge and keeping the dtype."""
    if image.shape[-2:] != (grid.image_h, grid.image_w):
        raise DimensionError(
            f"extract_patch: image {image.shape} does not match grid "
            f"{grid.image_h}x{grid.image_w}")
    rows, cols = grid.window(index)
    out = np.zeros(image.shape[:-2] + (grid.patch, grid.patch),
                   dtype=image.dtype)
    _in_canvas(out, rows, cols)[...] = image[..., rows, cols]
    return out


class StitchAccumulator:
    """Running per-pixel mean of tile values over a grid's full canvas.

    `mean` holds the average of everything added so far and `count` the
    per-pixel coverage. The incremental update `m += (x - m) / k` keeps
    the average exact when all contributions to a pixel are equal, which
    a plain sum-then-divide does not guarantee in floating point.
    `add_share` adds a second term per tile once the counts are final.
    `mean` has the dtype of the data it accumulates, `dtype` (float32
    for inference, float64 for training's `stitch`), and the counts are
    cast to it before they divide: an int64 divisor would promote a
    float32 update to float64.
    """

    def __init__(self, channels: int, grid: TileGrid, dtype=np.float64):
        self.grid = grid
        self.mean = np.zeros((channels, grid.image_h, grid.image_w), dtype)
        self.count = np.zeros((grid.image_h, grid.image_w), dtype=np.int64)

    def add(self, values: np.ndarray, index: int) -> None:
        tile, (rows, cols) = self._tile_region(values, index, "add")
        self.count[rows, cols] += 1
        mean = self.mean[:, rows, cols]
        mean += (tile - mean) / self.count[rows, cols].astype(mean.dtype)

    def add_share(self, values: np.ndarray, index: int) -> None:
        """Add `values / count` over tile `index`'s window; `count` is kept.

        With the counts final (every tile already went through `add`),
        adding each tile's second term g_i here turns the stitched mean
        of the l_i into the mean of the sums: mean(l) + sum(g) / count.
        """
        tile, (rows, cols) = self._tile_region(values, index, "add_share")
        count = self.count[rows, cols]
        if not count.all():
            raise UsageError(
                f"StitchAccumulator.add_share: tile {index} covers pixels "
                f"no tile was added to")
        self.mean[:, rows, cols] += tile / count.astype(self.mean.dtype)

    def _tile_region(self, values: np.ndarray, index: int, method: str
                     ) -> tuple[np.ndarray, tuple[slice, slice]]:
        """The in-canvas part of a tile and the window it covers."""
        p = self.grid.patch
        if values.shape != (self.mean.shape[0], p, p):
            raise DimensionError(
                f"StitchAccumulator.{method}: tile shape {values.shape} != "
                f"({self.mean.shape[0]}, {p}, {p})")
        rows, cols = self.grid.window(index)
        return _in_canvas(values, rows, cols), (rows, cols)


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
    acc = StitchAccumulator(channels, grid, patches[0].data.dtype)
    for i, t in enumerate(patches):
        acc.add(t.data, i)
    out = Tensor(acc.mean)
    count = acc.count

    def bw(g):
        for i, t in enumerate(patches):
            if not t.requires_grad:
                continue
            rows, cols = grid.window(i)
            gp = np.zeros_like(t.data)
            _in_canvas(gp, rows, cols)[...] = g[:, rows, cols] / count[rows, cols]
            t.accumulate_grad(gp)

    return _maybe_record(tuple(patches), out, bw)
