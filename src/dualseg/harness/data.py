"""Synthetic scenes that need BOTH context streams to segment.

Class 1 (small rectangles) and class 2 (a full-width band) are filled
with the *same* one-pixel checkerboard texture, so a local window cannot
tell them apart: the class is decided by large-scale extent, which only
the downsampled stream can see. Conversely, the checkerboard has a
one-pixel period, so any 2x block averages to exactly 0.5 and the
downsampled stream sees both classes as the same flat gray: where the
region boundary runs can only be resolved by the full-resolution stream.
Background (class 0) is gray at a different level with mild noise.

Geometry per scene: one horizontal band plus one or two rectangles
placed off the band, so every class is present in every image.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from .netpbm import image_to_bytes, write_pgm, write_ppm

BG_LEVEL = 0.40
BG_NOISE = 0.02
CHECKER_LO = 0.15
CHECKER_HI = 0.85
BAND_THICKNESS = (24, 32)
RECT_SIZE = (10, 14)
MIN_SIZE = 48        # smallest side that fits the band and a rectangle
# Largest side gen-data writes. A scene of side s holds a float64 image
# (24 s^2 bytes) and int64 labels (8 s^2 bytes): 537 MB at 4096 px, where
# an unbounded 65536 px side would ask for ~137 GB.
MAX_SIZE = 4096
MIN_CLASSES = 3      # background, rectangles, band


@dataclass
class SyntheticScene:
    image: np.ndarray    # float [3, H, W] in [0, 1]
    labels: np.ndarray   # int64 [H, W], values < num_classes


def _checker(h: int, w: int, y0: int, x0: int, phase: int) -> np.ndarray:
    """[3, h, w] checkerboard patch anchored at absolute (y0, x0)."""
    yy = np.arange(y0, y0 + h)[:, None]
    xx = np.arange(x0, x0 + w)[None, :]
    par = (yy + xx + phase) % 2
    out = np.empty((3, h, w))
    out[0] = np.where(par == 0, CHECKER_LO, CHECKER_HI)
    out[1] = np.where(par == 0, CHECKER_HI, CHECKER_LO)
    out[2] = 0.5
    return out


def generate_scene(rng: np.random.Generator, size: int = 64,
                   num_classes: int = 3) -> SyntheticScene:
    if num_classes < MIN_CLASSES:
        raise DataError(f"generate_scene: the task needs {MIN_CLASSES} "
                        f"classes, got {num_classes}")
    if size < MIN_SIZE:
        raise DataError(
            f"generate_scene: size must be >= {MIN_SIZE}, got {size}")
    image = np.full((3, size, size),
                    BG_LEVEL) + rng.uniform(-BG_NOISE, BG_NOISE, (size, size))
    labels = np.zeros((size, size), dtype=np.int64)

    # full-width band: class 2
    t = int(rng.integers(BAND_THICKNESS[0], BAND_THICKNESS[1] + 1))
    y0 = int(rng.integers(0, size - t + 1))
    image[:, y0:y0 + t, :] = _checker(t, size, y0, 0, int(rng.integers(2)))
    labels[y0:y0 + t, :] = 2

    # one or two rectangles clear of the band: class 1
    for _ in range(int(rng.integers(1, 3))):
        s = int(rng.integers(RECT_SIZE[0], RECT_SIZE[1] + 1))
        for _attempt in range(64):
            ry = int(rng.integers(0, size - s + 1))
            if ry + s <= y0 or ry >= y0 + t:
                break
        else:
            # deterministic fallback: the wider margin always fits
            ry = 0 if y0 >= size - (y0 + t) else size - s
        rx = int(rng.integers(0, size - s + 1))
        image[:, ry:ry + s, rx:rx + s] = _checker(s, s, ry, rx,
                                                  int(rng.integers(2)))
        labels[ry:ry + s, rx:rx + s] = 1

    return SyntheticScene(image=image, labels=labels)


def _write_split(out_dir: str, count: int, size: int, num_classes: int,
                 seed: int) -> None:
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(count):
        scene = generate_scene(rng, size, num_classes)
        stem = os.path.join(out_dir, f"scene_{i:04d}")
        write_ppm(stem + ".ppm", image_to_bytes(scene.image))
        write_pgm(stem + ".labels.pgm", scene.labels.astype(np.uint8))


def gen_data(out_dir: str, n_train: int, n_val: int, size: int,
             num_classes: int, seed: int) -> dict:
    """Write train/ and val/ splits; val uses an offset seed stream.

    Sizes the task cannot use are configuration errors, raised before
    any directory is made."""
    if not MIN_SIZE <= size <= MAX_SIZE:
        raise ConfigError(f"config key 'image_size': gen-data needs "
                          f"{MIN_SIZE}..{MAX_SIZE}, got {size}")
    if num_classes < MIN_CLASSES:
        raise ConfigError(f"config key 'num_classes': gen-data needs >= "
                          f"{MIN_CLASSES}, got {num_classes}")
    _write_split(os.path.join(out_dir, "train"), n_train, size,
                 num_classes, seed)
    _write_split(os.path.join(out_dir, "val"), n_val, size,
                 num_classes, seed + 1000)
    return {"train": n_train, "val": n_val, "size": size,
            "num_classes": num_classes, "seed": seed}
