"""Synthetic scene generation: determinism, structure, stream separation."""

import os

import numpy as np
import pytest

from dualseg.errors import ConfigError, DataError
from dualseg.harness import data
from dualseg.harness.data import SyntheticScene, gen_data, generate_scene
from dualseg.harness.netpbm import read_pgm, read_ppm
from dualseg.tiling import plan_grid


def make(seed=0, size=64):
    return generate_scene(np.random.default_rng(seed), size=size)


class TestSceneStructure:
    def test_every_class_present_in_every_scene(self):
        for seed in range(25):
            scene = make(seed)
            assert set(np.unique(scene.labels)) == {0, 1, 2}

    def test_labels_and_image_shape_agree(self):
        scene = make(1, size=96)
        assert scene.image.shape == (3, 96, 96)
        assert scene.labels.shape == (96, 96)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0

    def test_band_spans_full_width(self):
        scene = make(2)
        rows = np.where((scene.labels == 2).any(axis=1))[0]
        assert ((scene.labels[rows] == 2).sum(axis=1) == 64).all()

    def test_rectangles_do_not_touch_the_band(self):
        # class 1 pixels never sit in a row that holds class 2
        for seed in range(25):
            scene = make(seed)
            band_rows = (scene.labels == 2).any(axis=1)
            rect_rows = (scene.labels == 1).any(axis=1)
            assert not (band_rows & rect_rows).any()

    def test_textured_classes_share_local_statistics(self):
        # rect and band interiors use the same checkerboard, so a local
        # window cannot separate them: pixel value sets must be equal
        scene = make(3)
        rect_vals = np.unique(scene.image[0][scene.labels == 1])
        band_vals = np.unique(scene.image[0][scene.labels == 2])
        assert np.array_equal(rect_vals, band_vals)

    def test_downsampling_erases_the_texture(self):
        # 2x average of a one-pixel checkerboard is exactly flat gray,
        # so the downsampled stream sees only region extent
        scene = make(4)
        img = scene.image
        pooled = (img[:, ::2, ::2] + img[:, 1::2, ::2]
                  + img[:, ::2, 1::2] + img[:, 1::2, 1::2]) / 4
        lab_pooled = scene.labels[::2, ::2]
        interior = np.zeros_like(lab_pooled, dtype=bool)
        # stay clear of region borders where the block mixes classes
        body = (scene.labels == 2)[::2, ::2] & (scene.labels == 2)[1::2, 1::2]
        interior[1:-1, 1:-1] = body[1:-1, 1:-1]
        assert np.abs(pooled[:, interior] - 0.5).max() <= 1e-12

    def test_validation(self):
        with pytest.raises(DataError):
            generate_scene(np.random.default_rng(0), size=64, num_classes=2)
        with pytest.raises(DataError):
            generate_scene(np.random.default_rng(0), size=32)

    def test_determinism_per_rng_state(self):
        a = make(7)
        b = make(7)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.labels, b.labels)


class TestGenData:
    def test_size_cap_both_sides(self, tmp_path, monkeypatch):
        # the split writer is stubbed, so no large scene is drawn
        sizes = []
        monkeypatch.setattr(data, "_write_split",
                            lambda out, count, size, *rest: sizes.append(size))
        assert gen_data(tmp_path / "a", 1, 1, data.MAX_SIZE, 3, 0)["size"] \
            == data.MAX_SIZE
        assert sizes == [data.MAX_SIZE] * 2
        with pytest.raises(ConfigError,
                           match=rf"'image_size'.*got {data.MAX_SIZE + 1}"):
            gen_data(tmp_path / "b", 1, 1, data.MAX_SIZE + 1, 3, 0)
        assert sizes == [data.MAX_SIZE] * 2 and not (tmp_path / "b").exists()

    def test_writes_both_splits_with_pairs(self, tmp_path):
        info = gen_data(tmp_path, 3, 2, 64, 3, 0)
        assert info["train"] == 3 and info["val"] == 2
        train = sorted(os.listdir(tmp_path / "train"))
        assert train == ["scene_0000.labels.pgm", "scene_0000.ppm",
                         "scene_0001.labels.pgm", "scene_0001.ppm",
                         "scene_0002.labels.pgm", "scene_0002.ppm"]
        assert len(os.listdir(tmp_path / "val")) == 4

    def test_deterministic_bytes(self, tmp_path):
        gen_data(tmp_path / "a", 2, 1, 64, 3, 5)
        gen_data(tmp_path / "b", 2, 1, 64, 3, 5)
        for split in ("train", "val"):
            for name in os.listdir(tmp_path / "a" / split):
                assert (tmp_path / "a" / split / name).read_bytes() \
                    == (tmp_path / "b" / split / name).read_bytes()

    def test_seed_changes_content(self, tmp_path):
        gen_data(tmp_path / "a", 1, 1, 64, 3, 0)
        gen_data(tmp_path / "b", 1, 1, 64, 3, 1)
        assert (tmp_path / "a/train/scene_0000.ppm").read_bytes() \
            != (tmp_path / "b/train/scene_0000.ppm").read_bytes()

    def test_val_differs_from_train(self, tmp_path):
        gen_data(tmp_path, 1, 1, 64, 3, 0)
        assert (tmp_path / "train/scene_0000.ppm").read_bytes() \
            != (tmp_path / "val/scene_0000.ppm").read_bytes()

    def test_written_labels_decode_to_classes(self, tmp_path):
        gen_data(tmp_path, 1, 1, 64, 3, 3)
        labels = read_pgm(tmp_path / "train/scene_0000.labels.pgm")
        assert set(np.unique(labels)) == {0, 1, 2}
        image = read_ppm(tmp_path / "train/scene_0000.ppm")
        assert image.shape == (64, 64, 3)

    def test_grid_compatibility(self):
        # the default scene size tiles cleanly with the default patch
        grid = plan_grid(64, 64, 32, 8)
        assert grid.n_tiles == 9
