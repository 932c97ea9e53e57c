"""Tile planning and stitching: coverage, frozen grids, exact round trips."""

import numpy as np
import pytest

import dualseg.autodiff as ad
from dualseg.autodiff import GradTape, Tensor
from dualseg.errors import DimensionError, UsageError
from dualseg.tiling import (StitchAccumulator, extract_label_patch,
                            extract_patch, plan_grid, stitch)


def coverage_map(grid):
    cov = np.zeros((grid.image_h, grid.image_w), dtype=int)
    for r, c in grid.origins:
        hh = min(grid.patch, grid.image_h - r)
        ww = min(grid.patch, grid.image_w - c)
        cov[r:r + hh, c:c + ww] += 1
    return cov


class TestPlanGrid:
    def test_large_canvas_grid_frozen(self):
        grid = plan_grid(2448, 2448, 500, 50)
        assert grid.row_starts == (0, 450, 900, 1350, 1800, 1948)
        assert grid.col_starts == grid.row_starts
        assert grid.n_tiles == 36

    def test_small_canvas_grid_frozen(self):
        grid = plan_grid(64, 64, 32, 8)
        assert grid.row_starts == (0, 24, 32)
        assert grid.n_tiles == 9

    def test_exact_fit_single_tile(self):
        grid = plan_grid(500, 500, 500, 50)
        assert grid.origins == ((0, 0),)

    def test_image_smaller_than_patch(self):
        grid = plan_grid(20, 30, 32, 8)
        assert grid.origins == ((0, 0),)

    def test_every_pixel_covered_tiles_in_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            patch = int(rng.integers(4, 40))
            overlap = int(rng.integers(0, patch))
            h = int(rng.integers(1, 120))
            w = int(rng.integers(1, 120))
            grid = plan_grid(h, w, patch, overlap)
            assert (coverage_map(grid) >= 1).all()
            for r, c in grid.origins:
                assert 0 <= r and 0 <= c
                if h >= patch:
                    assert r + patch <= h
                if w >= patch:
                    assert c + patch <= w

    def test_rejects_bad_parameters(self):
        with pytest.raises(DimensionError):
            plan_grid(10, 10, 4, 4)
        with pytest.raises(DimensionError):
            plan_grid(10, 10, 4, -1)
        with pytest.raises(DimensionError):
            plan_grid(10, 10, 0, 0)
        with pytest.raises(DimensionError):
            plan_grid(0, 10, 4, 1)


class TestExtract:
    def test_interior_patch_is_a_copy(self):
        rng = np.random.default_rng(1)
        img = rng.random((3, 64, 64))
        grid = plan_grid(64, 64, 32, 8)
        tile = extract_patch(img, grid, 4)
        r, c = grid.origins[4]
        np.testing.assert_array_equal(tile, img[:, r:r + 32, c:c + 32])
        tile[0, 0, 0] = 99.0
        assert img[0, r, c] != 99.0

    def test_padding_beyond_edge(self):
        img = np.ones((2, 10, 10))
        grid = plan_grid(10, 10, 16, 4)
        tile = extract_patch(img, grid, 0)
        assert tile.shape == (2, 16, 16)
        np.testing.assert_array_equal(tile[:, :10, :10], 1.0)
        np.testing.assert_array_equal(tile[:, 10:, :], 0.0)
        np.testing.assert_array_equal(tile[:, :, 10:], 0.0)

    def test_label_patch_fill(self):
        labels = np.full((10, 10), 2, dtype=np.int64)
        grid = plan_grid(10, 10, 16, 4)
        tile = extract_label_patch(labels, grid, 0, fill=0)
        assert (tile[:10, :10] == 2).all()
        assert (tile[10:, :] == 0).all()

    def test_rejects_mismatched_image(self):
        grid = plan_grid(8, 8, 4, 1)
        with pytest.raises(DimensionError):
            extract_patch(np.zeros((1, 9, 8)), grid, 0)


class TestStitch:
    def test_round_trip_identity_exact(self):
        rng = np.random.default_rng(2)
        for h, w, patch, overlap in [(64, 64, 32, 8), (37, 53, 16, 5), (20, 20, 7, 3)]:
            img = rng.random((3, h, w))
            grid = plan_grid(h, w, patch, overlap)
            tiles = [Tensor(extract_patch(img, grid, i)) for i in range(grid.n_tiles)]
            out = stitch(tiles, grid)
            np.testing.assert_array_equal(out.data, img)

    def test_running_mean_exact_where_sum_divide_is_not(self):
        c = 0.1
        assert (c + c + c) / 3 != c  # the naive average drifts at count 3
        acc = StitchAccumulator(1, 4, 4, 4)
        for _ in range(3):
            acc.add(np.full((1, 4, 4), c), (0, 0))
        np.testing.assert_array_equal(acc.mean, np.full((1, 4, 4), c))

    def test_half_overlap_average(self):
        a = np.full((1, 6, 6), 2.0)
        b = np.full((1, 6, 6), 4.0)
        grid = plan_grid(6, 9, 6, 3)
        assert grid.col_starts == (0, 3)
        out = stitch([Tensor(a), Tensor(b)], grid)
        np.testing.assert_allclose(out.data[0, :, :3], 2.0, atol=1e-15)
        np.testing.assert_allclose(out.data[0, :, 3:6], 3.0, atol=1e-15)
        np.testing.assert_allclose(out.data[0, :, 6:], 4.0, atol=1e-15)

    def test_accumulator_tracks_coverage(self):
        grid = plan_grid(10, 10, 16, 4)
        acc = StitchAccumulator(1, 10, 10, 16)
        assert acc.uncovered() == 100
        acc.add(np.ones((1, 16, 16)), grid.origins[0])
        assert acc.uncovered() == 0
        assert (acc.count == 1).all()

    def test_add_share_gives_mean_of_sums(self):
        rng = np.random.default_rng(5)
        grid = plan_grid(6, 6, 4, 2)
        cov = coverage_map(grid)
        assert set(np.unique(cov)) == {1, 2, 4}
        ls = [rng.standard_normal((2, 4, 4)) for _ in grid.origins]
        gs = [rng.standard_normal((2, 4, 4)) for _ in grid.origins]
        acc = StitchAccumulator(2, 6, 6, 4)
        for l_i, origin in zip(ls, grid.origins):
            acc.add(l_i, origin)
        for g_i, origin in zip(gs, grid.origins):
            acc.add_share(g_i, origin)
        total = np.zeros((2, 6, 6))
        for l_i, g_i, (r, c) in zip(ls, gs, grid.origins):
            total[:, r:r + 4, c:c + 4] += l_i + g_i
        np.testing.assert_allclose(acc.mean, total / cov, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(acc.count, cov)

    def test_add_share_rejects_what_add_rejects(self):
        acc = StitchAccumulator(1, 6, 6, 4)
        acc.add(np.ones((1, 4, 4)), (0, 0))
        with pytest.raises(DimensionError):
            acc.add_share(np.ones((1, 3, 4)), (0, 0))
        with pytest.raises(DimensionError):
            acc.add_share(np.ones((2, 4, 4)), (0, 0))
        for origin in [(6, 0), (0, 6), (-1, 0), (0, -1)]:
            with pytest.raises(DimensionError):
                acc.add(np.ones((1, 4, 4)), origin)
            with pytest.raises(DimensionError):
                acc.add_share(np.ones((1, 4, 4)), origin)

    def test_add_share_needs_every_pixel_added_first(self):
        acc = StitchAccumulator(1, 6, 6, 4)
        acc.add(np.ones((1, 4, 4)), (0, 0))
        with pytest.raises(UsageError):
            acc.add_share(np.ones((1, 4, 4)), (2, 2))
        np.testing.assert_array_equal(acc.mean[0, :4, :4], 1.0)

    def test_backward_splits_by_coverage(self):
        rng = np.random.default_rng(3)
        grid = plan_grid(6, 9, 6, 3)
        tiles = [Tensor(rng.random((2, 6, 6)), requires_grad=True),
                 Tensor(rng.random((2, 6, 6)), requires_grad=True)]
        with GradTape() as tape:
            out = stitch(tiles, grid)
            loss = ad.sum_all(out)
            tape.backward(loss)
        # pixels covered once get gradient 1, shared pixels 1/2
        np.testing.assert_allclose(tiles[0].grad[:, :, :3], 1.0)
        np.testing.assert_allclose(tiles[0].grad[:, :, 3:], 0.5)
        np.testing.assert_allclose(tiles[1].grad[:, :, :3], 0.5)
        np.testing.assert_allclose(tiles[1].grad[:, :, 3:], 1.0)

    def test_backward_matches_differences(self):
        rng = np.random.default_rng(4)
        grid = plan_grid(8, 8, 5, 2)
        arrays = [rng.random((1, 5, 5)) for _ in range(grid.n_tiles)]
        weights = rng.random((1, 8, 8)) + 0.5

        def scalar():
            tiles = [Tensor(a) for a in arrays]
            return float((stitch(tiles, grid).data * weights).sum())

        tiles = [Tensor(a, requires_grad=True) for a in arrays]
        with GradTape() as tape:
            loss = ad.sum_all(ad.mul(stitch(tiles, grid), Tensor(weights)))
            tape.backward(loss)

        eps = 1e-6
        for a, t in zip(arrays, tiles):
            flat = a.reshape(-1)
            g = t.grad.reshape(-1)
            for i in range(0, flat.size, 7):  # spot-check a stride of entries
                orig = flat[i]
                flat[i] = orig + eps
                hi = scalar()
                flat[i] = orig - eps
                lo = scalar()
                flat[i] = orig
                assert g[i] == pytest.approx((hi - lo) / (2 * eps), abs=1e-7)

    def test_stitch_with_padding_tile(self):
        img = np.full((1, 10, 12), 5.0)
        grid = plan_grid(10, 12, 16, 4)
        tiles = [Tensor(extract_patch(img, grid, 0))]
        out = stitch(tiles, grid)
        np.testing.assert_array_equal(out.data, img)

    def test_rejects_wrong_tile_count(self):
        grid = plan_grid(8, 8, 4, 0)
        with pytest.raises(DimensionError):
            stitch([Tensor(np.zeros((1, 4, 4)))], grid)

    def test_rejects_wrong_tile_shape(self):
        grid = plan_grid(8, 8, 4, 0)
        tiles = [Tensor(np.zeros((1, 4, 4))) for _ in range(grid.n_tiles)]
        tiles[2] = Tensor(np.zeros((1, 3, 4)))
        with pytest.raises(DimensionError):
            stitch(tiles, grid)
