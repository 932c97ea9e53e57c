"""Tile planning and stitching: coverage, frozen grids, exact round trips."""

import numpy as np
import pytest

import dualseg.autodiff as ad
from dualseg import tiling
from dualseg.autodiff import GradTape, Tensor
from dualseg.errors import DimensionError, UsageError
from dualseg.tiling import (StitchAccumulator, extract_patch, plan_grid,
                            stitch)


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

    def test_window_is_the_patch_cut_at_the_edge(self):
        rng = np.random.default_rng(6)
        cases = [(500, 500, 500, 50), (20, 30, 32, 8)]
        for _ in range(48):
            patch = int(rng.integers(4, 40))
            cases.append((int(rng.integers(1, 120)), int(rng.integers(1, 120)),
                          patch, int(rng.integers(0, patch))))
        for h, w, patch, overlap in cases:
            grid = plan_grid(h, w, patch, overlap)
            for i, (r, c) in enumerate(grid.origins):
                rows = slice(r, r + min(patch, h - r))
                cols = slice(c, c + min(patch, w - c))
                assert grid.window(i) == (rows, cols)
        assert plan_grid(500, 500, 500, 50).window(0) == (slice(0, 500),) * 2
        small = plan_grid(20, 30, 32, 8)
        assert small.window(0) == (slice(0, 20), slice(0, 30))
        for bad in (-1, small.n_tiles):
            with pytest.raises(DimensionError):
                small.window(bad)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DimensionError):
            plan_grid(10, 10, 4, 4)
        with pytest.raises(DimensionError):
            plan_grid(10, 10, 4, -1)
        with pytest.raises(DimensionError):
            plan_grid(10, 10, 0, 0)
        with pytest.raises(DimensionError):
            plan_grid(0, 10, 4, 1)

    def test_tile_count_is_capped_before_building(self, monkeypatch):
        with pytest.raises(DimensionError, match="needs 10000000000 tiles"):
            plan_grid(100_000, 100_000, 1, 0)
        monkeypatch.setattr(tiling, "MAX_TILES", 36)
        assert plan_grid(2448, 2448, 500, 50).n_tiles == 36
        with pytest.raises(DimensionError, match="needs 42 tiles, more than 36"):
            plan_grid(2751, 2448, 500, 50)


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
        tile = extract_patch(labels, grid, 0)
        assert tile.shape == (16, 16) and tile.dtype == np.int64
        assert (tile[:10, :10] == 2).all()
        assert (tile[10:, :] == 0).all()
        assert (tile[:, 10:] == 0).all()

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
        acc = StitchAccumulator(1, plan_grid(4, 4, 4, 0))
        for _ in range(3):
            acc.add(np.full((1, 4, 4), c), 0)
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
        acc = StitchAccumulator(1, grid)
        assert not acc.count.any()
        acc.add(np.ones((1, 16, 16)), 0)
        assert (acc.count == 1).all()

    def test_add_share_gives_mean_of_sums(self):
        rng = np.random.default_rng(5)
        grid = plan_grid(6, 6, 4, 2)
        cov = coverage_map(grid)
        assert set(np.unique(cov)) == {1, 2, 4}
        ls = [rng.standard_normal((2, 4, 4)) for _ in grid.origins]
        gs = [rng.standard_normal((2, 4, 4)) for _ in grid.origins]
        acc = StitchAccumulator(2, grid)
        for i, l_i in enumerate(ls):
            acc.add(l_i, i)
        for i, g_i in enumerate(gs):
            acc.add_share(g_i, i)
        total = np.zeros((2, 6, 6))
        for l_i, g_i, (r, c) in zip(ls, gs, grid.origins):
            total[:, r:r + 4, c:c + 4] += l_i + g_i
        np.testing.assert_allclose(acc.mean, total / cov, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(acc.count, cov)

    # float32 tiles are averaged in float32 arithmetic: the int64 counts
    # must not promote the update to float64 and round it back
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_accumulates_in_its_dtype(self, dtype):
        rng = np.random.default_rng(6)
        grid = plan_grid(10, 10, 4, 3)
        assert coverage_map(grid).max() == 16
        ls = [rng.standard_normal((2, 4, 4)).astype(dtype) for _ in grid.origins]
        gs = [rng.standard_normal((2, 4, 4)).astype(dtype) for _ in grid.origins]
        acc = StitchAccumulator(2, grid, dtype)
        mean = np.zeros((2, 10, 10), dtype)
        count = np.zeros((10, 10), dtype)
        for i, l_i in enumerate(ls):
            acc.add(l_i, i)
            rows, cols = grid.window(i)
            count[rows, cols] += 1
            m = mean[:, rows, cols]
            m += (l_i - m) / count[rows, cols]
        for i, g_i in enumerate(gs):
            acc.add_share(g_i, i)
            rows, cols = grid.window(i)
            mean[:, rows, cols] += g_i / count[rows, cols]
        assert acc.mean.dtype == dtype
        np.testing.assert_array_equal(acc.mean, mean)

    def test_add_share_rejects_what_add_rejects(self):
        acc = StitchAccumulator(1, plan_grid(6, 6, 4, 2))
        acc.add(np.ones((1, 4, 4)), 0)
        for bad in [np.ones((1, 3, 4)), np.ones((2, 4, 4))]:
            with pytest.raises(DimensionError):
                acc.add(bad, 0)
            with pytest.raises(DimensionError):
                acc.add_share(bad, 0)
        for index in (-1, 4):
            with pytest.raises(DimensionError):
                acc.add(np.ones((1, 4, 4)), index)
            with pytest.raises(DimensionError):
                acc.add_share(np.ones((1, 4, 4)), index)

    def test_add_share_needs_every_pixel_added_first(self):
        grid = plan_grid(6, 6, 4, 2)
        assert grid.origins[3] == (2, 2)
        acc = StitchAccumulator(1, grid)
        acc.add(np.ones((1, 4, 4)), 0)
        with pytest.raises(UsageError):
            acc.add_share(np.ones((1, 4, 4)), 3)
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
