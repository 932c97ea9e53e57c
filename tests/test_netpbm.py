"""Binary PPM/PGM round-trips and header handling."""

import tracemalloc

import numpy as np
import pytest

from dualseg.errors import DataError, DimensionError
from dualseg.harness.netpbm import (MAX_TOKEN_BYTES, bytes_to_image,
                                    image_to_bytes, read_pgm, read_ppm,
                                    write_pgm, write_ppm)


class TestRoundTrip:
    def test_ppm_all_byte_values_survive(self, tmp_path):
        # 16x16x3 = 768 samples: every byte value occurs three times
        data = np.arange(768, dtype=np.uint8).reshape(16, 16, 3)
        path = tmp_path / "a.ppm"
        write_ppm(path, data)
        assert np.array_equal(read_ppm(path), data)

    def test_pgm_all_byte_values_survive(self, tmp_path):
        data = np.arange(256, dtype=np.uint8).reshape(16, 16)
        path = tmp_path / "a.pgm"
        write_pgm(path, data)
        assert np.array_equal(read_pgm(path), data)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.integers(0, 256, size=(9, 13, 3), dtype=np.uint8)
        write_ppm(tmp_path / "a.ppm", data)
        write_ppm(tmp_path / "b.ppm", read_ppm(tmp_path / "a.ppm"))
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()

    def test_non_square_shapes(self, tmp_path):
        data = np.zeros((3, 200), dtype=np.uint8)
        write_pgm(tmp_path / "a.pgm", data)
        assert read_pgm(tmp_path / "a.pgm").shape == (3, 200)


class TestHeaderTolerance:
    def test_comments_and_whitespace_in_header(self, tmp_path):
        payload = bytes(range(6))
        raw = b"P6 # color\n# full comment line\n  2\n# mid\n 1\t255\n" + payload
        path = tmp_path / "odd.ppm"
        path.write_bytes(raw)
        img = read_ppm(path)
        assert img.shape == (1, 2, 3)
        assert img.tobytes() == payload

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n1 1\n255\n\x00")
        with pytest.raises(DataError, match="P6"):
            read_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DataError, match="maxval"):
            read_pgm(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(DataError, match="truncated"):
            read_pgm(path)

    def test_header_token_capped(self, tmp_path):
        path = tmp_path / "long.pgm"
        width = b"0" * (MAX_TOKEN_BYTES - 1) + b"2"
        path.write_bytes(b"P5\n" + width + b" 1\n255\n\x07\x09")
        assert read_pgm(path).tolist() == [[7, 9]]
        path.write_bytes(b"P5\n0" + width + b" 1\n255\n\x07\x09")
        with pytest.raises(DataError, match="longer than"):
            read_pgm(path)

    # 17 header bytes + 12 payload bytes: 29 bytes that claim 8000x8000
    HUGE_HEADERS = [("P6", read_ppm, 8000 * 8000 * 3),
                    ("P5", read_pgm, 8000 * 8000)]

    @pytest.mark.parametrize("magic,read,claimed", HUGE_HEADERS)
    def test_oversized_header_refused_before_allocating(self, tmp_path, magic,
                                                        read, claimed):
        path = tmp_path / "huge.pnm"
        path.write_bytes(magic.encode() + b"\n8000 8000\n255\n" + bytes(12))
        assert path.stat().st_size == 29
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=f"12 of {claimed} bytes"):
                read(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4")
        with pytest.raises(DataError):
            read_ppm(path)

    def test_writer_validates_dtype_and_shape(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(DimensionError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2), dtype=np.uint8))


class TestFloatConversion:
    def test_quantisation_round_trip_error_bounded(self):
        rng = np.random.default_rng(1)
        img = rng.random((3, 8, 8))
        back = bytes_to_image(image_to_bytes(img))
        assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12

    def test_exact_levels_survive(self):
        # multiples of 1/255 are representable exactly in a byte
        img = np.array([0.0, 51 / 255, 102 / 255, 1.0]).reshape(1, 2, 2)
        img = np.repeat(img, 3, axis=0)
        assert np.array_equal(bytes_to_image(image_to_bytes(img)), img)

    def test_out_of_range_clipped(self):
        img = np.full((3, 1, 1), 1.7)
        assert image_to_bytes(img).max() == 255
