"""Binary netpbm readers/writers (P6 color, P5 gray).

Chosen for being bit-exact and codec-free. Maxval is fixed at 255; label
maps use the gray format with 255 reserved for "ignore this pixel".
Headers tolerate comment lines and arbitrary whitespace on read; writes
always emit the canonical three-line header.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import DataError, DimensionError

# Longest header token read: a magic number, a size or a maxval is a few
# bytes, and a longer token is refused rather than grown and parsed.
MAX_TOKEN_BYTES = 64


def _read_token(f) -> bytes:
    """Next whitespace-delimited header token, skipping # comments; one
    longer than MAX_TOKEN_BYTES is refused."""
    tok = b""
    while True:
        ch = f.read(1)
        if not ch:
            if tok:
                return tok
            raise DataError("netpbm: truncated header")
        if ch == b"#":
            while ch and ch != b"\n":
                ch = f.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        if len(tok) == MAX_TOKEN_BYTES:
            raise DataError(
                f"netpbm: header token longer than {MAX_TOKEN_BYTES} bytes")
        tok += ch


def _read_header(f, magic: bytes) -> tuple[int, int]:
    got = _read_token(f)
    if got != magic:
        raise DataError(f"netpbm: expected {magic.decode()}, got {got!r}")
    try:
        w = int(_read_token(f))
        h = int(_read_token(f))
        maxval = int(_read_token(f))
    except ValueError as exc:
        raise DataError(f"netpbm: malformed header field: {exc}") from exc
    if w < 1 or h < 1:
        raise DataError(f"netpbm: bad dimensions {w}x{h}")
    if maxval != 255:
        raise DataError(f"netpbm: only maxval 255 is supported, got {maxval}")
    return w, h


def _read_payload(f, count: int) -> np.ndarray:
    """The next `count` bytes; a header that promises more bytes than the
    file holds is refused before anything is allocated."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if count > left:
        raise DataError(
            f"netpbm: payload truncated ({left} of {count} bytes)")
    raw = f.read(count)
    if len(raw) != count:
        raise DataError(
            f"netpbm: payload truncated ({len(raw)} of {count} bytes)")
    return np.frombuffer(raw, dtype=np.uint8)


def write_ppm(path, image: np.ndarray) -> None:
    """image: uint8 [H, W, 3]."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DimensionError(f"write_ppm: need [H,W,3], got {image.shape}")
    if image.dtype != np.uint8:
        raise DataError(f"write_ppm: need uint8 samples, got {image.dtype}")
    h, w = image.shape[:2]
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(image).tobytes())


def read_ppm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P6")
        return _read_payload(f, h * w * 3).reshape(h, w, 3).copy()


def write_pgm(path, gray: np.ndarray) -> None:
    """gray: uint8 [H, W]; for label maps, 255 means ignore."""
    gray = np.asarray(gray)
    if gray.ndim != 2:
        raise DimensionError(f"write_pgm: need [H,W], got {gray.shape}")
    if gray.dtype != np.uint8:
        raise DataError(f"write_pgm: need uint8 samples, got {gray.dtype}")
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(gray).tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        w, h = _read_header(f, b"P5")
        return _read_payload(f, h * w).reshape(h, w).copy()


def image_to_bytes(image01: np.ndarray) -> np.ndarray:
    """Float [3,H,W] in [0,1] -> uint8 [H,W,3] by round-to-nearest."""
    arr = np.clip(np.asarray(image01), 0.0, 1.0)
    if arr.ndim != 3 or arr.shape[0] != 3:
        raise DimensionError(f"image_to_bytes: need [3,H,W], got {arr.shape}")
    return np.rint(arr * 255.0).astype(np.uint8).transpose(1, 2, 0)


def bytes_to_image(arr: np.ndarray) -> np.ndarray:
    """uint8 [H,W,3] -> C-contiguous float [3,H,W] in [0,1]."""
    return np.ascontiguousarray(arr.transpose(2, 0, 1), dtype=np.float64) / 255.0
