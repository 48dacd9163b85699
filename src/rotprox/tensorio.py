"""Binary file formats: PGM "P5" grayscale images and the EQT1 raw tensor container.

EQT1 layout: magic b"EQT1", u32 little-endian rank, rank u32 little-endian dims,
then the f64 little-endian payload in row-major order.
"""

from __future__ import annotations

import math
import struct

import numpy as np

EQT1_MAGIC = b"EQT1"


def write_eqt1(path, array) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    with open(path, "wb") as fh:
        fh.write(EQT1_MAGIC)
        fh.write(struct.pack("<I", arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.astype("<f8", copy=False).tobytes())


def read_eqt1(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != EQT1_MAGIC:
        raise ValueError(f"{path}: not an EQT1 file (magic {blob[:4]!r})")
    if len(blob) < 8:
        raise ValueError(f"{path}: truncated EQT1 header")
    (rank,) = struct.unpack_from("<I", blob, 4)
    head_end = 8 + 4 * rank
    if len(blob) < head_end:
        raise ValueError(f"{path}: truncated EQT1 dims")
    dims = struct.unpack_from(f"<{rank}I", blob, 8)
    count = math.prod(dims)
    payload = blob[head_end:]
    if len(payload) != 8 * count:
        raise ValueError(f"{path}: payload holds {len(payload)} bytes, expected {8 * count}")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return data.reshape(dims)


def write_pgm(path, data) -> None:
    """Write a grayscale image with values in [0, 1] as 16-bit samples (maxval 65535), big-endian per PGM."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 3:
        if arr.shape[2] != 1:
            raise ValueError(f"PGM is grayscale; got {arr.shape[2]} channels")
        arr = arr[:, :, 0]
    if arr.ndim != 2:
        raise ValueError(f"PGM data must be 2D, got shape {arr.shape}")
    quant = np.clip(np.rint(arr * 65535), 0, 65535)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n65535\n".encode("ascii"))
        fh.write(quant.astype(">u2").tobytes())


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (float64 image in [0, 1] of shape (H, W), maxval)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (magic {blob[:2]!r})")

    # Header tokens (width, height, maxval) separated by whitespace; '#' starts a comment.
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(blob):
            raise ValueError(f"{path}: truncated PGM header")
        ch = blob[pos : pos + 1]
        if ch == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        else:
            start = pos
            while pos < len(blob) and not blob[pos : pos + 1].isspace():
                pos += 1
            tokens.append(int(blob[start:pos]))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = tokens
    if not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: maxval {maxval} out of range")
    dtype = ">u1" if maxval <= 255 else ">u2"
    count = width * height
    payload = blob[pos : pos + count * np.dtype(dtype).itemsize]
    if len(payload) != count * np.dtype(dtype).itemsize:
        raise ValueError(f"{path}: truncated PGM payload")
    img = np.frombuffer(payload, dtype=dtype).reshape(height, width)
    return img.astype(np.float64) / maxval, maxval
