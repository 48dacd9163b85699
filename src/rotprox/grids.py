"""Dense planar images plus their plane rotation and relative error metric.

Every equivariance statement in this package is written against the rotation
defined here: an exact index permutation for quarter turns on square grids,
bilinear resampling otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Angles within this distance of a multiple of pi/2 take the exact permutation path.
QUARTER_SNAP_TOL = 1e-12


class DegenerateReferenceError(ValueError):
    """Reference tensor has zero norm on the compared region."""


class NonFiniteError(ValueError):
    """An image or a layer output holds a NaN or an infinite entry."""


@dataclass(frozen=True)
class PlanarImage:
    """H x W x C grid sampled from a continuous image with physical spacing `mesh`:
    finite float64 samples, made contiguous and read-only (one channel may omit C)."""

    data: np.ndarray
    mesh: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ValueError(f"planar image data must be (H, W, C), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"empty image shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteError("image contains non-finite entries")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        if not (isinstance(self.mesh, (int, float)) and math.isfinite(self.mesh) and self.mesh > 0):
            raise ValueError(f"mesh must be a positive real, got {self.mesh}")
        object.__setattr__(self, "mesh", float(self.mesh))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


def _quarter_multiple(theta: float) -> int | None:
    """Return k with theta ~= k*pi/2 (within snap tolerance), else None."""
    k = round(theta / (0.5 * np.pi))
    if abs(theta - k * 0.5 * np.pi) <= QUARTER_SNAP_TOL * max(1.0, abs(theta)):
        return k
    return None


def _bilinear_rotate(data: np.ndarray, theta: float) -> np.ndarray:
    """Rotate (H, W, C) counterclockwise by theta about the grid center, zero fill outside.

    Output pixel (i, j) reads the input at the inverse-rotated physical position;
    the y axis points against the row index so positive theta is the standard
    counterclockwise rotation.
    """
    h, w = data.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    ii, jj = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    x = jj - cx
    y = cy - ii
    c, s = np.cos(theta), np.sin(theta)
    xs = c * x + s * y
    ys = -s * x + c * y
    src_i = cy - ys
    src_j = xs + cx

    i0 = np.floor(src_i)
    j0 = np.floor(src_j)
    di = src_i - i0
    dj = src_j - j0
    out = np.zeros_like(data)
    for oi, wi in ((0, 1.0 - di), (1, di)):
        for oj, wj in ((0, 1.0 - dj), (1, dj)):
            isrc = i0 + oi
            jsrc = j0 + oj
            valid = (isrc >= 0) & (isrc < h) & (jsrc >= 0) & (jsrc < w)
            ic = np.clip(isrc, 0, h - 1).astype(np.intp)
            jc = np.clip(jsrc, 0, w - 1).astype(np.intp)
            weight = np.where(valid, wi * wj, 0.0)
            out += weight[:, :, None] * data[ic, jc, :]
    return out


def rotate_image(img: PlanarImage, theta: float) -> PlanarImage:
    """Rotate counterclockwise by theta; exact index permutation when theta is a quarter turn."""
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta}")
    h, w = img.height, img.width
    k = _quarter_multiple(theta)
    if h != w and (k is None or k % 2 != 0):
        raise ValueError(
            f"cannot rotate a {h}x{w} non-square grid by theta={theta}: "
            "only multiples of pi preserve the shape"
        )
    data = np.rot90(img.data, k=k % 4, axes=(0, 1)) if k is not None else _bilinear_rotate(img.data, theta)
    return PlanarImage(data, mesh=img.mesh)


def _cropped(data: np.ndarray, crop: int) -> np.ndarray:
    h, w = data.shape[:2]
    if crop < 0 or 2 * crop >= min(h, w):
        raise ValueError(f"crop={crop} leaves no pixels on a {h}x{w} grid")
    return data[crop : h - crop, crop : w - crop]


def relative_difference(a: PlanarImage, b: PlanarImage, crop: int = 0) -> float:
    """||a - b||_2 / ||b||_2 on the central region after removing `crop` border pixels."""
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch {a.data.shape} vs {b.data.shape}")
    da = _cropped(a.data, crop)
    db = _cropped(b.data, crop)
    ref = float(np.sqrt(np.sum(db * db)))
    if ref == 0.0:
        raise DegenerateReferenceError("reference has zero norm on the crop region")
    diff = da - db
    return float(np.sqrt(np.sum(diff * diff))) / ref
