"""Dense image and group-feature-map values plus the plane rotation of images.

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
    """An image or feature map holds a NaN or an infinite entry."""


@dataclass(frozen=True)
class _Grid:
    """Shared validation: finite float64 samples of the subclass's rank, made
    contiguous and read-only, on a positive real `mesh`."""

    data: np.ndarray
    mesh: float = 1.0

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 2 and len(self._axes) == 3:  # a one-channel image may omit C
            arr = arr[:, :, None]
        if arr.ndim != len(self._axes):
            raise ValueError(f"{self._kind} data must be ({', '.join(self._axes)}), got shape {arr.shape}")
        if min(arr.shape) < 1:
            raise ValueError(f"empty {self._noun} shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError(f"{self._noun} contains non-finite entries")
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


@dataclass(frozen=True)
class PlanarImage(_Grid):
    """H x W x C grid sampled from a continuous image with physical spacing `mesh`."""

    _kind, _noun, _axes = "planar image", "image", ("H", "W", "C")

    @property
    def channels(self) -> int:
        return self.data.shape[2]


@dataclass(frozen=True)
class GroupFeatureMap(_Grid):
    """H x W x t x C grid; axis 2 is the orientation fiber of a cyclic group of order t."""

    _kind, _noun, _axes = "group feature map", "feature map", ("H", "W", "t", "C")


@dataclass(frozen=True)
class GroupSpec:
    """Cyclic rotation group C_t; element k acts by the angle 2*pi*k/t."""

    order: int

    def __post_init__(self):
        if isinstance(self.order, bool) or not (isinstance(self.order, (int, np.integer)) and self.order >= 1):
            raise ValueError(f"group order must be a positive integer, got {self.order}")
        object.__setattr__(self, "order", int(self.order))


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


def relative_difference(a, b, crop: int = 0) -> float:
    """||a - b||_2 / ||b||_2 on the central region after removing `crop` border pixels."""
    if type(a) is not type(b):
        raise ValueError(f"mismatched operand types {type(a).__name__} vs {type(b).__name__}")
    if a.data.shape != b.data.shape:
        raise ValueError(f"shape mismatch {a.data.shape} vs {b.data.shape}")
    da = _cropped(a.data, crop)
    db = _cropped(b.data, crop)
    ref = float(np.sqrt(np.sum(db * db)))
    if ref == 0.0:
        raise DegenerateReferenceError("reference has zero norm on the crop region")
    diff = da - db
    return float(np.sqrt(np.sum(diff * diff))) / ref
