"""Dense planar images, the centred pixel grid that images and filter taps are
sampled on, plane rotation, central-difference stencils, the relative error and
the integer and real argument checks that the other modules share.

Every equivariance statement in this package is written against the rotation
defined here: an exact index permutation for quarter turns on square grids,
bilinear resampling otherwise.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# Angles within this distance of a multiple of pi/2 take the exact permutation path.
QUARTER_SNAP_TOL = 1e-12


def _check_real(name: str, value, low: float, strict: bool = False) -> None:
    """Reject a bool, a non-real value, NaN, and a value below `low` (or equal
    to it when `strict`) with ValueError; config values reach here unchecked."""
    ok = isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))
    if not (ok and (value > low if strict else value >= low)):
        raise ValueError(f"{name} must be a real number {'>' if strict else '>='} {low}, got {value!r}")


def _check_int(name: str, value, low: int | None = None) -> None:
    """Reject a bool, a non-integer and an integer below `low`, if given, with ValueError."""
    bad = isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Integral)
    if bad or (low is not None and value < low):
        raise ValueError(f"{name} must be an integer{'' if low is None else f' >= {low}'}, got {value!r}")


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


def centered_grid(height: int, width: int, mesh: float) -> tuple[np.ndarray, np.ndarray]:
    """Physical (x, y) of each pixel of the grid centred on the origin; y points against the rows."""
    ii, jj = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    return (jj - (width - 1) / 2.0) * mesh, ((height - 1) / 2.0 - ii) * mesh


def rotated_grid(height: int, width: int, mesh: float, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """The centred grid rotated by -theta: a field sampled there reads as the field rotated
    counterclockwise by theta. Quarter turns use exact cos/sin, so they permute the grid."""
    x, y = centered_grid(height, width, mesh)
    k = _quarter_multiple(theta)
    if k is None:
        c, s = math.cos(theta), math.sin(theta)
    else:
        c, s = ((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0))[k % 4]
    return c * x + s * y, -s * x + c * y


def _bilinear_rotate(data: np.ndarray, theta: float) -> np.ndarray:
    """Rotate (H, W, C) counterclockwise by theta about the grid center, zero fill outside.

    Output pixel (i, j) reads the input at the inverse-rotated physical position.
    """
    h, w = data.shape[:2]
    xs, ys = rotated_grid(h, w, 1.0, theta)
    src_i = (h - 1) / 2.0 - ys
    src_j = xs + (w - 1) / 2.0

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


def central_differences(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Centred (dx, dy, dxx, dyy, dxy) of (H, W, C) samples on the 1-pixel interior, in grid
    units. dy runs along the rows, against physical y; every use is blind to its sign."""
    c = u[1:-1, 1:-1]
    return (
        0.5 * (u[1:-1, 2:] - u[1:-1, :-2]),
        0.5 * (u[2:, 1:-1] - u[:-2, 1:-1]),
        u[1:-1, 2:] - 2.0 * c + u[1:-1, :-2],
        u[2:, 1:-1] - 2.0 * c + u[:-2, 1:-1],
        0.25 * (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]),
    )


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
