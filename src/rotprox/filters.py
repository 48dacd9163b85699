"""Continuous filter parametrization: band-limited 2D Fourier series under a C^2
radial bump window, sampled on arbitrarily rotated grids.

A filter is phi(x) = sum_j c_j * b_j(x) with b_j(x) = window(|x|) * trig(pi * k_j . x),
supported on the disk of radius 1 (physical units). The discrete p x p tap grid has
spacing h = 2/(p+1), so the support radius is exactly (p+1)h/2 and changing p refines
the sampling of the *same* continuous filter (ph stays constant). Analytic sup bounds
for |phi|, |grad phi|, |hess phi| come from triangle inequalities over the basis and
feed the multi-layer equivariance error bound in the audit module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grids import PlanarImage, _check_int, central_differences, rotated_grid

SUPPORT_RADIUS = 1.0
FLAT_RADIUS = 0.5  # window is identically 1 inside this radius

_TRANSITION = SUPPORT_RADIUS - FLAT_RADIUS
# Quintic smoothstep S(u) = 6u^5 - 15u^4 + 10u^3 on the transition band:
# sup|S'| = 15/8, sup|S''| = 10/sqrt(3).
_WIN_D1 = (15.0 / 8.0) / _TRANSITION
_WIN_D2 = max((10.0 / math.sqrt(3.0)) / _TRANSITION**2, _WIN_D1 / FLAT_RADIUS)

# Safety factor on finite-difference image bounds (bicubic interpolant overshoot).
IMAGE_BOUND_SAFETY = 1.5


def quintic_falloff(r: np.ndarray, inner: float, outer: float) -> np.ndarray:
    """1 inside `inner`, 1 - S((r - inner)/(outer - inner)) on the band, 0 from `outer` on:
    the C^2 radial falloff of both the filter window and the synthetic images' disk taper."""
    u = np.clip((r - inner) / (outer - inner), 0.0, 1.0)
    return 1.0 - u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def frequency_pairs(cutoff: int) -> tuple[tuple[int, int, str], ...]:
    """Unique real-sinusoid representatives with ||k||_2 <= cutoff.

    One cosine for k = (0,0); cosine and sine for each half-plane representative
    (k1 > 0, or k1 = 0 and k2 > 0). Deterministic ordering.
    """
    entries: list[tuple[int, int, str]] = []
    for k1 in range(-cutoff, cutoff + 1):
        for k2 in range(-cutoff, cutoff + 1):
            if k1 * k1 + k2 * k2 > cutoff * cutoff:
                continue
            if (k1, k2) == (0, 0):
                entries.append((0, 0, "cos"))
            elif k1 > 0 or (k1 == 0 and k2 > 0):
                entries.append((k1, k2, "cos"))
                entries.append((k1, k2, "sin"))
    entries.sort(key=lambda e: (e[0] ** 2 + e[1] ** 2, e[0], e[1], e[2]))
    return tuple(entries)


@dataclass(frozen=True)
class FourierBasis:
    """Windowed 2D Fourier basis on a p x p tap grid with mesh h = 2/(p+1)."""

    filter_size: int
    cutoff: int = 2

    def __post_init__(self):
        p = self.filter_size
        _check_int("filter size", p)
        if not (p >= 1 and p % 2 == 1):
            raise ValueError(f"filter size must be odd and positive, got {p}")
        _check_int("cutoff", self.cutoff)
        if self.cutoff < 0:
            raise ValueError(f"cutoff must be a nonnegative integer, got {self.cutoff}")
        if self.cutoff > (p - 1) // 2:
            raise ValueError(
                f"cutoff {self.cutoff} aliases on a {p}x{p} grid (limit {(p - 1) // 2})"
            )
        object.__setattr__(self, "filter_size", int(p))
        object.__setattr__(self, "cutoff", int(self.cutoff))

    @property
    def mesh(self) -> float:
        return 2.0 * SUPPORT_RADIUS / (self.filter_size + 1)

    @property
    def frequencies(self) -> tuple[tuple[int, int, str], ...]:
        return frequency_pairs(self.cutoff)

    @property
    def size(self) -> int:
        return len(self.frequencies)


def evaluate_basis(basis: FourierBasis, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate every basis function at physical points; returns (size, *x.shape)."""
    r = np.hypot(x, y)
    win = quintic_falloff(r, FLAT_RADIUS, SUPPORT_RADIUS)
    out = np.empty((basis.size,) + x.shape)
    for j, (k1, k2, phase) in enumerate(basis.frequencies):
        arg = (np.pi / SUPPORT_RADIUS) * (k1 * x + k2 * y)
        trig = np.cos(arg) if phase == "cos" else np.sin(arg)
        out[j] = win * trig
    return out


@lru_cache(maxsize=512)
def _basis_stack_cached(p: int, cutoff: int, theta: float) -> np.ndarray:
    """Basis functions evaluated on the grid rotated by -theta: (size, p, p), read-only."""
    basis = FourierBasis(p, cutoff)
    stack = evaluate_basis(basis, *rotated_grid(p, p, basis.mesh, theta))
    stack.flags.writeable = False
    return stack


def basis_stack(basis: FourierBasis, theta: float) -> np.ndarray:
    return _basis_stack_cached(basis.filter_size, basis.cutoff, float(theta))


@dataclass(frozen=True)
class SmoothnessBounds:
    """Rigorous sups: F >= sup|f|, G >= sup|grad f|, H >= sup|hess f| (spectral)."""

    F: float
    G: float
    H: float

    def __post_init__(self):
        for name, val in (("F", self.F), ("G", self.G), ("H", self.H)):
            if not (math.isfinite(val) and val >= 0):
                raise ValueError(f"bound {name} must be finite and nonnegative, got {val}")


def per_basis_bounds(basis: FourierBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic sups of each windowed sinusoid and its first two derivatives.

    With omega = pi*||k||/R and the window sups W<=1, |W'|<=D1, |hess W|<=D2:
      |b| <= 1,  |grad b| <= D1 + omega,  |hess b| <= D2 + 2*D1*omega + omega^2.
    """
    norms = np.array([math.hypot(k1, k2) for (k1, k2, _) in basis.frequencies])
    omega = np.pi * norms / SUPPORT_RADIUS
    f = np.ones_like(omega)
    g = _WIN_D1 + omega
    h = _WIN_D2 + 2.0 * _WIN_D1 * omega + omega**2
    return f, g, h


def bounds_from_coefficients(basis: FourierBasis, coeffs: np.ndarray) -> SmoothnessBounds:
    """Triangle-inequality bounds for phi = sum c_j b_j; coeffs may be a stack (..., size)
    in which case the max over leading axes (worst filter of a bank) is returned."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape[-1] != basis.size:
        raise ValueError(f"coefficient stack last dim {coeffs.shape[-1]} != basis size {basis.size}")
    fb, gb, hb = per_basis_bounds(basis)
    mags = np.abs(coeffs)
    return SmoothnessBounds(
        F=float(np.max(mags @ fb)),
        G=float(np.max(mags @ gb)),
        H=float(np.max(mags @ hb)),
    )


def image_bounds(img: PlanarImage) -> SmoothnessBounds:
    """Smoothness bounds of the latent continuous image, estimated from the samples.

    F0 is the exact max |pixel|. G0/H0 come from central finite differences scaled
    by 1/h and 1/h^2, times a fixed safety factor covering interpolant overshoot
    between samples. Grids too small for a stencil report 0 for that bound.
    """
    h = img.mesh
    f0 = float(np.max(np.abs(img.data)))
    g0 = 0.0
    h0 = 0.0
    if img.height >= 3 and img.width >= 3:
        dx, dy, dxx, dyy, dxy = central_differences(img.data)
        g0 = float(np.max(np.hypot(dx / h, dy / h)))
        uxx, uyy, uxy = dxx / h**2, dyy / h**2, dxy / h**2
        # spectral norm of the symmetric 2x2 [[uxx, uxy], [uxy, uyy]]
        spec = np.abs(0.5 * (uxx + uyy)) + np.sqrt((0.5 * (uxx - uyy)) ** 2 + uxy**2)
        h0 = float(np.max(spec))
    return SmoothnessBounds(F=f0, G=IMAGE_BOUND_SAFETY * g0, H=IMAGE_BOUND_SAFETY * h0)


def init_coefficients(rng: np.random.Generator, shape: tuple[int, ...], fan_in_slices: int, p: int) -> np.ndarray:
    """He-style i.i.d. Gaussian init: variance 2/(fan_in_slices * p^2)."""
    std = math.sqrt(2.0 / (fan_in_slices * p * p))
    return rng.normal(0.0, std, size=shape)
