"""Seeded procedural test images: oriented Gabor patches and azimuthal rings.

Fields are continuous functions evaluated on pixel grids, so one seed defines the
same physical image at any resolution (needed by the mesh-refinement audit).
Both field kinds are normalized to a peak |value| of 1 and tapered to a centered
disk that rotations of the frame map into itself, keeping rotation audits free of
frame-boundary artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .filters import quintic_falloff
from .grids import PlanarImage, _check_int, _check_real, centered_grid

# Disk taper: full strength inside INNER*R, exactly zero outside OUTER*R.
# The band is wide so the falloff stays smooth on coarse grids; rotation
# audits read interpolation error of the taper ring as an error floor.
_DISK_INNER = 0.60
_DISK_OUTER = 0.92
# The normalization probe is evaluated this many rows at a time, as broadcast
# axes, so that no temporary (at most the 32 * 257 * 8 = 66 KB radius and taper
# blocks) crosses glibc's 128 KiB mmap threshold and gets mapped and faulted in
# anew on every call.
_PROBE_ROWS = 32


@dataclass(frozen=True)
class _DiskField:
    """A continuous field on the disk of radius `domain_radius`: the subclass's
    terms, times `scale`, times the disk taper."""

    domain_radius: float
    scale: float

    def __post_init__(self):
        _check_real("domain radius", self.domain_radius, 0, strict=True)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The field at the points (x, y), which broadcast against each other.

        The terms are evaluated only where the taper is nonzero (about two thirds
        of a square around the disk); every other sample is +0.0. The mask is the
        taper's own zero set, not r < outer radius, since the taper rounds to 0
        slightly inside it."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        r = np.hypot(x, y)
        taper = quintic_falloff(r, _DISK_INNER * self.domain_radius, _DISK_OUTER * self.domain_radius)
        inside = taper != 0.0
        terms = self._terms(np.broadcast_to(x, r.shape)[inside], np.broadcast_to(y, r.shape)[inside], r[inside])
        terms *= self.scale
        out = np.zeros(r.shape)
        out[inside] = terms * taper[inside]
        return out


def _normalized(field: _DiskField) -> _DiskField:
    """`field` rescaled to a max |value| of 1 on a fixed 257x257 probe grid, so
    the scale does not depend on the resolution the field is later sampled at."""
    probe = np.linspace(-field.domain_radius, field.domain_radius, 257)
    rows = (probe[i : i + _PROBE_ROWS, None] for i in range(0, probe.size, _PROBE_ROWS))
    peak = max(float(np.max(np.abs(field(probe[None, :], py)))) for py in rows)
    return field if peak == 0.0 else replace(field, scale=1.0 / peak)


@dataclass(frozen=True)
class GaborField(_DiskField):
    """Continuous sum of oriented Gabor patches."""

    centers: np.ndarray      # (n, 2) physical (x, y)
    orientations: np.ndarray  # (n,) radians
    wavelengths: np.ndarray   # (n,) physical units
    sigmas: np.ndarray        # (n, 2) envelope widths along/across the orientation
    phases: np.ndarray        # (n,)
    amplitudes: np.ndarray    # (n,)

    def _terms(self, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for k in range(len(self.amplitudes)):
            ca, sa = np.cos(self.orientations[k]), np.sin(self.orientations[k])
            dx = x - self.centers[k, 0]
            dy = y - self.centers[k, 1]
            s1 = ca * dx + sa * dy
            s2 = -sa * dx + ca * dy
            envelope = np.exp(
                -0.5 * (s1 / self.sigmas[k, 0]) ** 2 - 0.5 * (s2 / self.sigmas[k, 1]) ** 2
            )
            out += self.amplitudes[k] * envelope * np.cos(
                2.0 * np.pi * s1 / self.wavelengths[k] + self.phases[k]
            )
        return out


def synthetic_field(seed: int, domain_radius: float, n_patches: int = 8) -> GaborField:
    """Draw a seeded, normalized field of `n_patches` Gabor patches."""
    rng = np.random.default_rng(seed)
    r = domain_radius
    n = n_patches
    radii = 0.55 * r * np.sqrt(rng.uniform(0.0, 1.0, n))
    angles = rng.uniform(0.0, 2.0 * np.pi, n)
    centers = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    return _normalized(GaborField(
        domain_radius=r,
        scale=1.0,
        centers=centers,
        orientations=rng.uniform(0.0, np.pi, n),
        wavelengths=rng.uniform(0.45, 0.80, n) * r,
        sigmas=rng.uniform(0.25, 0.45, (n, 2)) * r,
        phases=rng.uniform(0.0, 2.0 * np.pi, n),
        amplitudes=rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n),
    ))


@dataclass(frozen=True)
class RingField(_DiskField):
    """Azimuthal harmonics on Gaussian radial rings.

    Each term is amp * exp(-((r - r0)/sig)^2 / 2) * cos(m*phi + psi). Ring radii
    grow with the harmonic order m so the tangential wavelength 2*pi*r0/m stays
    near domain_radius / 5: high angular frequencies live far from center,
    where they are locally smooth. Rotation audits need exactly that: content
    that resolves fine group orders without pixel-scale gradients.
    """

    orders: np.ndarray      # (n,) angular harmonic m of each ring
    radii: np.ndarray       # (n,) ring center radius
    widths: np.ndarray      # (n,) radial Gaussian sigma
    phases: np.ndarray      # (n,)
    amplitudes: np.ndarray  # (n,)

    def _terms(self, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
        phi = np.arctan2(y, x)
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
        for k in range(len(self.orders)):
            radial = np.exp(-0.5 * ((r - self.radii[k]) / self.widths[k]) ** 2)
            out += self.amplitudes[k] * radial * np.cos(self.orders[k] * phi + self.phases[k])
        return out


def ring_field(seed: int, domain_radius: float, orders: np.ndarray) -> RingField:
    """Draw a seeded, normalized ring field with one ring per harmonic order (int64, >= 1)."""
    rng = np.random.default_rng(seed)
    rr = domain_radius
    lam = rr / 5.0
    radii = np.clip(orders * lam / (2.0 * np.pi), 0.18 * rr, 0.76 * rr)
    # mild spectral decay: natural angular spectra fall off with order, and a
    # decaying mix keeps coarse group orders from being out-shouted by fine ones
    decay = (orders / orders.min()) ** -0.5
    return _normalized(RingField(
        domain_radius=rr,
        scale=1.0,
        orders=orders,
        radii=radii,
        widths=np.full(orders.shape, 0.5 * lam),
        phases=rng.uniform(0.0, 2.0 * np.pi, orders.shape[0]),
        amplitudes=rng.uniform(0.6, 1.0, orders.shape[0]) * decay,
    ))


def ring_stack(count: int, size: int, seed: int, mesh: float, *, orders) -> list[PlanarImage]:
    """Seeded size x size ring-field images; image i uses child seed i of `seed`."""
    m = np.asarray(orders)
    if m.ndim != 1 or m.size == 0 or m.dtype.kind not in "iu" or m.min() < 1:
        raise ValueError(f"orders must be a nonempty sequence of integer harmonic orders >= 1, got {orders!r}")
    orders = m.astype(np.int64)
    _check_image_size(size)
    radius = (size / 2.0) * mesh
    seeds = _child_seeds(seed, count)
    return [sample_field(ring_field(s, radius, orders), size, size, mesh) for s in seeds]


def _check_image_size(size: int) -> None:
    """An integer side that a float can hold; one <= 0 is an empty field domain,
    which the field itself refuses."""
    _check_int("image_size", size)
    _check_real("image_size", size)


def _child_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    _check_int("image count", count, 0)
    return np.random.SeedSequence(seed).spawn(count)


def sample_field(field, height: int, width: int, mesh: float) -> PlanarImage:
    """Evaluate a continuous field on the centred pixel grid; pixels outside the
    field's taper disk read +0.0 without evaluating its terms."""
    # + 0.0 turns any -0.0 sample inside the disk into +0.0, which keeps image bytes stable
    return PlanarImage(field(*centered_grid(height, width, mesh))[:, :, None] + 0.0, mesh=mesh)


def synthetic_image(size: int, seed: int, mesh: float = 1.0) -> PlanarImage:
    """Seeded size x size single-channel test image."""
    _check_image_size(size)
    field = synthetic_field(seed, size * mesh / 2.0)
    return sample_field(field, size, size, mesh)


def synthetic_stack(count: int, size: int, seed: int, mesh: float = 1.0) -> list[PlanarImage]:
    """Deterministic list of images; image i uses child seed i of `seed`."""
    children = _child_seeds(seed, count)
    return [synthetic_image(size, child, mesh=mesh) for child in children]
