"""Equivariance audits: measured rotation errors against the analytic layer-cascade
bound, group-order sweeps, and the rotation-invariance suite for classical
regularizers.

The central quantity is the relative equivariance error
``||f(rot_theta x) - rot_theta f(x)|| / ||rot_theta f(x)||`` on the interior
(receptive ring cropped). The bound combines per-layer filter smoothness sups
with image smoothness sups into ``C1 h^2 + C2 p h / t``: a quadratic mesh term
plus an orientation-quantization term that decays with the group order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .filters import SmoothnessBounds, bounds_from_coefficients, image_bounds
from .grids import PlanarImage, central_differences, relative_difference, rotate_image
from .layers import NetworkSpec, forward, make_sweep_net
from .synthetic import ring_stack

SWEEP_GROUP_ORDERS = (1, 2, 4, 8, 12, 24)
# Azimuthal harmonic orders of the sweep test images. The top orders sit past
# the coarser group orders' quantization cliffs, so every step of the sweep has
# angular content it visibly fails to transport; low orders keep small-t nets
# responsive. All are chosen off the audited group orders' common divisors.
SWEEP_RING_ORDERS = (3, 6, 9, 13, 16, 19, 22, 25, 28)

SWEEP_CSV_HEADER = "t,p,N,mean_error,max_error,bound,bound_satisfied"
REGULARIZER_CSV_HEADER = "regularizer,angle_rad,value"


@dataclass(frozen=True)
class BoundInputs:
    """Everything the layer-cascade bound needs: per conv layer (n, filter-bank sups), the
    image sups (F0, G0, H0), filter size p, mesh h, group order t, the longer image side."""

    layers: tuple[tuple[int, SmoothnessBounds], ...]
    image: SmoothnessBounds
    p: int
    h: float
    t: int
    side: int

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 1:
            raise ValueError("need at least one conv layer")
        for slices, _ in self.layers:
            if slices < 1:
                raise ValueError(f"slice count must be >= 1, got {slices}")
        if self.p < 1 or self.p % 2 == 0:
            raise ValueError(f"filter size must be odd and positive, got {self.p}")
        if self.h <= 0:
            raise ValueError(f"mesh must be > 0, got {self.h}")
        if self.t < 1:
            raise ValueError(f"group order must be >= 1, got {self.t}")
        if self.side < 1:
            raise ValueError(f"image side must be >= 1, got {self.side}")

    @property
    def N(self) -> int:
        return len(self.layers)


def theorem1_bound(b: BoundInputs) -> tuple[float, float, float, float]:
    """(bound, C1, C2, F_script) of the layer-cascade equivariance bound.

    F_script = prod_i n_{i-1} p^2 F_i
    C1 = 2 N F_script * sum_i (H_i F0/F_i + 2 (G_i/F_i) sum_{m<i} G_m F0/F_m
                               + 2 G_i G0/F_i + H0)
    C2 = 2 pi G0 F_script (2 max(H, W)/p + 2 N)
    bound = C1 h^2 + C2 p h / t
    """
    for _, fb in b.layers:
        if fb.F == 0.0:
            raise ZeroDivisionError("degenerate filter bank: F bound is 0")
    img = b.image
    f_script = 1.0
    for slices, fb in b.layers:
        f_script *= slices * b.p**2 * fb.F
    inner = 0.0
    prefix = 0.0  # sum over earlier layers of G_m F0 / F_m
    for _, fb in b.layers:
        inner += fb.H * img.F / fb.F + 2.0 * (fb.G / fb.F) * prefix + 2.0 * fb.G * img.G / fb.F + img.H
        prefix += fb.G * img.F / fb.F
    n = b.N
    c1 = 2.0 * n * f_script * inner
    c2 = 2.0 * math.pi * img.G * f_script * (2.0 * b.side / b.p + 2.0 * n)
    bound = c1 * b.h**2 + c2 * b.p * b.h / b.t
    return bound, c1, c2, f_script


def bound_inputs_for(net: NetworkSpec, images: Sequence[PlanarImage]) -> BoundInputs:
    """Assemble BoundInputs from a network's coefficient banks and an image set.

    Filter sups take the worst filter of each bank; image sups take the worst
    image. Mixed filter sizes report the largest p (conservative in both terms).
    """
    convs = net.conv_layers
    if not images:
        raise ValueError("empty image set")
    mesh = images[0].mesh
    for img in images:
        if img.mesh != mesh:
            raise ValueError("images must share one mesh")
    sups = [image_bounds(img) for img in images]
    return BoundInputs(
        layers=tuple((layer.fan_in, bounds_from_coefficients(layer.basis, layer.coeffs)) for layer in convs),
        image=SmoothnessBounds(max(s.F for s in sups), max(s.G for s in sups), max(s.H for s in sups)),
        p=max(layer.basis.filter_size for layer in convs),
        h=mesh,
        t=net.group_order,
        side=max(max(img.height, img.width) for img in images),
    )


@dataclass(frozen=True)
class EquivarianceReport:
    """Per-angle errors plus the bound they are checked against (when computed)."""

    errors: tuple[tuple[float, float], ...]  # (theta, relative error)
    mean_error: float
    bound: float | None
    bound_satisfied: bool | None
    t: int
    p: int
    N: int

    @property
    def max_error(self) -> float:
        return max(e for _, e in self.errors)


def _uniform_angles(rng: np.random.Generator, count: int) -> np.ndarray:
    # theta = pi*(1 - 2u) maps u in [0,1) onto (-pi, pi]
    return np.pi * (1.0 - 2.0 * rng.random(count))


def _check_angles(angles: int | Sequence[float]) -> None:
    if (angles if isinstance(angles, int) else len(angles)) < 1:
        raise ValueError(f"angles must be a count >= 1 or a nonempty list of angles, got {angles!r}")


def measure_equivariance(
    net: NetworkSpec,
    images: Sequence[PlanarImage],
    angles: int | Sequence[float] = 10,
    seed: int = 0,
    bound_inputs: BoundInputs | None = None,
) -> EquivarianceReport:
    """Relative equivariance error of `net` over (image, angle) pairs.

    `angles` is either an explicit angle list (shared by all images) or a count
    of uniform draws from (-pi, pi] per image, from the seeded generator. Errors
    crop the receptive ring. With `bound_inputs` supplied the report carries the
    analytic bound and whether every error sits below it.
    """
    if len(images) == 0:
        raise ValueError("empty image set")
    _check_angles(angles)
    crop = net.receptive_radius
    rng = np.random.default_rng(seed)
    errors: list[tuple[float, float]] = []
    for img in images:
        thetas = (
            _uniform_angles(rng, angles)
            if isinstance(angles, int)
            else np.asarray(angles, dtype=np.float64)
        )
        base = forward(net, img)
        for theta in thetas:
            theta = float(theta)
            lhs = forward(net, rotate_image(img, theta))
            errors.append((theta, relative_difference(lhs, rotate_image(base, theta), crop=crop)))
    mean_error = float(np.mean([e for _, e in errors]))
    bound = None
    satisfied = None
    if bound_inputs is not None:
        bound = theorem1_bound(bound_inputs)[0]
        satisfied = all(e <= bound for _, e in errors)
    convs = net.conv_layers
    return EquivarianceReport(
        errors=tuple(errors),
        mean_error=mean_error,
        bound=bound,
        bound_satisfied=satisfied,
        t=net.group_order,
        p=max(l.basis.filter_size for l in convs),
        N=len(convs),
    )


def order_sweep(
    *,
    t_list: Sequence[int],
    image_count: int,
    image_size: int,
    mesh: float,
    angles: int | Sequence[float],
    net_seed: int,
    image_seed: int,
    angle_seed: int,
    channels: int,
) -> list[EquivarianceReport]:
    """Equivariance error vs group order on a shared image/angle set;
    `rotprox audit-equivariance` passes `AUDIT_EQ_DEFAULTS`, its `seed` as `angle_seed`.

    All orders audit the same images at the same angles with coefficient draws
    shared across t (see make_sweep_net), so the comparison is paired: differences
    reflect orientation quantization, not sampling jitter.
    """
    _check_angles(angles)
    nets = [make_sweep_net(t, channels=channels, seed=net_seed) for t in t_list]
    ring = max(net.receptive_radius for net in nets)
    # a size <= 0 is an empty field domain, which the fields themselves refuse
    if 0 < image_size <= 2 * ring:
        raise ValueError(
            f"image_size {image_size} leaves no pixels inside the sweep nets' receptive ring "
            f"({ring} pixels per side, so image_size must be > {2 * ring})"
        )
    images = ring_stack(image_count, image_size, image_seed, mesh, orders=SWEEP_RING_ORDERS)
    reports = []
    for net in nets:
        bi = bound_inputs_for(net, images)
        reports.append(
            measure_equivariance(net, images, angles=angles, seed=angle_seed, bound_inputs=bi)
        )
    return reports


REGULARIZER_KINDS = ("L1", "LapL0", "TV_iso", "TV2")


@dataclass(frozen=True)
class RegularizerSpec:
    """kind in {L1, LapL0, TV_iso, TV2}; epsilon smooths LapL0; crop trims the border."""

    kind: str
    epsilon: float = 0.01
    crop: int = 1

    def __post_init__(self):
        if self.kind not in REGULARIZER_KINDS:
            raise ValueError(f"unknown regularizer {self.kind!r}; pick from {REGULARIZER_KINDS}")
        if self.epsilon <= 0:
            raise ValueError(f"smoothing epsilon must be > 0, got {self.epsilon}")
        if self.crop < 1:
            raise ValueError(f"crop must be >= 1, got {self.crop}")


def regularizer_value(r: RegularizerSpec, x: PlanarImage) -> float:
    """Mean regularizer density over the cropped interior, in grid units.

    All stencils are centered (symmetric), so the value is exactly invariant
    under quarter turns and axis flips of the pixel grid.
    """
    c = r.crop
    u = x.data
    if min(x.height, x.width) <= 2 * c:
        raise ValueError(f"crop {c} leaves no pixels on {x.height}x{x.width}")
    if r.kind == "L1":
        return float(np.mean(np.abs(u[c:-c, c:-c, :])))
    # derivative stencils live on the 1-pixel interior; trim the rest of the crop
    dx, dy, uxx, uyy, uxy = central_differences(u)
    s = c - 1
    trim = (lambda a: a[s:-s, s:-s, :]) if s else (lambda a: a)
    if r.kind == "TV_iso":
        return float(np.mean(np.sqrt(trim(dx) ** 2 + trim(dy) ** 2)))
    if r.kind == "TV2":
        frob = np.sqrt(trim(uxx) ** 2 + 2.0 * trim(uxy) ** 2 + trim(uyy) ** 2)
        return float(np.mean(frob))
    lap = trim(uxx + uyy)
    return float(np.mean(lap**2 / (lap**2 + r.epsilon**2)))


def regularizer_rotation_table(
    x: PlanarImage,
    n_angles: int = 8,
    epsilon: float = 0.01,
    crop: int = 1,
) -> list[tuple[str, float, float]]:
    """(kind, angle, value) rows over uniform angles in [0, 2*pi), kind-major."""
    if n_angles < 1:
        raise ValueError("need at least one angle")
    angles = [2.0 * math.pi * k / n_angles for k in range(n_angles)]
    rows = []
    for kind in REGULARIZER_KINDS:
        spec = RegularizerSpec(kind, epsilon=epsilon, crop=crop)
        for theta in angles:
            rows.append((kind, theta, regularizer_value(spec, rotate_image(x, theta))))
    return rows


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_report(path, header: str, rows: list[str], summary: list[str]) -> tuple[Path, Path]:
    """Write `rows` under `header` as a CSV at `path` and `summary` to <stem>_summary.txt beside it."""
    csv_path = Path(path)
    csv_path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    stem = csv_path.stem if csv_path.suffix == ".csv" else csv_path.name
    summary_path = csv_path.with_name(f"{stem}_summary.txt")
    summary_path.write_text("\n".join(summary) + "\n", encoding="utf-8")
    return csv_path, summary_path


def emit_report(reports: Sequence[EquivarianceReport], path) -> tuple[Path, Path]:
    """Write sweep reports as CSV plus a plain-text summary; returns both paths."""
    if not reports:
        raise ValueError("no reports to emit")
    for rep in reports:
        if not rep.errors:
            raise ValueError("report with an empty angle list")
    rows, summary = [], []
    for rep in reports:
        bound = "" if rep.bound is None else _fmt(rep.bound)
        sat = "" if rep.bound_satisfied is None else ("true" if rep.bound_satisfied else "false")
        rows.append(f"{rep.t},{rep.p},{rep.N},{_fmt(rep.mean_error)},{_fmt(rep.max_error)},{bound},{sat}")
        line = (
            f"t={rep.t} p={rep.p} N={rep.N} pairs={len(rep.errors)} "
            f"mean_error={rep.mean_error:.6g} max_error={rep.max_error:.6g}"
        )
        if rep.bound is not None:
            line += f" bound={rep.bound:.6g}"
        summary.append(line)
    checked = [rep.bound_satisfied for rep in reports if rep.bound_satisfied is not None]
    if checked:
        summary.append(f"bound_satisfied: {'true' if all(checked) else 'false'}")
    return _write_report(path, SWEEP_CSV_HEADER, rows, summary)


def relative_spread(values: Sequence[float]) -> float:
    """(max - min) / mean over a value table; 0 for an all-zero table."""
    mean = float(np.mean(values))
    return (max(values) - min(values)) / mean if mean else 0.0


def emit_regularizer_report(rows: Sequence[tuple[str, float, float]], path) -> tuple[Path, Path]:
    """Write (kind, angle, value) rows as CSV plus a per-kind spread summary."""
    if not rows:
        raise ValueError("no rows to emit")
    by_kind: dict[str, list[float]] = {}
    for kind, _, value in rows:
        by_kind.setdefault(kind, []).append(value)
    summary = [
        f"{kind}: mean={float(np.mean(values)):.6g} relative_spread={relative_spread(values):.6g}"
        for kind, values in by_kind.items()
    ]
    lines = [f"{kind},{_fmt(theta)},{_fmt(value)}" for kind, theta, value in rows]
    return _write_report(path, REGULARIZER_CSV_HEADER, lines, summary)
