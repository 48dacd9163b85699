"""Proximal operators: closed-form soft-threshold, iterative anisotropic TV,
and a learned equivariant network prox.

prox_R(v) = argmin_x 1/2 ||x - v||^2 + R(x). Soft-threshold solves R = w*|x|_1
exactly; the TV prox runs projected dual ascent on the anisotropic dual; the
neural prox wraps an equivariant network as identity + learned correction, and
the net builds its weight banks on first use and again after any coefficient
change. All three commute with quarter-turn rotations (exactly, up to solver
tolerance, and up to the equivariance bound respectively).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import PlanarImage, _check_int, _check_real
from .layers import NetworkSpec, forward

# 1/8 is the classical stability bound for projected dual ascent on the 2D
# anisotropic TV dual; the iteration converges unconditionally at this step.
TV_DUAL_STEP = 0.125


def _check_tv_args(w, tol, max_iter) -> None:
    _check_real("weight", w, 0)
    if w != 0 and not math.isfinite(TV_DUAL_STEP / float(w)):
        raise ValueError(f"weight must be large enough for a finite dual step {TV_DUAL_STEP} / weight, got {w!r}")
    _check_real("tol", tol, 0, strict=True)
    _check_int("max_iter", max_iter, 1)


def soft_threshold(x: PlanarImage, w: float) -> PlanarImage:
    """Elementwise sign(x) * max(|x| - w, 0); exact prox of w*||.||_1."""
    _check_real("weight", w, 0)
    if w == 0:
        return x
    # sign(x) * max(|x| - w, 0), computed in place in one buffer
    mag = np.abs(x.data)
    mag -= w
    np.maximum(mag, 0.0, out=mag)
    return PlanarImage(np.multiply(np.sign(x.data), mag, out=mag), mesh=x.mesh)


def _forward_diff(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Forward differences (gx, gy) stacked as (2, H, W), zero across the last
    column/row (replicated boundary); fills and returns `out` (C-contiguous).

    gx is taken over the flattened image, which also differences each row's last
    pixel with the next row's first; that column is then overwritten with the
    boundary zero, so every element is the same single subtraction as a
    row-by-row difference, without the per-row strided loop.
    """
    flat, gx = u.reshape(-1), out[0].reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=gx[:-1])
    out[0, :, -1] = 0.0
    np.subtract(u[1:], u[:-1], out=out[1, :-1])
    out[1, -1] = 0.0
    return out


def _neg_divergence_adjoint(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Adjoint of _forward_diff: stacked (px, py) -> -div(p) with matching
    boundaries; fills and returns `out` (C-contiguous).

    Per element this is ((0 - px[i, j]) + px[i, j-1]) - py[i, j] + py[i-1, j],
    each term present only inside the boundary, in that order. The two px
    passes run over the flattened image; the elements they touch across a row
    boundary are then reset to what the row-by-row pass leaves there.
    """
    px, py = p
    flat, fpx = out.reshape(-1), px.reshape(-1)
    np.subtract(0.0, fpx, out=flat)
    out[:, -1] = 0.0
    np.add(flat[1:], fpx[:-1], out=flat[1:])
    if px.shape[1] > 1:
        np.subtract(0.0, px[1:, 0], out=out[1:, 0])
    else:
        out.fill(0.0)
    np.subtract(out[:-1], py[:-1], out=out[:-1])
    np.add(out[1:], py[:-1], out=out[1:])
    return out


def _abs_sum(g: np.ndarray, scratch: np.ndarray) -> float:
    """sum |gx| + sum |gy| of a stacked gradient, each half summed on its own,
    with |g| written into `scratch`."""
    a = np.abs(g, out=scratch)
    return float(a[0].sum() + a[1].sum())


@dataclass(frozen=True)
class TVResult:
    image: PlanarImage
    converged: bool
    iterations: int


def tv_prox(x: PlanarImage, w: float, tol: float = 1e-8, max_iter: int = 500) -> TVResult:
    """Prox of w * TV_aniso via projected dual ascent (Chambolle-style).

    Maximizes the dual over p in [-1,1]^2 per pixel: u = x + w*div(p), updating
    p <- clip(p + (tau/w)*grad(u)). Stops when the dual update's max change is
    below tol, or after max_iter updates. The returned objective never exceeds
    the objective at x.

    Each iteration evaluates the primal u and its gradient once: the gradient
    that scores the new iterate's objective is the one the next dual update
    uses. All buffers are allocated once per channel and filled in place, in the
    same floating-point operations and order as the straightforward loop, so
    the output is bit-identical to recomputing both each time.
    """
    _check_tv_args(w, tol, max_iter)
    if w == 0:
        return TVResult(x, True, 0)
    out = np.empty_like(x.data)
    converged = True
    iterations = 0
    for c in range(x.channels):
        plane, ok, it = _tv_prox_plane(x.data[:, :, c], w, tol, max_iter)
        out[:, :, c] = plane
        converged = converged and ok
        iterations = max(iterations, it)
    return TVResult(PlanarImage(out, mesh=x.mesh), converged, iterations)


def _tv_objective(u: np.ndarray, f: np.ndarray, w: float, g: np.ndarray, scratch: np.ndarray) -> float:
    """1/2 ||u - f||^2 + w * TV(u), given g = _forward_diff(u) and a (2, H, W) scratch buffer."""
    r = np.subtract(u, f, out=scratch[0])
    return 0.5 * float(np.square(r, out=r).sum()) + w * _abs_sum(g, scratch)


def _primal(f, w, p, div, u, g) -> None:
    """u = f - w * (-div p) and g = _forward_diff(u), into the buffers given."""
    np.multiply(_neg_divergence_adjoint(p, out=div), w, out=div)
    np.subtract(f, div, out=u)
    _forward_diff(u, out=g)


def _tv_prox_plane(f: np.ndarray, w: float, tol: float, max_iter: int):
    f = np.ascontiguousarray(f)
    step = TV_DUAL_STEP / w
    p = np.zeros((2, *f.shape))
    p_next, scratch, g = np.empty_like(p), np.empty_like(p), np.empty_like(p)
    div = np.empty(f.shape)
    # The p=0 iterate is f itself, so the best objective never exceeds the
    # objective at the input even if the dual ascent is cut off early.
    best_u, best_obj = f.copy(), _tv_objective(f, f, w, _forward_diff(f, out=g), scratch)
    u = np.empty_like(best_u)
    _primal(f, w, p, div, u, g)
    for it in range(1, max_iter + 1):
        np.multiply(g, step, out=p_next)
        np.add(p, p_next, out=p_next)
        np.clip(p_next, -1.0, 1.0, out=p_next)
        np.abs(np.subtract(p_next, p, out=scratch), out=scratch)
        change = max(scratch[0].max(), scratch[1].max())
        p, p_next = p_next, p
        _primal(f, w, p, div, u, g)
        obj = _tv_objective(u, f, w, g, scratch)
        if obj < best_obj:
            # swap, never copy: the old best buffer is free to take the next u
            best_u, u, best_obj = u, best_u, obj
        if change < tol:
            return best_u, True, it
    return best_u, False, max_iter


def neural_prox(x: PlanarImage, net: NetworkSpec) -> PlanarImage:
    """Identity plus learned correction: x + forward(net, x)."""
    if net.out_channels != x.channels:
        last = net.layers.index(net.conv_layers[-1])
        raise ValueError(
            f"proximal network must map the image space to itself: layer {last} outputs "
            f"{net.out_channels} channels, the image has {x.channels}"
        )
    correction = forward(net, x)
    return PlanarImage(x.data + correction.data, mesh=x.mesh)


@dataclass(frozen=True)
class SoftThreshold:
    weight: float

    def __post_init__(self):
        _check_real("weight", self.weight, 0)

    def __call__(self, x: PlanarImage) -> PlanarImage:
        return soft_threshold(x, self.weight)


@dataclass(frozen=True)
class TVProx:
    weight: float
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        _check_tv_args(self.weight, self.tol, self.max_iter)

    def __call__(self, x: PlanarImage) -> PlanarImage:
        return tv_prox(x, self.weight, self.tol, self.max_iter).image


@dataclass(frozen=True)
class NeuralProx:
    """x + net(x)."""

    net: NetworkSpec

    def __call__(self, x: PlanarImage) -> PlanarImage:
        return neural_prox(x, self.net)
