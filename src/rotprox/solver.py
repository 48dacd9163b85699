"""ISTA proximal-gradient solver over pluggable degradation operators.

The data term is 1/2 ||A x - y||^2 (Frobenius), so its gradient is
A^T (A x - y) and the classical step-size bound is 1/||A||^2. Degradation
operators expose exact apply/adjoint pairs; blur-downsample keeps the
upper-left pixel of each s x s block and its adjoint zero-stuffs before
the transposed blur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .grids import NonFiniteError, PlanarImage
from .layers import correlate_stack
from .prox import _check_int, _check_real

POWER_ITERATIONS = 50


@dataclass(frozen=True)
class Identity:
    """A = I; its own adjoint."""

    scale = 1  # observation mesh / solution mesh, as on BlurDownsample

    def apply(self, x: PlanarImage) -> PlanarImage:
        return x

    def adjoint(self, y: PlanarImage) -> PlanarImage:
        return y

    def domain_shape(self, y: PlanarImage) -> tuple[int, int, int]:
        return y.data.shape


@dataclass(frozen=True)
class BlurDownsample:
    """A = downsample_s o correlate_K with zero padding (SAME size blur).

    Downsampling keeps the upper-left pixel of each s x s block, so the
    adjoint zero-stuffs y back onto the fine grid and correlates with the
    flipped kernel.
    """

    kernel: np.ndarray
    scale: int

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] % 2 == 0:
            raise ValueError(f"kernel must be square and odd-sized, got {k.shape}")
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        object.__setattr__(self, "kernel", k)

    def _blur(self, data: np.ndarray, kernel: np.ndarray) -> np.ndarray:
        weights = kernel[None, :, :, None]
        out = np.empty_like(data)
        for c in range(data.shape[2]):
            out[:, :, c] = correlate_stack(data[:, :, c : c + 1], weights)[:, :, 0]
        return out

    def apply(self, x: PlanarImage) -> PlanarImage:
        h, w = x.data.shape[:2]
        if h % self.scale or w % self.scale:
            raise ValueError(
                f"scale {self.scale} must divide image size {h}x{w}"
            )
        blurred = self._blur(x.data, self.kernel)
        return PlanarImage(
            np.ascontiguousarray(blurred[:: self.scale, :: self.scale, :]),
            mesh=x.mesh * self.scale,
        )

    def adjoint(self, y: PlanarImage) -> PlanarImage:
        h, w, c = y.data.shape
        stuffed = np.zeros((h * self.scale, w * self.scale, c))
        stuffed[:: self.scale, :: self.scale, :] = y.data
        out = self._blur(stuffed, self.kernel[::-1, ::-1])
        return PlanarImage(out, mesh=y.mesh / self.scale)

    def domain_shape(self, y: PlanarImage) -> tuple[int, int, int]:
        h, w, c = y.data.shape
        return (h * self.scale, w * self.scale, c)


DegradationOp = Union[Identity, BlurDownsample]


def degrade(op: DegradationOp, x: PlanarImage, noise_sigma: float, seed: int) -> PlanarImage:
    """apply(x) plus seeded Gaussian noise N(0, sigma^2)."""
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    y = op.apply(x)
    if noise_sigma == 0:
        return y
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, noise_sigma, size=y.data.shape)
    return PlanarImage(y.data + noise, mesh=y.mesh)


def estimate_lipschitz(op: DegradationOp, y: PlanarImage) -> float:
    """Largest eigenvalue of A^T A (= ||A||^2) by 50 power-iteration steps from a
    seed-0 Gaussian start."""
    v = np.random.default_rng(0).standard_normal(op.domain_shape(y))
    v /= np.linalg.norm(v)
    mesh = y.mesh * op.scale
    lam = 0.0
    for _ in range(POWER_ITERATIONS):
        img = PlanarImage(v, mesh=mesh)
        av = op.adjoint(op.apply(img)).data
        lam = float(np.linalg.norm(av))
        if lam == 0.0:
            return 0.0
        v = av / lam
    return lam


@dataclass(frozen=True)
class UnfoldingConfig:
    """T proximal-gradient steps at step size eta; eta=None means auto 1/L_A.

    `prox` must be a deterministic function of its input: `ista_solve` skips
    the steps of an iterate sequence that has started to repeat.
    """

    steps: int
    step_size: float | None
    prox: Callable[[PlanarImage], PlanarImage]

    def __post_init__(self):
        _check_int("steps", self.steps, 0)
        if self.step_size is not None:
            _check_real("step_size", self.step_size, 0, strict=True)


class SolverDivergence(RuntimeError):
    """Raised when an iterate, or a value inside its step (a prox network's
    layer output), goes non-finite; .step is the offending step."""

    def __init__(self, step: int):
        super().__init__(f"non-finite iterate at step {step}")
        self.step = step


def _gradient(x: PlanarImage, y: PlanarImage, op: DegradationOp) -> PlanarImage:
    residual = PlanarImage(op.apply(x).data - y.data, mesh=y.mesh)
    return op.adjoint(residual)


def ista_step(x_t: PlanarImage, y: PlanarImage, op: DegradationOp, cfg: UnfoldingConfig) -> PlanarImage:
    """prox(x - eta * A^T(Ax - y)): one proximal-gradient step."""
    eta = cfg.step_size
    if eta is None:
        raise ValueError("step_size must be resolved before stepping")
    grad = _gradient(x_t, y, op)
    shifted = PlanarImage(x_t.data - eta * grad.data, mesh=x_t.mesh)
    return cfg.prox(shifted)


def ista_solve(y: PlanarImage, op: DegradationOp, cfg: UnfoldingConfig) -> tuple[PlanarImage, int]:
    """Run T steps from x0 = adjoint(y); returns x_T and the number of
    ``ista_step`` calls made.

    When an iterate repeats an earlier one bit for bit, the sequence is
    periodic from there, so whole periods are skipped: x_T is the one the
    plain T-step loop gives, at the cost of the steps up to the repeat plus
    fewer than one period.
    """
    lip = estimate_lipschitz(op, y)
    if cfg.step_size is None:
        cfg = UnfoldingConfig(cfg.steps, 1.0 / lip if lip > 0 else 1.0, cfg.prox)
    elif lip > 0 and cfg.step_size > 1.0 / lip:
        raise ValueError(
            f"step_size {cfg.step_size} exceeds 1/L_A = {1.0 / lip:.6g}"
        )
    x = op.adjoint(y)
    # Brent's cycle finder: `seen` is the iterate at step `seen_step`, moved
    # on at power-of-two steps. The step map is a function of x alone, so once
    # an iterate repeats, the sequence has that period.
    seen, seen_step, step, calls = _state(x), 0, 0, 0
    while step < cfg.steps:
        step += 1
        calls += 1
        try:
            # a non-finite value is reported as divergence, not as a numpy warning
            with np.errstate(over="ignore", invalid="ignore"):
                x = ista_step(x, y, op, cfg)
        except NonFiniteError:
            raise SolverDivergence(step) from None
        if not np.all(np.isfinite(x.data)):
            raise SolverDivergence(step)
        state = _state(x)
        if state == seen:
            # each skipped lap of `period` steps ends on x again
            period = step - seen_step
            step += (cfg.steps - step) // period * period
            seen_step = step
        elif step & (step - 1) == 0:
            seen, seen_step = state, step
    return x, calls


def _state(x: PlanarImage) -> tuple:
    """The iterate bit for bit: bytes, not values, so -0.0 and +0.0 differ."""
    return x.mesh, x.data.shape, x.data.tobytes()


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Isotropic Gaussian taps on a size x size grid, normalized to sum 1."""
    if size < 1 or size % 2 == 0:
        raise ValueError(f"kernel size must be odd and positive, got {size}")
    if not sigma > 0:
        raise ValueError(f"kernel sigma must be > 0, got {sigma}")
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-0.5 * (r / sigma) ** 2)
    k = np.outer(g, g)
    return k / k.sum()


def psnr(x: PlanarImage, reference: PlanarImage) -> float:
    """Peak signal-to-noise ratio in dB for a peak of 1; inf when the images are identical."""
    if x.data.shape != reference.data.shape:
        raise ValueError(
            f"shape mismatch {x.data.shape} vs {reference.data.shape}"
        )
    mse = float(np.mean((x.data - reference.data) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)
