"""ISTA proximal-gradient solver over pluggable degradation operators.

The data term is 1/2 ||A x - y||^2 (Frobenius), so its gradient is
A^T (A x - y) and the classical step-size bound is 1/||A||^2. A step computes
prox((x - eta A^T A x) + eta A^T y) in that order, with A^T y formed once per
solve. A solve stops at the first step whose prox input repeats the previous
step's bit for bit: for A = I at eta = 1 every prox input is y, so a denoise
solve evaluates its prox once and stops at step 2. Degradation operators
expose exact apply/adjoint pairs; blur-downsample keeps the upper-left pixel of each s x s block, and both
directions run on the coarse grid as one correlation with a polyphase bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .grids import NonFiniteError, PlanarImage, _check_int, _check_real
from .layers import correlate_stack

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

    Downsampling keeps the upper-left pixel of each s x s block, so only the
    blur's values on the coarse grid are ever used. With m = p // 2, tap (u, v)
    of the p x p kernel reads fine pixel (s i + u - m, s j + v - m); writing
    divmod(u - m, s) = (d, a) and divmod(v - m, s) = (e, b), that is pixel
    (i + d, j + e) of phase plane (a, b), the fine image's pixels
    (s I + a, s J + b). So ``apply`` is one SAME correlation of the s*s phase
    planes (space-to-depth, channel a*s + b) with a (s*s, q, q, 1) bank,
    q = 2 ceil(m / s) + 1, holding tap (u, v) at phase (a, b), offset (d, e).
    Its adjoint correlates y with the flipped bank, transposed to
    (1, q, q, s*s), and puts each output channel back on its phase
    (depth-to-space). Both banks are built at construction.
    """

    kernel: np.ndarray
    scale: int

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=np.float64)
        if k.ndim != 2 or k.shape[0] != k.shape[1] or k.shape[0] % 2 == 0:
            raise ValueError(f"kernel must be square and odd-sized, got {k.shape}")
        _check_int("scale", self.scale)
        if self.scale < 1:
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        s, m = self.scale, k.shape[0] // 2
        r = -(-m // s)
        bank = np.zeros((s, s, 2 * r + 1, 2 * r + 1))
        d, a = np.divmod(np.arange(-m, m + 1), s)
        bank[a[:, None], a[None, :], d[:, None] + r, d[None, :] + r] = k
        bank = bank.reshape(s * s, 2 * r + 1, 2 * r + 1, 1)
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "_bank", bank)
        object.__setattr__(self, "_adjoint_bank", bank[:, ::-1, ::-1].transpose(3, 1, 2, 0).copy())

    def apply(self, x: PlanarImage) -> PlanarImage:
        h, w, c = x.data.shape
        s = self.scale
        if h % s or w % s:
            raise ValueError(
                f"scale {s} must divide image size {h}x{w}"
            )
        # one channel's phase planes at a time: plane a*s + b holds x[a::s, b::s]
        phases = np.empty((h // s, w // s, s * s))
        out = np.empty((h // s, w // s, c))
        for ch in range(c):
            for a in range(s):
                for b in range(s):
                    phases[:, :, a * s + b] = x.data[a::s, b::s, ch]
            out[:, :, ch] = correlate_stack(phases, self._bank)[:, :, 0]
        return PlanarImage(out, mesh=x.mesh * s)

    def adjoint(self, y: PlanarImage) -> PlanarImage:
        h, w, c = y.data.shape
        s = self.scale
        out = np.empty((h * s, w * s, c))
        for ch in range(c):
            phases = correlate_stack(y.data[:, :, ch : ch + 1], self._adjoint_bank)
            for a in range(s):
                for b in range(s):
                    out[a::s, b::s, ch] = phases[:, :, a * s + b]
        return PlanarImage(out, mesh=y.mesh / s)

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
    """Largest eigenvalue of A^T A (= ||A||^2): exactly 1 for the identity,
    otherwise by 50 power-iteration steps from a seed-0 Gaussian start."""
    if isinstance(op, Identity):
        return 1.0
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

    `prox` must be a deterministic function of its input: `ista_solve` stops
    at the first step whose prox input repeats the previous step's, since
    every later iterate then equals the current one.
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


def ista_step(x_t: PlanarImage, aty: PlanarImage, op: DegradationOp, cfg: UnfoldingConfig) -> PlanarImage:
    """prox((x - eta * A^T A x) + eta * A^T y): one proximal-gradient step,
    given aty = A^T y."""
    eta = cfg.step_size
    if eta is None:
        raise ValueError("step_size must be resolved before stepping")
    normal = op.adjoint(op.apply(x_t)).data
    return cfg.prox(PlanarImage((x_t.data - eta * normal) + eta * aty.data, mesh=x_t.mesh))


def ista_solve(y: PlanarImage, op: DegradationOp, cfg: UnfoldingConfig) -> tuple[PlanarImage, int]:
    """Run T steps from x0 = adjoint(y); returns x_T and the number of prox
    evaluations made.

    A step whose prox input repeats the previous step's bit for bit gives the
    previous iterate again, and so does every step after it: the solve stops
    there, and x_T is the one the plain T-step loop gives.
    """
    lip = estimate_lipschitz(op, y)
    if cfg.step_size is None:
        cfg = UnfoldingConfig(cfg.steps, 1.0 / lip if lip > 0 else 1.0, cfg.prox)
    elif lip > 0 and cfg.step_size > 1.0 / lip:
        raise ValueError(
            f"step_size {cfg.step_size} exceeds 1/L_A = {1.0 / lip:.6g}"
        )
    prox = _LastCall(cfg.prox)
    cfg = UnfoldingConfig(cfg.steps, cfg.step_size, prox)
    x = aty = op.adjoint(y)
    # a non-finite value is reported as divergence, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.steps + 1):
            calls = prox.calls
            try:
                x = ista_step(x, aty, op, cfg)
            except NonFiniteError:
                raise SolverDivergence(step) from None
            if not np.isfinite(x.data).all():
                raise SolverDivergence(step)
            if prox.calls == calls:  # a repeated prox input: x is a fixed point
                break
    return x, prox.calls


class _LastCall:
    """The prox, evaluated only when its input differs bit for bit (bytes, not
    values, so -0.0 and +0.0 differ) from the previous call's; `calls` counts
    the evaluations, and a step that leaves it unchanged ends `ista_solve`."""

    def __init__(self, prox: Callable[[PlanarImage], PlanarImage]):
        self.prox, self.calls, self.last = prox, 0, (None, None)

    def __call__(self, v: PlanarImage) -> PlanarImage:
        key = v.mesh, v.data.shape, v.data.tobytes()
        if key != self.last[0]:
            self.calls += 1
            self.last = key, self.prox(v)
        return self.last[1]


def gaussian_kernel(size: int, sigma: float) -> np.ndarray:
    """Isotropic Gaussian taps on a size x size grid, normalized to sum 1."""
    _check_int("kernel size", size)
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
