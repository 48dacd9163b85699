"""Reverse-mode differentiation over the layer op set, plus a small full-batch trainer.

A forward pass records a Tape: each layer's `record` saves exactly the arrays
its `grads` and `backward` need (conv inputs and weight banks, ReLU masks, the
pooled orientation count). The reverse pass carries the input gradient down
to the first layer and no further, since no caller reads the gradient w.r.t.
the network input. Parameter gradients come in two steps: `backward` returns
local gradients (a conv's tap gradient, the gradient w.r.t. its weight bank),
then `chain_grads` carries each conv's taps through the fixed basis-sampling
matrix onto its Fourier coefficients; equivariance is a property of the
parametrization and survives any number of updates.

The net builds its weight banks on first use and again after any coefficient
change, so every image of an epoch shares one set; the images still go through
the net one at a time. The chain step is linear, so the trainer chains the
images' summed tap gradients once per conv per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grids import NonFiniteError, PlanarImage
from .layers import NetworkSpec, _pass, forward, parameters


@dataclass
class Tape:
    """Ordered record of one forward pass: (layer, saved arrays) per layer plus the output."""

    entries: list[tuple]
    output: object


def forward_with_tape(net: NetworkSpec, x: PlanarImage):
    """forward(net, x) while recording what the reverse pass needs."""
    entries: list[tuple] = []
    value = _pass(net, x, entries)
    return value, Tape(entries=entries, output=value)


def backward(tape: Tape, loss_grad) -> dict[tuple[int, str], np.ndarray]:
    """Exact reverse-mode local gradients from a seed gradient on the taped
    output, as {(layer index, param name): gradient}; a conv's is its tap
    gradient. They are linear in the seed, and ``chain_grads`` turns them, or
    a sum of them, into parameter gradients. The tape is only read, so it can
    back any number of reverse passes.
    """
    g = np.asarray(loss_grad, dtype=np.float64)
    if g.shape != tape.output.data.shape:
        raise ValueError(f"seed gradient shape {g.shape} != output shape {tape.output.data.shape}")
    grads: dict[tuple[int, str], np.ndarray] = {}
    pending: dict[int, np.ndarray] = {}  # residual gradients by source layer
    for i in range(len(tape.entries) - 1, -1, -1):
        if i in pending:
            g = g + pending.pop(i)
        layer, saved = tape.entries[i]
        for name, grad in layer.grads(g, saved).items():
            grads[(i, name)] = grad
        if i:
            g = layer.backward(g, saved, pending)
    return grads


def chain_grads(
    layers: Sequence, local: dict[tuple[int, str], np.ndarray]
) -> dict[tuple[int, str], np.ndarray]:
    """Parameter gradients from local gradients keyed (layer index, param name)."""
    return {(i, name): layers[i].chain(name, g) for (i, name), g in local.items()}


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """(mean squared error, gradient w.r.t. pred)."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.mean(diff**2))
    return loss, (2.0 / diff.size) * diff


@dataclass
class SGD:
    """Plain gradient descent: param -= lr * grad."""

    lr: float

    def apply(self, net: NetworkSpec, grads: dict[tuple[int, str], np.ndarray]) -> None:
        for idx, name, arr in parameters(net):
            g = grads.get((idx, name))
            if g is not None:
                arr -= self.lr * g


@dataclass
class Adam:
    lr: float
    state: dict = field(default_factory=dict)

    def apply(self, net: NetworkSpec, grads: dict[tuple[int, str], np.ndarray]) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for idx, name, arr in parameters(net):
            g = grads.get((idx, name))
            if g is None:
                continue
            m, v, step = self.state.get((idx, name), (np.zeros_like(arr), np.zeros_like(arr), 0))
            step += 1
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * g**2
            self.state[(idx, name)] = (m, v, step)
            m_hat = m / (1.0 - beta1**step)
            v_hat = v / (1.0 - beta2**step)
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + eps)


class TrainingDivergence(RuntimeError):
    """Raised when the epoch loss passes 1e6 or is not finite, or when a layer
    output turns non-finite (that epoch's loss then reads nan); .trace holds
    losses up to the abort."""

    def __init__(self, trace: list[float]):
        super().__init__(f"loss diverged to {trace[-1]:.3e} at epoch {len(trace) - 1}")
        self.trace = trace


DIVERGENCE_LIMIT = 1e6


def train_denoiser(
    net: NetworkSpec,
    pairs: Sequence[tuple[PlanarImage, PlanarImage]],
    opt,
    epochs: int,
) -> tuple[NetworkSpec, list[float]]:
    """Full-batch MSE training of a residual denoiser: prediction = noisy + net(noisy).

    `pairs` holds (clean, noisy) images. Returns the trained net and the loss
    trace [initial, after epoch 1, ..., after epoch `epochs`]. The run is fully
    deterministic: full batch, fixed accumulation order.
    """
    if not pairs:
        raise ValueError("empty training set")
    for clean, noisy in pairs:
        if clean.data.shape != noisy.data.shape:
            raise ValueError("clean/noisy shape mismatch")
        if noisy.channels != net.out_channels:
            raise ValueError("image channels do not match the network output")

    def batch_loss_only() -> float:
        total = 0.0
        for clean, noisy in pairs:
            out = forward(net, noisy)
            total += mse_loss(noisy.data + out.data, clean.data)[0]
        return total / len(pairs)

    def batch_pass() -> tuple[float, dict[tuple[int, str], np.ndarray]]:
        total = 0.0
        acc: dict[tuple[int, str], np.ndarray] = {}
        for clean, noisy in pairs:
            out, tape = forward_with_tape(net, noisy)
            loss, dpred = mse_loss(noisy.data + out.data, clean.data)
            total += loss
            for key, val in backward(tape, dpred).items():
                acc[key] = acc.get(key, 0.0) + val
        n = len(pairs)
        return total / n, {k: v / n for k, v in chain_grads(net.layers, acc).items()}

    trace: list[float] = []
    # a non-finite value is reported below as divergence, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for _ in range(epochs):
                loss, grads = batch_pass()
                trace.append(loss)
                if not np.isfinite(loss) or loss > DIVERGENCE_LIMIT:
                    raise TrainingDivergence(trace)
                opt.apply(net, grads)
            trace.append(batch_loss_only())
        except NonFiniteError:
            trace.append(float("nan"))
            raise TrainingDivergence(trace) from None
    if not np.isfinite(trace[-1]) or trace[-1] > DIVERGENCE_LIMIT:
        raise TrainingDivergence(trace)
    return net, trace
