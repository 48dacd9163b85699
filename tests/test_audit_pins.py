"""Pins of what the audit's numbers are built from: the sampled filter bases,
bilinearly rotated sweep images and the bound inputs of the default sweep nets."""

import hashlib

import numpy as np
import pytest

from rotprox.audit import SWEEP_RING_ORDERS, bound_inputs_for
from rotprox.cli import AUDIT_EQ_DEFAULTS, TRAIN_DEFAULTS
from rotprox.filters import basis_stack
from rotprox.grids import rotate_image
from rotprox.layers import _angle, make_denoiser_net, make_sweep_net
from rotprox.synthetic import ring_stack


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _sweep_rings():
    cfg = AUDIT_EQ_DEFAULTS
    return ring_stack(cfg["image_count"], cfg["image_size"], cfg["image_seed"], cfg["mesh"], orders=SWEEP_RING_ORDERS)


def _sweep_nets():
    cfg = AUDIT_EQ_DEFAULTS
    return [make_sweep_net(t, channels=cfg["channels"], seed=cfg["net_seed"]) for t in cfg["t_list"]]


def _basis_stacks():
    # every (basis, angle) the default sweep and denoiser nets sample, in a fixed order
    nets = [*_sweep_nets(), make_denoiser_net(t=TRAIN_DEFAULTS["t"], channels=TRAIN_DEFAULTS["channels"])]
    bases = sorted({layer.basis for net in nets for layer in net.conv_layers}, key=lambda b: (b.filter_size, b.cutoff))
    angles = sorted({_angle(o, net.group_order) for net in nets for o in range(net.group_order)})
    # + 0.0 maps -0.0 to +0.0: which zero taps carry a sign depends on how the
    # grid's centre coordinate rounds, and a zero's sign reaches no output
    return [basis_stack(b, theta) + 0.0 for b in bases for theta in angles]


def _rotated_rings():
    return [rotate_image(img, theta).data for theta in (0.3, -1.9, 2.6) for img in _sweep_rings()]


def _bound_inputs():
    rings = _sweep_rings()
    rows = []
    for net in _sweep_nets():
        b = bound_inputs_for(net, rings)
        rows.append([v for slices, fb in b.layers for v in (slices, fb.F, fb.G, fb.H)])
        rows.append([b.image.F, b.image.G, b.image.H, b.p, b.h, b.t, b.side])
    return rows


# SHA-256 of the float64 bytes, in order
PINNED = {
    "basis_stacks": (_basis_stacks, "d5657a01beae9f813a41b0e8aee5c5adbc178dd8514759b341e269b73222c9c9"),
    "rotated_rings": (_rotated_rings, "2171e5efae1363c8b062090baa37ae6e01bf99fef2f8bd0c0e105a5151208033"),
    "bound_inputs": (_bound_inputs, "c4d23a2fb4548b4c49b82595bd1749801f865bea6ec452a927fe467f07b1aa30"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_audit_inputs_are_pinned(name):
    make, expected = PINNED[name]
    assert _digest(make()) == expected
