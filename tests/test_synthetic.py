"""Pins of the seeded synthetic images that every reported number starts from."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from rotprox.audit import SWEEP_RING_ORDERS
from rotprox.cli import AUDIT_EQ_DEFAULTS, AUDIT_REG_DEFAULTS, DENOISE_DEFAULTS, SR_DEFAULTS, TRAIN_DEFAULTS
from rotprox import synthetic
from rotprox.filters import quintic_falloff
from rotprox.grids import centered_grid
from rotprox.synthetic import (
    GaborField,
    RingField,
    ring_field,
    ring_stack,
    sample_field,
    synthetic_field,
    synthetic_image,
    synthetic_stack,
)
from support import full_grid_field


def _digest(images) -> str:
    h = hashlib.sha256()
    for img in images:
        h.update(img.data.tobytes())
    return h.hexdigest()


def _default_image(cfg):
    return [synthetic_image(cfg["image_size"], cfg["seed"], mesh=cfg["mesh"])]


def _train_stack():
    cfg = TRAIN_DEFAULTS
    data_seed = int(np.random.default_rng(cfg["seed"]).integers(2**31, size=3)[0])  # as in cmd_train
    return synthetic_stack(cfg["image_count"], cfg["image_size"], data_seed, mesh=cfg["mesh"])


def _sweep_rings():
    cfg = AUDIT_EQ_DEFAULTS
    return ring_stack(cfg["image_count"], cfg["image_size"], cfg["image_seed"], cfg["mesh"], orders=SWEEP_RING_ORDERS)


def _refinement_fields():
    # refinement_errors() defaults: 3 four-patch fields of radius 32 * 0.25 / 2,
    # sampled at p = 5, 9, 17, i.e. 32, 64, 128 pixels at meshes 0.25, 0.125, 0.0625
    fields = [synthetic_field(s, 4.0, n_patches=4) for s in np.random.SeedSequence(0).spawn(3)]
    return [sample_field(f, 32 * k, 32 * k, 0.25 / k) for k in (1, 2, 4) for f in fields]


# SHA-256 of the image bytes, in order (denoise and sr share their image defaults)
PINNED = {
    "denoise": (lambda: _default_image(DENOISE_DEFAULTS),
                "429ebc9a17085c45d8ef08244fb543f6037332f9bb4399dbc1a580428f8b6072"),
    "sr": (lambda: _default_image(SR_DEFAULTS),
           "429ebc9a17085c45d8ef08244fb543f6037332f9bb4399dbc1a580428f8b6072"),
    "audit_regularizers": (lambda: _default_image(AUDIT_REG_DEFAULTS),
                           "177f93c8265db9b73a5505aa99ed807fe38823cef464b791ddbcff21abc29edd"),
    "train": (_train_stack, "780af3f21f822efec43ea1087d6c013845a3105b28ab6093229f3a70107f80ee"),
    "sweep_rings": (_sweep_rings, "5891f12ec48d3e54b007f303a61ee179e7aaa768704dc9b210450d670699cf67"),
    "refinement_fields": (_refinement_fields,
                          "d838c94770d4c6105b325d27f6d93b31f3d112e741c8630ef08c0bbc6324470d"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_default_images_are_pinned(name):
    make, expected = PINNED[name]
    assert _digest(make()) == expected


@pytest.mark.parametrize("value", [0.0, -2.0, math.inf, math.nan])
def test_domain_radius_must_be_positive_and_finite(value):
    # both field kinds reject the radius before evaluating anything, so no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="domain radius"):
            synthetic_field(0, value)
        with pytest.raises(ValueError, match="domain radius"):
            ring_stack(1, 8, 0, value, orders=SWEEP_RING_ORDERS)  # radius 4 * mesh


def test_image_size_beyond_float_range_named():
    # rejected before `size * mesh` would raise OverflowError
    with pytest.raises(ValueError, match="^image_size must be a finite real number"):
        synthetic_image(10**400, 0)
    with pytest.raises(ValueError, match="^image_size must be a finite real number"):
        ring_stack(1, 10**400, 0, 1.0, orders=SWEEP_RING_ORDERS)


RADIUS = 16.0
FIELDS = {
    "gabor": lambda: synthetic_field(3, RADIUS),
    "ring": lambda: ring_field(np.random.SeedSequence(3), RADIUS, np.asarray(SWEEP_RING_ORDERS)),
}


def _straddling_points():
    # radii within 2000 ulps either side of the outer radius: the taper rounds to
    # exactly 0 slightly inside it, and to tiny negatives just inside that
    r = synthetic._DISK_OUTER * RADIUS * (1.0 + np.arange(-2000, 2001) * 2.0**-52)
    phi = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)[:, None]
    return r * np.cos(phi), r * np.sin(phi)


def _broadcast_axes():
    probe = np.linspace(-RADIUS, RADIUS, 257)
    return probe[None, :], probe[:40, None]


POINTS = {
    "full_grid": lambda: centered_grid(37, 32, 1.0),
    "broadcast_axes": _broadcast_axes,
    "straddling_outer_radius": _straddling_points,
}


@pytest.mark.parametrize("points", sorted(POINTS))
@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_field_matches_full_grid_oracle(kind, points):
    # inside the disk every sample is the full-grid evaluation bit for bit; outside
    # it is +0.0 where the full grid reads terms * 0.0 of either sign
    field = FIELDS[kind]()
    x, y = POINTS[points]()
    taper = quintic_falloff(np.hypot(x, y), synthetic._DISK_INNER * RADIUS, synthetic._DISK_OUTER * RADIUS)
    outside = taper == 0.0
    assert outside.any() and not outside.all()
    got = field(x, y)
    assert got.tobytes() == np.where(outside, 0.0, full_grid_field(field, x, y)).tobytes()
    assert not np.signbit(got[outside]).any()


@pytest.mark.parametrize("cls, normalize", [
    (GaborField, lambda: synthetic_field(0, RADIUS)),
    (RingField, lambda: ring_field(np.random.SeedSequence(0), RADIUS, np.asarray(SWEEP_RING_ORDERS))),
], ids=["gabor", "ring"])
def test_normalization_skips_the_terms_outside_the_disk(monkeypatch, cls, normalize):
    # the disk of radius 0.92 R covers 66.5% of the 257 x 257 probe square; evaluating
    # the terms on the whole square would hand them 257**2 points
    received = []
    terms = cls._terms

    def counting(self, x, y, r):
        received.append(r.size)
        return terms(self, x, y, r)

    monkeypatch.setattr(cls, "_terms", counting)
    normalize()
    assert 0 < sum(received) <= 0.70 * 257**2


@pytest.mark.parametrize("orders", [(), (0, 3), (-3, 6), (3.5,), (3, 6.0), (True,), [[3, 6]], "36"],
                         ids=["empty", "zero", "negative", "fraction", "float", "bool", "nested", "string"])
def test_ring_orders_must_be_positive_integers(monkeypatch, orders):
    def evaluated(*args):
        raise AssertionError("a ring field was drawn")

    monkeypatch.setattr(synthetic, "ring_field", evaluated)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="orders"):
            ring_stack(1, 8, 0, 1.0, orders=orders)
