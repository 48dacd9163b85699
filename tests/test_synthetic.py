"""Pins of the seeded synthetic images that every reported number starts from."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from rotprox.audit import SWEEP_RING_ORDERS
from rotprox.cli import AUDIT_EQ_DEFAULTS, AUDIT_REG_DEFAULTS, DENOISE_DEFAULTS, SR_DEFAULTS, TRAIN_DEFAULTS
from rotprox.synthetic import ring_stack, sample_field, synthetic_field, synthetic_image, synthetic_stack


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
