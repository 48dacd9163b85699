"""Scalar arguments are checked in one place: ``grids._check_int`` and
``grids._check_real``.

Every integer argument rejects a bool, a float and a non-finite float; every
real argument rejects a bool, NaN, an infinity and an integer too large for a
float. Each rejection is a ValueError whose message starts with the argument's
name. No module but ``grids.py`` decides by ``isinstance`` whether a value is a
bool, a numpy integer or a number.
"""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rotprox import (
    Adam,
    BlurDownsample,
    FourierBasis,
    Identity,
    Lift,
    PlanarImage,
    SGD,
    degrade,
    gaussian_kernel,
    make_audit_net,
    make_denoiser_net,
    make_sweep_net,
    ring_stack,
    rotate_image,
    synthetic_image,
    synthetic_stack,
    train_denoiser,
    tv_prox,
)
from rotprox.audit import BoundInputs, RegularizerSpec, measure_equivariance, regularizer_rotation_table
from rotprox.filters import SmoothnessBounds

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rotprox"

BASIS = FourierBasis(3, 1)
ONES = SmoothnessBounds(1.0, 1.0, 1.0)
IMAGE = PlanarImage(np.ones((8, 8, 1)))


def bound_inputs(**fields):
    return BoundInputs(**{"layers": ((1, ONES),), "image": ONES, "p": 3, "h": 0.1, "t": 1, "side": 8, **fields})


# (id, the name the message starts with, a call that passes the value to that argument)
INTEGER_ARGUMENTS = [
    ("Lift.group_order", "group order", lambda v: Lift(v, BASIS, np.zeros((1, 1, BASIS.size)))),
    ("BoundInputs.slices", "slice count", lambda v: bound_inputs(layers=((v, ONES),))),
    ("BoundInputs.p", "filter size", lambda v: bound_inputs(p=v)),
    ("BoundInputs.t", "group order", lambda v: bound_inputs(t=v)),
    ("BoundInputs.side", "image side", lambda v: bound_inputs(side=v)),
    ("RegularizerSpec.crop", "crop", lambda v: RegularizerSpec("L1", crop=v)),
    ("regularizer_rotation_table.n_angles", "n_angles", lambda v: regularizer_rotation_table(IMAGE, n_angles=v)),
    ("FourierBasis.filter_size", "filter size", lambda v: FourierBasis(v, 0)),
    ("FourierBasis.cutoff", "cutoff", lambda v: FourierBasis(5, v)),
    ("BlurDownsample.scale", "scale", lambda v: BlurDownsample(np.ones((3, 3)), v)),
    ("gaussian_kernel.size", "kernel size", lambda v: gaussian_kernel(v, 1.0)),
    ("synthetic_stack.count", "image count", lambda v: synthetic_stack(v, 8, 0)),
    ("synthetic_image.size", "image_size", lambda v: synthetic_image(v, 0)),
    ("ring_stack.size", "image_size", lambda v: ring_stack(1, v, 0, 1.0, orders=[1])),
    ("make_denoiser_net.channels", "channels", lambda v: make_denoiser_net(channels=v)),
    ("make_sweep_net.channels", "channels", lambda v: make_sweep_net(4, channels=v)),
    ("make_audit_net.channels", "channels", lambda v: make_audit_net(4, channels=v)),
    ("make_audit_net.n_conv", "n_conv", lambda v: make_audit_net(4, n_conv=v)),
    (
        "measure_equivariance.angles",
        "angles",
        lambda v: measure_equivariance(make_audit_net(1, channels=1, n_conv=1), [IMAGE], angles=v),
    ),
    (
        "train_denoiser.epochs",
        "epochs",
        lambda v: train_denoiser(make_denoiser_net(t=1, channels=1, p=3, cutoff=1), [(IMAGE, IMAGE)], SGD(0.1), v),
    ),
]

REAL_ARGUMENTS = [
    ("BoundInputs.h", "mesh", lambda v: bound_inputs(h=v)),
    ("RegularizerSpec.epsilon", "epsilon", lambda v: RegularizerSpec("LapL0", epsilon=v)),
    ("gaussian_kernel.sigma", "kernel sigma", lambda v: gaussian_kernel(5, v)),
    ("degrade.noise_sigma", "noise_sigma", lambda v: degrade(Identity(), IMAGE, v, 0)),
    ("PlanarImage.mesh", "mesh", lambda v: PlanarImage(np.ones((2, 2, 1)), mesh=v)),
    ("SmoothnessBounds.F", "bound F", lambda v: SmoothnessBounds(v, 1.0, 1.0)),
    ("SGD.lr", "lr", SGD),
    ("Adam.lr", "lr", Adam),
    ("tv_prox.weight", "weight", lambda v: tv_prox(IMAGE, v)),
    ("rotate_image.theta", "rotation angle", lambda v: rotate_image(IMAGE, v)),
    (
        "measure_equivariance.listed_angle",
        "angles",
        lambda v: measure_equivariance(make_audit_net(1, channels=1, n_conv=1), [IMAGE], angles=[0.5, v]),
    ),
]

NOT_INTEGERS = {"bool": True, "float": 2.0, "nan": math.nan, "inf": math.inf}
NOT_FINITE_REALS = {"bool": True, "nan": math.nan, "inf": math.inf, "1e400-as-int": 10**400}


def _cases(arguments, values, kind):
    return [
        pytest.param(call, f"{re.escape(name)} must be {kind}", value, id=f"{arg}-{vid}")
        for arg, name, call in arguments
        for vid, value in values.items()
    ]


@pytest.mark.parametrize(
    "call, message, value",
    _cases(INTEGER_ARGUMENTS, NOT_INTEGERS, "an integer") + _cases(REAL_ARGUMENTS, NOT_FINITE_REALS, "a finite real"),
)
def test_argument_rejected_by_name(call, message, value):
    with pytest.raises(ValueError, match=f"^{message}"):
        call(value)


# what isinstance may not name outside grids.py: bool and numpy's bool and integer
# types, and (below) anything from the numbers module
_SCALAR_TYPES = {"bool", "np.bool_", "numpy.bool_", "np.integer", "numpy.integer"}
_NUMBERS_ABCS = {"Number", "Complex", "Real", "Rational", "Integral"}


def _scalar_type_decisions(tree: ast.AST) -> list[str]:
    """The isinstance calls under `tree` whose types include one that only
    grids.py may decide on."""
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
            continue
        names = {ast.unparse(n) for n in ast.walk(node.args[-1]) if isinstance(n, (ast.Name, ast.Attribute))}
        if any(n in _SCALAR_TYPES or n.startswith("numbers.") or n in _NUMBERS_ABCS for n in names):
            found.append(ast.unparse(node))
    return found


def test_detector_flags_hand_rolled_checks():
    # the group-order check that Lift once made by hand, and the helpers' own test
    assert len(_scalar_type_decisions(ast.parse("isinstance(t, bool) or isinstance(t, (int, np.integer))"))) == 2
    assert _scalar_type_decisions(ast.parse("isinstance(v, numbers.Real) and not isinstance(v, Integral)"))
    assert not _scalar_type_decisions(ast.parse("isinstance(doc, dict) or isinstance(angles, int)"))


def test_only_grids_decides_scalar_types():
    found = {
        path.name: _scalar_type_decisions(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "grids.py"
    }
    assert {name: calls for name, calls in found.items() if calls} == {}
    assert _scalar_type_decisions(ast.parse((PACKAGE / "grids.py").read_text(encoding="utf-8")))
