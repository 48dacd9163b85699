"""The benchmark's span tracer must find every function it wraps.

A target the tracer cannot find only prints `untraced target: ...` during a
benchmark run, and its per-layer metric then reads 0; these tests fail instead.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import rotprox
import rotprox.training

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture
def tracer():
    """An installed tracer, uninstalled afterwards, and the targets it lacks."""
    spec = importlib.util.spec_from_file_location("rotprox_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        try:
            yield tracer, tracer.install()
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[spec.name]
    assert rotprox.forward.__name__ == "forward"  # uninstall restored the originals


def test_every_tracer_target_exists(tracer):
    _, missing = tracer
    assert missing == []


@pytest.mark.parametrize("taped", [False, True])
def test_layer_calls_are_traced(tracer, taped):
    # each conv call must reach the patched module globals, not a name bound
    # before the tracer ran
    tracer, _ = tracer
    net = rotprox.make_audit_net(2, channels=2, n_conv=2, p=3, cutoff=1)
    x = rotprox.synthetic_image(8, 0)
    tracer.active = True
    rotprox.training.forward_with_tape(net, x) if taped else rotprox.forward(net, x)
    tracer.active = False
    names = {span[0] for span in tracer.spans}
    assert {"layers.lift_conv", "layers.group_conv", "layers.correlate_stack"} <= names
    assert ("training.forward_with_tape" if taped else "layers.forward") in names
