"""The benchmark's span tracer must find every function it wraps.

A target the tracer cannot find only prints `untraced target: ...` during a
benchmark run, and its per-layer metric then reads 0; this test fails instead.
"""

import importlib.util
import sys
from pathlib import Path

import rotprox

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_tracer_target_exists():
    spec = importlib.util.spec_from_file_location("rotprox_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through sys.modules
    try:
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        try:
            missing = tracer.install()
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[spec.name]
    assert rotprox.forward.__name__ == "forward"  # uninstall restored the originals
    assert missing == []
