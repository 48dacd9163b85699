"""rotprox benchmark: three closed-loop workloads and a traced per-layer run.

Usage, from the repository root:

    python3 bench/run.py --workload audit-sweep|train|restore --seed N --seconds S --trace 0|1

The program under test is the rotprox source in ``src/`` next to this directory;
nothing is installed. The workload seed plays the role of the CLI ``seed`` field
(see workloads.py for each workload and why it exists). BLAS runs with at most
``nproc`` threads.

``--trace 0`` measures end-to-end metrics with tracing off. Times are in
calibrated seconds: each raw time is scaled by how much slower than nominal a
fixed reference computation ran around it (workloads.Calibrator), which removes
most of the shared host's machine-wide speed drift. Raw medians are printed too.

* ``setup_s``: what a run pays before its first op: the median time of a fresh
  interpreter importing rotprox and numpy, plus the median of five from-scratch
  set-ups (synthetic data, nets, EQCK write, warm-up);
* ``peak_rss_mib``: peak resident memory of the process;
* ``ops_per_s``: ops per second of a round that runs every op kind once, from
  per-kind median op times (audit pairs/s on audit-sweep, epochs/s on train,
  solves/s on restore);
* ``op_s_p50``: median op time; on a workload with several op kinds (the t
  values of audit-sweep, the solve kinds of restore) the geometric mean of the
  per-kind medians, so each kind weighs the same.

The lines before the result also give the workload's named figures
(``audit_pairs_per_s``, ``train_epochs_per_s``, ``tv_solve_s``, ...) with
sample counts, ``fail_ratio`` and the run metadata.

``--trace 1`` first runs untraced for half the time, then installs the tracer
(tracer.py), sets up again and runs traced for the other half. It reports the
per-layer metrics ``<module>.<function>.<stat>``: ``calls`` counts calls and
``s`` is total self time. ``audit.measure_equivariance.s.t<t>``,
``solver.ista_step.s_p50.<kind>`` and ``training.epoch.s_p50`` are inclusive
times. Kernel flops and patch-matrix sizes are computed from operand shapes.
``trace.overhead_pct`` compares the two halves' ``ops_per_s``. Spans are written
to ``.bench_out/spans-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("audit-sweep", "train", "restore")


def prepare_imports() -> None:
    """Cap BLAS threads at nproc and import rotprox from this checkout's src/."""
    if not (SRC / "rotprox" / "__init__.py").is_file():
        raise SystemExit(f"error: no rotprox package under {SRC}")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import rotprox

    if Path(rotprox.__file__).resolve().parent != SRC / "rotprox":
        raise SystemExit(f"error: imported rotprox from {rotprox.__file__}, not {SRC}")


def import_seconds() -> float:
    """Median calibrated time of a fresh interpreter that imports rotprox from src/."""
    from workloads import Calibrator

    probe = [sys.executable, "-B", "-c", "import sys; sys.path.insert(0, sys.argv[1]); import rotprox", str(SRC)]
    clock = Calibrator()
    for _ in range(SETUP_REPEATS):
        clock.run(lambda: subprocess.run(probe, check=True, cwd=ROOT))
    return statistics.median(clock.scaled(i) for i in range(SETUP_REPEATS))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def src_lines() -> int:
    """Nonblank lines under src/ that are not comment-only (ROADMAP's line count)."""
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        for line in path.read_text(encoding="utf-8").splitlines():
            stripped = line.strip()
            total += bool(stripped) and not stripped.startswith("#")
    return total


def metadata(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']} ({blas.get('openblas configuration', '')})"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "seed": seed,
        "src_lines": src_lines(),
    }


def basis_cache():
    """The filter-basis LRU cache, when this rotprox has one."""
    import rotprox.filters

    cached = getattr(rotprox.filters, "_basis_stack_cached", None)
    return cached if hasattr(cached, "cache_info") else None


def setup(workload, clock, tracer=None) -> None:
    """One from-scratch set-up with a cold basis cache, timed by `clock`."""
    cache = basis_cache()
    if cache is not None:
        cache.cache_clear()
    if tracer is None:
        clock.run(workload.setup)
        return
    tracer.active = True
    try:
        clock.run(tracer.wrap("bench.setup", workload.setup))
    finally:
        tracer.active = False


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result, import_s: float, setup_times: list[float]) -> dict:
    return {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "ops_per_s": (result.ops_per_s(), "1/s"),
        "op_s_p50": (result.op_s_p50(), "s"),
    }


def per_layer(stats, untraced, traced, cache_info, t_list) -> dict:
    import numpy as np

    from tracer import SpanStats

    def get(name) -> SpanStats:
        return stats.get(name, SpanStats())

    def durations(name, tag) -> list:
        return get(name).durations.get(tag, [])

    def pct(values, q) -> float:
        return float(np.percentile(values, q)) if values else 0.0

    conv = get("layers.correlate_stack")
    gflop = conv.counters.get("flop", 0) / 1e9
    tv = get("prox.tv_prox")
    op_s = sum(sum(v) for v in get("bench.op").durations.values())
    hits, misses = (cache_info.hits, cache_info.misses) if cache_info else (0, 0)
    m = {
        "layers.forward.calls": (get("layers.forward").calls, "count"),
        "layers.forward.s": (get("layers.forward").self_s, "s"),
        "layers.lift_conv.s": (get("layers.lift_conv").self_s, "s"),
        "layers.group_conv.s": (get("layers.group_conv").self_s, "s"),
        "layers.weights.s": (get("layers.weights").self_s, "s"),
        "layers.correlate_stack.calls": (conv.calls, "count"),
        "layers.correlate_stack.s": (conv.self_s, "s"),
        "layers.correlate_stack.gflop": (gflop, "GFLOP"),
        "layers.correlate_stack.gflops": (gflop / conv.self_s if conv.self_s else 0.0, "GFLOP/s"),
        "layers.correlate_stack.patch_mib_max": (conv.patch_bytes_max / 2**20, "MiB"),
        "layers.correlate_stack.op_share": (conv.op_self_s / op_s if op_s else 0.0, "ratio"),
        "filters.basis_stack.calls": (get("filters.basis_stack").calls, "count"),
        "filters.basis_stack.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "filters.image_bounds.s": (get("filters.image_bounds").self_s, "s"),
        "filters.bounds_from_coefficients.s": (get("filters.bounds_from_coefficients").self_s, "s"),
        "grids.rotate_image.calls": (get("grids.rotate_image").calls, "count"),
        "grids.rotate_image.s": (get("grids.rotate_image").self_s, "s"),
        "grids.relative_difference.s": (get("grids.relative_difference").self_s, "s"),
    }
    for t in t_list:
        m[f"audit.measure_equivariance.s.t{t}"] = (sum(durations("audit.measure_equivariance", t)), "s")
    m.update({
        "audit.bound_inputs_for.s": (get("audit.bound_inputs_for").self_s, "s"),
        "audit.pairs": (sum(len(v) for k, v in get("audit.measure_equivariance").durations.items() if k is not None), "count"),
        "prox.tv_prox.calls": (tv.calls, "count"),
        "prox.tv_prox.s": (tv.self_s, "s"),
        "prox.tv_prox.iters": (tv.counters.get("iters", 0), "count"),
        "prox.tv_prox.converged_ratio": (tv.counters.get("converged", 0) / tv.calls if tv.calls else 0.0, "ratio"),
        "prox.neural_prox.s": (get("prox.neural_prox").self_s, "s"),
        "prox.soft_threshold.s": (get("prox.soft_threshold").self_s, "s"),
        "solver.estimate_lipschitz.s": (get("solver.estimate_lipschitz").self_s, "s"),
        "solver.blur_downsample.calls": (get("solver.blur_downsample").calls, "count"),
        "solver.blur_downsample.s": (get("solver.blur_downsample").self_s, "s"),
    })
    for q in (50, 90):
        for kind in ("tv", "neural", "sr"):
            m[f"solver.ista_step.s_p{q}.{kind}"] = (pct(durations("solver.ista_step", kind), q), "s")
    epochs = durations("training.epoch", "epoch")
    m.update({
        "training.forward_with_tape.s": (get("training.forward_with_tape").self_s, "s"),
        "training.backward.s": (get("training.backward").self_s, "s"),
        "training.mse_loss.s": (get("training.mse_loss").self_s, "s"),
        "training.optimizer.s": (get("training.optimizer").self_s, "s"),
        "training.epoch.s_p50": (pct(epochs, 50), "s"),
        "training.epoch.s_p90": (pct(epochs, 90), "s"),
        "checkpoint.save.s": (get("checkpoint.save").self_s, "s"),
        "checkpoint.load.s": (get("checkpoint.load").self_s, "s"),
        "checkpoint.bytes": (get("checkpoint.save").counters.get("bytes", 0)
                             + get("checkpoint.load").counters.get("bytes", 0), "B"),
        "synthetic.s": (get("synthetic").self_s, "s"),
        "tensorio.write_eqt1.s": (get("tensorio.write_eqt1").self_s, "s"),
        "tensorio.bytes": (get("tensorio.write_eqt1").counters.get("bytes", 0), "B"),
        "bench.op.s": (op_s, "s"),
        "trace.ops_per_s.untraced": (untraced.ops_per_s(), "1/s"),
        "trace.ops_per_s.traced": (traced.ops_per_s(), "1/s"),
        "trace.overhead_pct": (
            100.0 * (untraced.ops_per_s() / traced.ops_per_s() - 1.0) if traced.ops_per_s() else 0.0, "%"),
    })
    return m


def run(workload_name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
        import_s: float = 0.0, overrides=None, tamper=None) -> dict:
    """Run one workload; returns the result object plus the report lines before it."""
    import tracer as tracing
    from rotprox import cli
    from workloads import WORKLOADS, Calibrator, measure

    workload = WORKLOADS[workload_name](seed, out_dir, **(overrides or {}))
    clock = Calibrator()
    for _ in range(SETUP_REPEATS):
        setup(workload, clock)
    setup_times = [clock.scaled(i) for i in range(SETUP_REPEATS)]
    lines = [f"set-up: import {import_s:.4f} s, set-ups " + " ".join(f"{t:.4f}" for t in setup_times)]
    if not trace:
        result = measure(workload, seconds, tamper=tamper)
        workload.end()
        problems = workload.finish()
        metrics = end_to_end(result, import_s, setup_times)
        runs = [result]
        for name, value, unit, n in workload.summary(result):
            lines.append(f"{name:<36} {value:12.6g} {unit:<9} n={n}")
        lines.append("raw op medians: " + " ".join(f"{k}={v:.4g}s" for k, v in result.medians(raw=True).items()))
    else:
        untraced = measure(workload, seconds / 2, tamper=tamper)
        tracer = tracing.Tracer()
        missing = tracer.install()
        try:
            setup(workload, clock, tracer)
            result = measure(workload, seconds / 2, tracer=tracer, tamper=tamper)
            tracer.active = True
            workload.end()
        finally:
            tracer.uninstall()
        cache = basis_cache()
        problems = workload.finish()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload_name}-seed{seed}.json")
        t_list = [int(t) for t in cli.AUDIT_EQ_DEFAULTS["t_list"]]
        metrics = per_layer(tracing.summarize(tracer.spans), untraced, result,
                            cache.cache_info() if cache else None, t_list)
        runs = [untraced, result]
        lines += [f"untraced target: {name}" for name in missing]
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    lines.append(f"{'fail_ratio':<36} {failed / max(attempted, 1):12.6g} {'ratio':<9} {failed}/{attempted}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:<36} {value:12.6g} {unit}")
    lines += [f"problem: {p}" for r in runs for p in r.errors[:10]] + [f"problem: {p}" for p in problems]
    return {
        "lines": lines,
        "result": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    prepare_imports()
    import_s = import_seconds()
    print(f"rotprox benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(metadata(args.seed)))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp), import_s)
    print("\n".join(report["lines"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
