"""Self-test of the benchmark: every workload at a tiny size, in one process.

Checks that a clean run is correct with no failed op, that every metric named
in BENCHMARK.json is printed with its unit (end-to-end metrics untraced,
per-layer metrics traced), that each workload prints its named figures and
fail_ratio, and that a deliberately wrong op output is counted as a failed op.

    python3 bench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run

TINY = {
    "audit-sweep": {"t_list": [1, 4], "image_count": 1, "image_size": 32, "angles": 3},
    "train": {"image_count": 4, "image_size": 16, "t": 2, "channels": 2},
    "restore": {
        "denoise": {"image_size": 16, "steps": 3},
        "sr": {"image_size": 16, "steps": 5},
        "prox": {"max_iter": 20},
    },
}
NAMED = {
    "audit-sweep": ["audit_pairs_per_s", "audit_pair_s.t1", "audit_pair_s.t4"],
    "train": ["train_epochs_per_s"],
    "restore": ["tv_solve_s", "neural_solve_s", "sr_solve_s"],
}
SECONDS = 1.0


def corrupt(output):
    """A wrong version of an op output of any workload."""
    import rotprox

    if isinstance(output, rotprox.EquivarianceReport):
        theta, _ = output.errors[0]
        return dataclasses.replace(output, errors=((theta, float("nan")),))
    if isinstance(output, rotprox.PlanarImage):
        return rotprox.PlanarImage(output.data + 1.0, mesh=output.mesh)
    return [float("nan")] * len(output)


def tamper_second(first_kind):
    """Corrupts the second op of `first_kind` and nothing else."""
    seen = []

    def tamper(kind, output):
        if kind == first_kind:
            seen.append(kind)
            if len(seen) == 2:
                return corrupt(output)
        return output

    return tamper


def main() -> int:
    run.prepare_imports()
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for name, overrides in TINY.items():
        first_kind = WORKLOADS[name](0, Path("."), **overrides).schedule[0]
        for trace in (0, 1):
            with tempfile.TemporaryDirectory() as tmp:
                report = run.run(name, 0, SECONDS, bool(trace), Path(tmp), overrides=overrides)
                bad = run.run(name, 0, SECONDS, bool(trace), Path(tmp), overrides=overrides,
                              tamper=tamper_second(first_kind))
            result, lines = report["result"], report["lines"]
            label = f"{name} trace={trace}"
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: clean run not correct: {lines}")
            for metric in wanted[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: metric {metric['name']} [{metric['unit']}] printed as {got}")
            figures = ["fail_ratio"] + (NAMED[name] if not trace else [])
            for figure in figures:
                if not any(line.split()[0] == figure for line in lines):
                    problems.append(f"{label}: figure {figure} not printed")
            if bad["result"]["failed"] != 1 or bad["result"]["correct"]:
                problems.append(f"{label}: wrong output not counted once: {bad['result']}")
            print(f"{label}: {result['attempted']} ops, tampered run failed {bad['result']['failed']}")
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
