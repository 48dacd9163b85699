"""The benchmark's three closed-loop workloads.

Each workload runs in one process with one caller issuing ops back to back. Its
configuration comes from the CLI's documented defaults (``rotprox.cli.*_DEFAULTS``)
with the workload seed in the role of the config ``seed``, and each op calls the
public rotprox functions the matching CLI command calls. A workload has:

* ``schedule``: the op kinds of one round, issued cyclically;
* ``setup()``: builds every input from the seed, including any warm-up; it can
  run several times, each time from scratch;
* ``op(kind)``: one timed op, returning its output;
* ``check(kind, output)``: the per-op correctness check, never timed;
* ``end()``: untimed work the CLI does once at the end of a run;
* ``finish()``: run-level checks, returning a list of problems.
"""

from __future__ import annotations

import math
import time
from pathlib import Path

import numpy as np

import rotprox
from rotprox import cli
from rotprox.audit import SWEEP_RING_ORDERS


def _warm_net(net, image) -> None:
    # A forward on a small crop fills the filter-basis cache for every angle
    # the net samples, so the timed ops start from the steady state.
    crop = image.data[:16, :16]
    rotprox.forward(net, rotprox.PlanarImage(crop, mesh=image.mesh))


class AuditSweep:
    """``audit-equivariance`` at its defaults: make_sweep_net nets over the default t list,
    ring images, p=5 lift then p=9 group convs, the theorem-1 bound per t.

    Why: forward-only convolution at the largest working set. The im2col patch
    matrix of the t=24 group conv is ~764 MB, so the conv kernel's memory traffic
    and peak memory show here. There is no backward pass and no prox.

    One op audits one (image, angle) pair at one t: a measure_equivariance call on
    that pair, which rotates, runs the reference and the rotated forward, and
    compares. (The CLI amortises the reference forward over 10 angles per image.)
    A round is one pair at every t; each t walks the CLI's pair list in order.
    """

    name = "audit-sweep"
    reference = "memory"

    def __init__(self, seed: int, out_dir: Path, **overrides):
        self.cfg = {**cli.AUDIT_EQ_DEFAULTS, "seed": seed, **overrides}
        self.schedule = [int(t) for t in self.cfg["t_list"]]

    def setup(self) -> None:
        cfg = self.cfg
        self.images = rotprox.ring_stack(
            cfg["image_count"], cfg["image_size"], cfg["image_seed"], cfg["mesh"], orders=SWEEP_RING_ORDERS
        )
        # measure_equivariance draws `angles` uniform angles in (-pi, pi] per image
        # from default_rng(seed), in image order.
        rng = np.random.default_rng(cfg["seed"])
        self.pairs = [
            (i, float(theta))
            for i in range(len(self.images))
            for theta in np.pi * (1.0 - 2.0 * rng.random(cfg["angles"]))
        ]
        self.nets, self.bounds = {}, {}
        for t in self.schedule:
            net = rotprox.make_sweep_net(t, channels=cfg["channels"], seed=cfg["net_seed"])
            self.nets[t] = net
            self.bounds[t] = rotprox.bound_inputs_for(net, self.images)
            _warm_net(net, self.images[0])
        self.done = {t: 0 for t in self.schedule}
        self.errors = {t: [] for t in self.schedule}

    def op(self, t: int):
        image_index, theta = self.pairs[self.done[t] % len(self.pairs)]
        self.done[t] += 1
        return rotprox.measure_equivariance(
            self.nets[t], [self.images[image_index]], angles=[theta],
            seed=self.cfg["seed"], bound_inputs=self.bounds[t],
        )

    def check(self, t: int, report) -> bool:
        # The CLI's per-pair gate: a finite error at or below the theorem-1 bound.
        error = report.errors[0][1]
        self.errors[t].append(error)
        return math.isfinite(error) and report.bound is not None and error <= report.bound

    def end(self) -> None:
        pass

    def summary(self, result) -> list[tuple]:
        med, samples = result.medians(), result.samples
        rows = [("audit_pairs_per_s", result.ops_per_s(), "pairs/s", sum(map(len, samples.values())))]
        return rows + [(f"audit_pair_s.t{t}", med[t], "s", len(samples[t])) for t in med]

    def finish(self) -> list[str]:
        # The CLI's sweep gate: per-t mean errors strictly decrease with t. Each
        # mean is over the pairs this run audited at that t, a prefix of the CLI's
        # pair list. Single pairs can invert neighbouring t (t=8 vs t=12 differ by
        # ~1e-4 on some angles), so the gate, like the CLI's, is on means.
        if not all(self.errors.values()):
            return ["some group order audited no pair"]
        means = [float(np.mean(self.errors[t])) for t in sorted(self.errors)]
        if not all(b < a for a, b in zip(means, means[1:])):
            return [f"per-t mean errors do not strictly decrease: {means}"]
        return []


class Train:
    """``train`` at its defaults: 32 pairs at 32x32, t=4, c=4, Adam lr 1e-3, full batch.

    Why: the same conv layers at small, cache-resident shapes, with backward
    ~60% of an epoch. Covers training and checkpoint writes; no rotation, no prox.

    One op is one epoch: a train_denoiser call for one epoch that continues from
    the previous op's weights and optimizer state. (train_denoiser ends every
    call with a loss-only forward pass, so each op includes one.) The run ends
    with the CLI's EQCK save.
    """

    name = "train"
    reference = "interpreter"
    schedule = ["epoch"]

    def __init__(self, seed: int, out_dir: Path, **overrides):
        self.cfg = {**cli.TRAIN_DEFAULTS, "seed": seed, **overrides}
        self.out_dir = out_dir

    def setup(self) -> None:
        cfg = self.cfg
        root = np.random.default_rng(cfg["seed"])
        data_seed, net_seed, noise_base = (int(s) for s in root.integers(2**31, size=3))
        clean = rotprox.synthetic_stack(cfg["image_count"], cfg["image_size"], data_seed, mesh=cfg["mesh"])
        self.pairs = [
            (c, rotprox.degrade(rotprox.Identity(), c, cfg["sigma"], noise_base + i))
            for i, c in enumerate(clean)
        ]
        self.net = rotprox.init_network(
            rotprox.make_denoiser_net(t=cfg["t"], channels=cfg["channels"]), net_seed
        )
        self.opt = rotprox.Adam(cfg["lr"]) if cfg["optimizer"] == "adam" else rotprox.SGD(cfg["lr"])
        _warm_net(self.net, self.pairs[0][1])
        self.losses: list[float] = []
        self.checkpoint = None

    def op(self, kind: str):
        _, trace = rotprox.train_denoiser(self.net, self.pairs, self.opt, 1)
        return trace

    def check(self, kind: str, trace) -> bool:
        self.losses.extend(trace)
        return len(trace) == 2 and all(math.isfinite(v) for v in trace)

    def end(self) -> None:
        self.checkpoint = rotprox.save_checkpoint(self.net, self.out_dir / "checkpoint.eqck")

    def summary(self, result) -> list[tuple]:
        return [("train_epochs_per_s", result.ops_per_s(), "epochs/s", len(result.samples["epoch"]))]

    def finish(self) -> list[str]:
        problems = []
        if not self.losses or not self.losses[-1] < self.losses[0]:
            problems.append(f"loss did not fall: first {self.losses[:1]}, last {self.losses[-1:]}")
        if self.checkpoint is not None:
            x = self.pairs[0][1]
            reloaded = rotprox.load_checkpoint(self.checkpoint)
            if rotprox.forward(reloaded, x).data.tobytes() != rotprox.forward(self.net, x).data.tobytes():
                problems.append("reloaded checkpoint does not reproduce the trained forward bit for bit")
        return problems


class Restore:
    """``denoise`` and ``sr`` at their 64x64 defaults, mixing three solve kinds:

    * ``tv``: TV-prox denoise, 100 ISTA steps. Why: no convolution at all, the
      bypass case for conv-kernel changes; every prox call runs to max_iter.
    * ``neural``: neural-prox denoise, 100 steps, with a seeded
      make_denoiser_net(t=4, channels=4) whose conv layers are all initialised.
      It is written to EQCK in set-up and loaded per solve, as the CLI does.
      Why: a small conv forward 100 times, rebuilding weights on every call, and
      checkpoint reads.
    * ``sr``: blur-downsample s=2 with soft threshold, 200 steps. Why: the solver
      operators and the Lipschitz estimate.

    One op is one solve, ending with the CLI's EQT1 write. A round has one tv,
    two neural and eight sr solves, so the fast kinds get enough samples.
    """

    name = "restore"
    reference = "interpreter"
    schedule = ["tv", "neural", "sr", "sr", "sr", "sr", "neural", "sr", "sr", "sr", "sr"]

    def __init__(self, seed: int, out_dir: Path, denoise=None, sr=None, prox=None):
        self.out_dir = out_dir
        self.denoise = {**cli.DENOISE_DEFAULTS, "seed": seed, **(denoise or {})}
        self.sr = {**cli.SR_DEFAULTS, "seed": seed, **(sr or {})}
        self.prox = {**cli.PROX_DEFAULTS, **(prox or {})}
        self.net_cfg = cli.TRAIN_DEFAULTS

    def setup(self) -> None:
        d, s = self.denoise, self.sr
        self.truth = rotprox.synthetic_image(d["image_size"], d["seed"], mesh=d["mesh"])
        self.noisy = rotprox.degrade(rotprox.Identity(), self.truth, d["sigma"], d["seed"])
        self.blur = rotprox.BlurDownsample(
            rotprox.gaussian_kernel(s["kernel"]["size"], s["kernel"]["sigma"]), s["scale"]
        )
        sr_truth = rotprox.synthetic_image(s["image_size"], s["seed"], mesh=s["mesh"])
        self.low = rotprox.degrade(self.blur, sr_truth, s["sigma"], s["seed"])
        # The denoiser `rotprox train` would start from at this seed.
        net_seed = int(np.random.default_rng(d["seed"]).integers(2**31, size=3)[1])
        net = rotprox.init_network(
            rotprox.make_denoiser_net(t=self.net_cfg["t"], channels=self.net_cfg["channels"]), net_seed
        )
        self.checkpoint = rotprox.save_checkpoint(net, self.out_dir / "denoiser.eqck")
        for kind in ("tv", "neural", "sr"):
            self._solve(kind, steps=1)
        self.first_output: dict[str, bytes] = {}

    def _solve(self, kind: str, steps: int | None = None):
        p = self.prox
        if kind == "sr":
            cfg, y, op = self.sr, self.low, self.blur
            prox = rotprox.SoftThreshold(p["weight"])
        else:
            cfg, y, op = self.denoise, self.noisy, rotprox.Identity()
            if kind == "tv":
                prox = rotprox.TVProx(p["weight"], tol=p["tol"], max_iter=p["max_iter"])
            else:
                prox = rotprox.NeuralProx(rotprox.load_checkpoint(self.checkpoint))
        run = rotprox.UnfoldingConfig(
            steps=cfg["steps"] if steps is None else steps, step_size=cfg["step_size"], prox=prox
        )
        xhat, _ = rotprox.ista_solve(y, op, run)
        return xhat

    def op(self, kind: str):
        xhat = self._solve(kind)
        rotprox.write_eqt1(self.out_dir / f"{kind}.eqt1", xhat.data)
        return xhat

    def check(self, kind: str, xhat) -> bool:
        if not np.all(np.isfinite(xhat.data)):
            return False
        if kind in self.first_output:
            return xhat.data.tobytes() == self.first_output[kind]
        self.first_output[kind] = xhat.data.tobytes()
        if kind == "tv":
            return rotprox.psnr(xhat, self.truth) > rotprox.psnr(self.noisy, self.truth)
        if kind == "sr":
            return self._sr_objective(xhat) < self._sr_objective(self.blur.adjoint(self.low))
        return True

    def _sr_objective(self, x) -> float:
        # ista_solve's objective: 1/2 ||Ax - y||^2 + (w / eta) ||x||_1 with eta = 1/L.
        lip = rotprox.estimate_lipschitz(self.blur, self.low)
        fit = 0.5 * float(np.sum((self.blur.apply(x).data - self.low.data) ** 2))
        return fit + self.prox["weight"] * lip * float(np.sum(np.abs(x.data)))

    def end(self) -> None:
        pass

    def summary(self, result) -> list[tuple]:
        med = result.medians()
        return [(f"{kind}_solve_s", med[kind], "s", len(result.samples[kind])) for kind in med]

    def finish(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (AuditSweep, Train, Restore)}


# The host is shared: other tenants slow every core by up to ~2x for seconds
# to minutes, so raw op times of runs a few minutes apart spread by 20-25%.
# A fixed reference computation is therefore timed between timed calls, and
# each call is scaled by the reference's nominal time over the median reference
# time within CALIBRATION_WINDOW_S (or the call's own length, if longer) of the
# call's midpoint. That gives seconds at the host's nominal speed; rotprox code
# never runs inside a reference, so program changes move only the call times.
# The reference has to load the machine the way the calls do: "interpreter"
# (many numpy calls on a 64x64 array plus small GEMMs) tracks the Python-bound
# solves, epochs and set-ups; "memory" (copies of a 32 MB array) tracks the
# audit's large im2col convolutions, which the interpreter reference does not.
# Nominal times: unloaded 2-vCPU Xeon VM (2.0 GHz), OpenBLAS with 2 threads.
REFERENCE_NOMINAL_S = {"interpreter": 0.012, "memory": 0.015}
CALIBRATION_WINDOW_S = 3.0


class Calibrator:
    """Times calls with a reference computation run between them."""

    def __init__(self, reference: str = "interpreter"):
        rng = np.random.default_rng(0)
        self.nominal = REFERENCE_NOMINAL_S[reference]
        self._work = self._memory if reference == "memory" else self._interpreter
        self.image = rng.random((64, 64))
        self.matrix = rng.random((192, 192))
        self.block = rng.random(4_000_000) if reference == "memory" else None
        self.refs: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.calls: list[tuple[float, float]] = []  # (midpoint, raw seconds)

    def _interpreter(self) -> None:
        x = self.image
        for _ in range(1000):
            x = np.clip(x * 0.999 + 0.001, -1.0, 1.0)
        for _ in range(10):
            self.matrix @ self.matrix

    def _memory(self) -> None:
        for _ in range(3):
            self.block.copy()

    def _reference(self) -> None:
        start = time.perf_counter()
        self._work()
        end = time.perf_counter()
        self.refs.append((0.5 * (start + end), end - start))

    def run(self, fn):
        """Call fn() and record its time as call number len(calls) - 1."""
        if not self.refs:
            self._reference()
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.calls.append((0.5 * (start + end), end - start))
            self._reference()

    def raw(self, index: int) -> float:
        return self.calls[index][1]

    def scaled(self, index: int) -> float:
        mid, raw = self.calls[index]
        reach = max(CALIBRATION_WINDOW_S, raw)
        near = [r for t, r in self.refs if abs(t - mid) <= reach]
        return raw * self.nominal / float(np.median(near))


class RunResult:
    """Per-kind op times, calibrated and raw, plus attempted/failed counts."""

    def __init__(self, kinds):
        self.samples = {kind: [] for kind in kinds}  # calibrated seconds
        self.raw = {kind: [] for kind in kinds}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def medians(self, raw: bool = False) -> dict:
        return {k: float(np.median(v)) for k, v in (self.raw if raw else self.samples).items() if v}

    def ops_per_s(self) -> float:
        """Ops per second of one round that runs every kind once, from per-kind medians."""
        med = self.medians()
        return len(med) / sum(med.values()) if med else 0.0

    def op_s_p50(self) -> float:
        """Median op time; with several kinds, the geometric mean of their medians."""
        med = self.medians()
        return math.exp(sum(math.log(v) for v in med.values()) / len(med)) if med else 0.0


def measure(workload, seconds: float, tracer=None, tamper=None) -> RunResult:
    """Issue ops back to back for `seconds`, then return their durations.

    Ops follow the round schedule cyclically. An op whose kind last took longer
    than the time left is skipped in favour of the next kind that fits, and the
    run stops when none fits; a kind not yet run is assumed to fit. An op that
    raises counts as failed, and so does one whose output fails its check.
    `tamper(kind, output)` may replace an output before its check (self-test only).
    """
    schedule = workload.schedule
    result = RunResult(list(dict.fromkeys(schedule)))
    clock = Calibrator(workload.reference)
    run_op = workload.op if tracer is None else tracer.wrap("bench.op", workload.op)
    timed: list[str | None] = []  # kind of each op by call index; None if it raised
    last: dict = {}
    cursor = 0
    deadline = time.perf_counter() + seconds
    while True:
        now = time.perf_counter()
        offset = next(
            (k for k in range(len(schedule))
             if now + last.get(schedule[(cursor + k) % len(schedule)], 0.0) <= deadline),
            None,
        )
        if offset is None:
            break
        kind = schedule[(cursor + offset) % len(schedule)]
        cursor = (cursor + offset + 1) % len(schedule)
        result.attempted += 1
        if tracer is not None:
            tracer.tag, tracer.active = kind, True
        try:
            output = clock.run(lambda: run_op(kind))
        except Exception as exc:  # a raising op is a failed op; the run goes on
            timed.append(None)
            result.failed += 1
            result.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            continue
        finally:
            last[kind] = clock.raw(-1)
            if tracer is not None:
                tracer.tag, tracer.active = None, False
        timed.append(kind)
        if tamper is not None:
            output = tamper(kind, output)
        if not workload.check(kind, output):
            result.failed += 1
            result.errors.append(f"{kind}: output failed its check")
    for index, kind in enumerate(timed):
        if kind is not None:
            result.samples[kind].append(clock.scaled(index))
            result.raw[kind].append(clock.raw(index))
    return result
