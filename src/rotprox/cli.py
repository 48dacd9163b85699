"""Command-line front end: equivariance audits, restoration runs, training.

Every subcommand reads an optional JSON config in which every field has a
default and unknown keys are rejected, so a config diff is always meaningful; a
value whose JSON type does not match its default's is rejected too.
A single seed (config "seed", overridable with --seed) governs all random
draws in a run. Exit codes: 0 pass, 1 check failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .audit import (
    REGULARIZER_KINDS,
    SWEEP_GROUP_ORDERS,
    emit_regularizer_report,
    emit_report,
    order_sweep,
    regularizer_rotation_table,
    relative_spread,
)
from .checkpoint import load as load_checkpoint
from .checkpoint import save as save_checkpoint
from .grids import PlanarImage
from .layers import init_network, make_denoiser_net
from .prox import NeuralProx, SoftThreshold, TVProx
from .solver import (
    BlurDownsample,
    Identity,
    SolverDivergence,
    UnfoldingConfig,
    degrade,
    gaussian_kernel,
    ista_solve,
    psnr,
)
from .synthetic import synthetic_image, synthetic_stack
from .tensorio import read_eqt1, read_pgm, write_eqt1, write_pgm
from .training import SGD, Adam, TrainingDivergence, train_denoiser


class ConfigError(ValueError):
    """Invalid config document or option combination (exit code 2)."""


AUDIT_EQ_DEFAULTS = {
    "seed": 0,
    "t_list": list(SWEEP_GROUP_ORDERS),
    "angles": 10,
    "image_count": 2,
    "image_size": 128,
    "mesh": 1.0 / 6.0,
    "channels": 3,
    "net_seed": 5,
    "image_seed": 5,
}

AUDIT_REG_DEFAULTS = {
    "seed": 0,
    "image": None,
    "image_size": 64,
    "mesh": 1.0 / 3.0,
    "n_angles": 8,
    "epsilon": 0.01,
    "crop": 1,
    "threshold": 0.05,
}

PROX_DEFAULTS = {
    "kind": "soft_threshold",
    "weight": 0.1,
    "tol": 1e-8,
    "max_iter": 500,
    "checkpoint": None,
}

DENOISE_DEFAULTS = {
    "seed": 0,
    "input": None,
    "image_size": 64,
    "mesh": 1.0,
    "sigma": 25.0 / 255.0,
    "steps": 100,
    "step_size": None,
    "prox": PROX_DEFAULTS,
    "ground_truth": None,
    "format": "auto",
}

SR_DEFAULTS = {
    "seed": 0,
    "input": None,
    "image_size": 64,
    "mesh": 1.0,
    "sigma": 0.0,
    "scale": 2,
    "kernel": {"size": 5, "sigma": 1.0},
    "steps": 200,
    "step_size": None,
    "prox": PROX_DEFAULTS,
    "ground_truth": None,
    "format": "auto",
}

TRAIN_DEFAULTS = {
    "seed": 0,
    "epochs": 200,
    "lr": 1e-3,
    "optimizer": "adam",
    "image_count": 32,
    "image_size": 32,
    "mesh": 1.0,
    "sigma": 25.0 / 255.0,
    "t": 4,
    "channels": 4,
}


# JSON types a field admits, by the type of its default
_ADMITS = {bool: (bool,), int: (int,), float: (int, float), str: (str,), list: (list,), dict: (dict,),
           type(None): (type(None),)}
# fields with a second accepted form: audit angles are a count or a list of angles,
# and a null default stands for an unset path or step size
_ALSO_ADMITS = {"angles": (list,), "step_size": (int, float),
                **dict.fromkeys(("input", "ground_truth", "image", "checkpoint"), (str,))}


def _load_config(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return doc


def _merge(defaults: dict, given: dict, context: str) -> dict:
    if not isinstance(given, dict):
        raise ConfigError(f"{context}: expected an object, got {type(given).__name__}")
    unknown = set(given) - set(defaults)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    cfg = {}
    for key, dv in defaults.items():
        if key not in given:
            cfg[key] = dict(dv) if isinstance(dv, dict) else dv
            continue
        value = given[key]
        admits = _ADMITS[type(dv)] + _ALSO_ADMITS.get(key, ())
        if type(value) not in admits:
            names = " or ".join("null" if t is type(None) else t.__name__ for t in admits)
            raise ConfigError(f"{context}.{key} must be of type {names}, got {value!r}")
        cfg[key] = _merge(dv, value, f"{context}.{key}") if isinstance(dv, dict) else value
    return cfg


def _resolve(defaults: dict, args) -> dict:
    cfg = _merge(defaults, _load_config(args.config), "config")
    if args.seed is not None:
        cfg["seed"] = args.seed
    for key, value in cfg.items():  # each seed is an int: typed by the schema, or by argparse for --seed
        if key.endswith("seed") and not 0 <= value < 2**64:
            raise ConfigError(f"{key} must be an integer in [0, 2^64), got {value!r}")
    return cfg


def _read_image(path, mesh: float) -> PlanarImage:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"input image not found: {p}")
    if p.suffix == ".pgm":
        data, _ = read_pgm(p)
        return PlanarImage(data[:, :, None], mesh=mesh)
    if p.suffix == ".eqt1":
        arr = read_eqt1(p)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3:
            raise ConfigError(f"{p}: expected a rank-2 or rank-3 tensor, got rank {arr.ndim}")
        return PlanarImage(arr, mesh=mesh)
    raise ConfigError(f"{p}: unsupported image format (use .pgm or .eqt1)")


def _output_format(fmt: str, input_path, channels: int) -> str:
    """The format the result is written in: checked before the solve, so a bad
    one writes and prints nothing."""
    if fmt == "auto":
        fmt = "pgm" if input_path is not None and str(input_path).endswith(".pgm") else "eqt1"
    if fmt not in ("pgm", "eqt1"):
        raise ConfigError(f"format: unknown output format {fmt!r} (use auto, pgm, or eqt1)")
    if fmt == "pgm" and channels != 1:
        raise ConfigError(f"format: PGM output is grayscale; result has {channels} channels")
    return fmt


def _build_prox(pcfg: dict):
    kind = pcfg["kind"]
    if kind == "soft_threshold":
        return SoftThreshold(pcfg["weight"])
    if kind == "tv":
        return TVProx(pcfg["weight"], tol=pcfg["tol"], max_iter=pcfg["max_iter"])
    if kind == "neural":
        if pcfg["checkpoint"] is None:
            raise ConfigError("prox.kind 'neural' requires prox.checkpoint")
        return NeuralProx(load_checkpoint(pcfg["checkpoint"]))
    raise ConfigError(f"unknown prox.kind {kind!r} (use soft_threshold, tv, or neural)")


def _print_psnr(x: PlanarImage, reference: PlanarImage) -> None:
    value = psnr(x, reference)
    print("psnr: inf" if math.isinf(value) else f"psnr: {value:.4f}")


def _write_trace(path: Path, trace) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss"])
        for epoch, value in enumerate(trace):
            writer.writerow([epoch, f"{value:.17g}"])


def cmd_audit_equivariance(cfg: dict, out_dir: Path) -> int:
    reports = order_sweep(
        t_list=cfg["t_list"],
        image_count=cfg["image_count"],
        image_size=cfg["image_size"],
        mesh=cfg["mesh"],
        angles=cfg["angles"],
        net_seed=cfg["net_seed"],
        image_seed=cfg["image_seed"],
        angle_seed=cfg["seed"],
        channels=cfg["channels"],
    )
    csv_path, summary_path = emit_report(reports, out_dir / "equivariance.csv")
    by_t = sorted(reports, key=lambda r: r.t)
    means = [r.mean_error for r in by_t]
    monotone = all(means[i + 1] < means[i] for i in range(len(means) - 1))
    bounds_ok = all(r.bound_satisfied for r in reports)
    for r in by_t:
        print(f"t={r.t}: mean_error={r.mean_error:.6g} max_error={r.max_error:.6g} bound={r.bound:.6g}")
    print(f"wrote: {csv_path}")
    print(f"wrote: {summary_path}")
    print(f"monotone: {'yes' if monotone else 'no'}  bounds: {'ok' if bounds_ok else 'violated'}")
    return 0 if monotone and bounds_ok else 1


def cmd_audit_regularizers(cfg: dict, out_dir: Path) -> int:
    if not cfg["threshold"] > 0:
        raise ConfigError(f"threshold must be > 0, got {cfg['threshold']!r}: no relative spread (>= 0) is below it")
    if cfg["image"] is not None:
        image = _read_image(cfg["image"], cfg["mesh"])
    else:
        image = synthetic_image(cfg["image_size"], cfg["seed"], mesh=cfg["mesh"])
    rows = regularizer_rotation_table(
        image, n_angles=cfg["n_angles"], epsilon=cfg["epsilon"], crop=cfg["crop"]
    )
    csv_path, summary_path = emit_regularizer_report(rows, out_dir / "regularizers.csv")
    ok = True
    for kind in REGULARIZER_KINDS:
        spread = relative_spread([v for k, _, v in rows if k == kind])
        passed = spread < cfg["threshold"]
        ok = ok and passed
        print(f"{kind}: relative_spread={spread:.6g} {'pass' if passed else 'FAIL'}")
    print(f"wrote: {csv_path}")
    print(f"wrote: {summary_path}")
    return 0 if ok else 1


def _restore(cfg: dict, out_dir: Path, stem: str, make_op, scale: int = 1) -> int:
    # cfg["mesh"] is the solution's mesh; the observation grid is coarser by scale.
    # make_op(n) builds the operator for a solution grid whose smaller side is n.
    if cfg["ground_truth"] is not None and cfg["input"] is None:
        raise ConfigError("ground_truth needs input: a synthetic run is scored against its own clean image")
    if cfg["input"] is not None:
        y = _read_image(cfg["input"], cfg["mesh"] * scale)
        h, w, channels = y.data.shape
        n, shape = min(h, w) * scale, (h * scale, w * scale, channels)
        truth = _read_image(cfg["ground_truth"], cfg["mesh"]) if cfg["ground_truth"] else None
        if truth is not None and truth.data.shape != shape:
            raise ConfigError(f"ground_truth shape {truth.data.shape} does not match the result's {shape}")
    else:
        truth = synthetic_image(cfg["image_size"], cfg["seed"], mesh=cfg["mesh"])
        n, channels = cfg["image_size"], truth.channels
    fmt = _output_format(cfg["format"], cfg["input"], channels)
    try:
        op = make_op(n)
        if cfg["input"] is None:
            y = degrade(op, truth, cfg["sigma"], cfg["seed"])
        run = UnfoldingConfig(steps=cfg["steps"], step_size=cfg["step_size"], prox=_build_prox(cfg["prox"]))
        xhat, calls = ista_solve(y, op, run)
    except SolverDivergence as exc:
        print(f"solver diverged at step {exc.step}", file=sys.stderr)
        return 1
    except MemoryError:
        # an input file's size times scale is bounded only by memory: the
        # operator's bank holds scale**2 phases, and the solve several grids
        raise ConfigError(
            f"scale {scale}: the restoration grid (smaller side {n}) and its operator do not fit in memory"
        ) from None
    path = out_dir / f"{stem}.{fmt}"
    if fmt == "pgm":
        write_pgm(path, xhat.data[:, :, 0])
    else:
        write_eqt1(path, xhat.data)
    print(f"wrote: {path}")
    print(f"prox_calls: {calls}/{run.steps}")
    if truth is not None:
        _print_psnr(xhat, truth)
    return 0


def cmd_denoise(cfg: dict, out_dir: Path) -> int:
    return _restore(cfg, out_dir, "denoised", lambda n: Identity())


def cmd_sr(cfg: dict, out_dir: Path) -> int:
    scale, size = cfg["scale"], cfg["kernel"]["size"]
    if scale < 1:
        raise ConfigError(f"scale must be >= 1, got {scale}")

    def blur_downsample(n: int) -> BlurDownsample:
        # checked before the operator's s*s-phase bank and the kernel are built:
        # the grid holds whole s x s blocks, and a tap more than n - 1 pixels
        # off-centre never meets a pixel of the grid
        if n % scale:
            raise ConfigError(f"scale {scale} must divide image_size {n}")
        if size > 2 * n - 1:
            raise ConfigError(f"kernel.size must be at most 2n - 1 = {2 * n - 1}, with n = {n} "
                              f"the restoration grid's smaller side, got {size}")
        return BlurDownsample(gaussian_kernel(size, cfg["kernel"]["sigma"]), scale)

    return _restore(cfg, out_dir, "restored", blur_downsample, scale)


def cmd_train(cfg: dict, out_dir: Path) -> int:
    root = np.random.default_rng(cfg["seed"])
    data_seed, net_seed, noise_base = (int(s) for s in root.integers(2**31, size=3))
    # the net and the optimizer check their fields before the data is generated
    net = init_network(make_denoiser_net(t=cfg["t"], channels=cfg["channels"]), net_seed)
    if cfg["optimizer"] == "adam":
        opt = Adam(cfg["lr"])
    elif cfg["optimizer"] == "sgd":
        opt = SGD(cfg["lr"])
    else:
        raise ConfigError(f"unknown optimizer {cfg['optimizer']!r} (use adam or sgd)")
    clean = synthetic_stack(cfg["image_count"], cfg["image_size"], data_seed, mesh=cfg["mesh"])
    pairs = [
        (c, degrade(Identity(), c, cfg["sigma"], noise_base + i)) for i, c in enumerate(clean)
    ]
    try:
        trained, trace = train_denoiser(net, pairs, opt, cfg["epochs"])
    except TrainingDivergence as exc:
        _write_trace(out_dir / "loss.csv", exc.trace)
        print(f"training diverged after {len(exc.trace) - 1} epochs", file=sys.stderr)
        return 1
    ckpt_path = save_checkpoint(trained, out_dir / "checkpoint.eqck")
    trace_path = out_dir / "loss.csv"
    _write_trace(trace_path, trace)
    print(f"initial_loss: {trace[0]:.6g}")
    print(f"final_loss: {trace[-1]:.6g}")
    print(f"ratio: {trace[-1] / trace[0]:.4f}" if trace[0] > 0 else "ratio: 0.0000")
    print(f"wrote: {ckpt_path}")
    print(f"wrote: {trace_path}")
    return 0 if trace[-1] <= 0.5 * trace[0] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotprox",
        description="Rotation-equivariance audits, proximal-gradient restoration, and denoiser training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("audit-equivariance", cmd_audit_equivariance, AUDIT_EQ_DEFAULTS,
         "equivariance error vs group order, with the analytic bound"),
        ("audit-regularizers", cmd_audit_regularizers, AUDIT_REG_DEFAULTS,
         "rotation spread of classical regularizers"),
        ("denoise", cmd_denoise, DENOISE_DEFAULTS,
         "proximal-gradient denoising (identity forward operator)"),
        ("sr", cmd_sr, SR_DEFAULTS,
         "super-resolution against a blur-downsample operator"),
        ("train", cmd_train, TRAIN_DEFAULTS,
         "train a residual denoiser and save a checkpoint"),
    ]
    for name, func, defaults, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, metavar="PATH", help="JSON config file")
        p.add_argument("--out", default=".", metavar="DIR", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.set_defaults(func=func, defaults=defaults)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args.defaults, args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(cfg, out_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # sizes in a config (image_size, image_count, t_list, ...) are bounded only by memory
        print(f"error: {args.command} ran out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
