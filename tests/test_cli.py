"""End-to-end command-line checks: config handling, exit codes, emitted files."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from support import eqck_header, with_eqck_header

from rotprox import (
    BlurDownsample,
    Identity,
    degrade,
    gaussian_kernel,
    init_network,
    make_denoiser_net,
    make_sweep_net,
    parameters,
    psnr,
    read_eqt1,
    read_pgm,
    synthetic_image,
    write_eqt1,
    write_pgm,
)
from rotprox.checkpoint import load as load_checkpoint
from rotprox.checkpoint import save as save_checkpoint
from rotprox import audit, cli
from rotprox.cli import main


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_child(args, **env):
    """Run a Python child process with `args`, `src` first on its PYTHONPATH (so a
    fresh checkout imports rotprox there too) and `env` added to its environment."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path, **env}
    )


def read_psnr(captured_out):
    for line in captured_out.splitlines():
        if line.startswith("psnr: "):
            return line.removeprefix("psnr: ")
    raise AssertionError(f"no psnr line in {captured_out!r}")


# Frozen tiny training config: Adam run reaches ratio ~0.007 in 6 epochs.
TINY_TRAIN = {"epochs": 6, "t": 1, "channels": 2, "image_count": 2, "image_size": 12, "lr": 0.01}


class TestConfigErrors:
    """Every malformed input exits 2 with an error: line on stderr."""

    def check(self, argv, capsys, fragment=None):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        if fragment is not None:
            assert fragment in err
        return err

    def test_missing_config_file(self, tmp_path, capsys):
        self.check(
            ["denoise", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)],
            capsys,
            "not found",
        )

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        self.check(["denoise", "--config", str(path), "--out", str(tmp_path)], capsys, "JSON")

    def test_top_level_must_be_object(self, tmp_path, capsys):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]", encoding="utf-8")
        self.check(["denoise", "--config", str(path), "--out", str(tmp_path)], capsys, "object")

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sigma": 0.1, "bogus": 1})
        self.check(["denoise", "--config", cfg, "--out", str(tmp_path)], capsys, "bogus")

    def test_unknown_nested_prox_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"prox": {"kind": "tv", "junk": 1}})
        err = self.check(["denoise", "--config", cfg, "--out", str(tmp_path)], capsys, "junk")
        assert "config.prox" in err

    def test_negative_seed_flag(self, tmp_path, capsys):
        self.check(["denoise", "--seed", "-1", "--out", str(tmp_path)], capsys, "seed")

    def test_bool_seed_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": True})
        self.check(["denoise", "--config", cfg, "--out", str(tmp_path)], capsys, "seed")

    def test_float_seed_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"seed": 1.5})
        self.check(["denoise", "--config", cfg, "--out", str(tmp_path)], capsys, "seed")

    @pytest.mark.parametrize("key, value", [("image_seed", -1), ("net_seed", 2**64)])
    def test_every_seed_field_range_checked(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"t_list": [1], key: value})
        err = self.check(["audit-equivariance", "--config", cfg, "--out", str(tmp_path)], capsys)
        assert err == f"error: {key} must be an integer in [0, 2^64), got {value}\n"

    def test_train_group_order_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"t": 0})
        err = self.check(["train", "--config", cfg, "--out", str(tmp_path)], capsys)
        assert err == "error: group order must be an integer >= 1, got 0\n"

    def test_unknown_prox_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"steps": 1, "prox": {"kind": "median"}})
        self.check(["denoise", "--config", cfg, "--out", str(tmp_path)], capsys, "median")

    def test_neural_prox_requires_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"prox": {"kind": "neural"}})
        self.check(["denoise", "--config", cfg, "--out", str(tmp_path)], capsys, "checkpoint")

    def test_unknown_output_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"steps": 1, "image_size": 8, "format": "png"})
        self.check(["denoise", "--config", cfg, "--out", str(tmp_path)], capsys, "png")

    def test_unknown_optimizer(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"optimizer": "rmsprop", "epochs": 1})
        self.check(["train", "--config", cfg, "--out", str(tmp_path)], capsys, "rmsprop")

    def test_negative_epochs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TINY_TRAIN, epochs=-1))
        self.check(["train", "--config", cfg, "--out", str(tmp_path)], capsys, "epochs")

    @pytest.mark.parametrize("field, value", [("t", 0), ("channels", 0), ("lr", 0)])
    def test_bad_net_or_optimizer_field_rejected_before_the_data(self, tmp_path, capsys, monkeypatch, field, value):
        def no_data(*args, **kwargs):
            raise AssertionError("training data generated before the config was checked")

        monkeypatch.setattr(cli, "synthetic_stack", no_data)
        cfg = write_config(tmp_path, {field: value})
        self.check(["train", "--config", cfg, "--out", str(tmp_path)], capsys)

    def test_fractional_epochs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TINY_TRAIN, epochs=2.5))
        self.check(["train", "--config", cfg, "--out", str(tmp_path)], capsys, "epochs")

    def test_step_size_above_stability_limit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"image_size": 8, "steps": 2, "step_size": 2.0})
        self.check(["denoise", "--config", cfg, "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize(
        "prox, fragment",
        [
            ({"kind": "tv", "max_iter": 0}, "max_iter"),
            ({"kind": "tv", "max_iter": -3}, "max_iter"),
            ({"kind": "tv", "max_iter": True}, "max_iter"),
            ({"kind": "tv", "max_iter": 1.5}, "max_iter"),
            ({"kind": "tv", "max_iter": "5"}, "max_iter"),
            ({"kind": "tv", "tol": "a"}, "tol"),
            ({"kind": "tv", "weight": "x"}, "weight"),
            ({"kind": "soft_threshold", "weight": "x"}, "weight"),
        ],
    )
    def test_bad_prox_parameter(self, tmp_path, capsys, prox, fragment):
        cfg = write_config(tmp_path, {"image_size": 12, "steps": 1, "prox": prox})
        self.check(["denoise", "--config", cfg, "--out", str(tmp_path)], capsys, fragment)

    @pytest.mark.parametrize("weight", ["1e400", "1e-320"])
    def test_tv_weight_must_be_finite(self, tmp_path, capsys, weight):
        # JSON text, not json.dumps: 1e400 parses to inf, 1e-320 to a subnormal
        path = tmp_path / "config.json"
        path.write_text(f'{{"image_size": 12, "steps": 1, "prox": {{"kind": "tv", "weight": {weight}}}}}')
        self.check(["denoise", "--config", str(path), "--out", str(tmp_path)], capsys, "weight")

    @pytest.mark.parametrize("command", ["denoise", "sr"])
    @pytest.mark.parametrize(
        "key, value",
        [
            ("steps", True),
            ("steps", 1.5),
            ("steps", -1),
            ("steps", "3"),
            ("step_size", True),
            ("step_size", "a"),
            ("step_size", 0),
            ("step_size", -0.5),
        ],
    )
    def test_bad_unfolding_parameter(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, {"image_size": 12, "steps": 1, key: value})
        self.check([command, "--config", cfg, "--out", str(tmp_path)], capsys, key)

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("denoise", "image_size", "64"),
            ("denoise", "mesh", "x"),
            ("denoise", "sigma", "a"),
            ("sr", "mesh", "x"),
            ("train", "lr", "a"),
            ("denoise", "input", 5),
            ("denoise", "ground_truth", 5),
            ("audit-regularizers", "image", 5),
            ("denoise", "prox", {"kind": "neural", "checkpoint": 5}),
            ("audit-equivariance", "angles", [None]),
            ("audit-equivariance", "angles", ["a"]),
            ("audit-equivariance", "angles", [0.5, True]),
        ],
    )
    def test_value_of_wrong_type(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, {key: value})
        self.check([command, "--config", cfg, "--out", str(tmp_path)], capsys, key)

    @pytest.mark.parametrize("command", ["audit-equivariance", "audit-regularizers", "denoise", "sr", "train"])
    @pytest.mark.parametrize("key, value", [("image_size", 0), ("mesh", 0.0)])
    def test_empty_image_domain(self, tmp_path, capsys, command, key, value):
        cfg = write_config(tmp_path, {key: value})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.check([command, "--config", cfg, "--out", str(tmp_path)], capsys, "domain radius")
        assert "Warning" not in err
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("command", ["audit-equivariance", "audit-regularizers", "denoise", "sr", "train"])
    def test_image_size_beyond_float_range(self, tmp_path, capsys, command):
        # JSON text, not json.dumps: a 401-digit integer, which no float holds
        path = tmp_path / "config.json"
        path.write_text('{"image_size": 1' + "0" * 400 + "}")
        self.check([command, "--config", str(path), "--out", str(tmp_path)], capsys,
                   "image_size must be a finite real number")

    @pytest.mark.parametrize("command", ["audit-equivariance", "train"])
    def test_negative_channels_named(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"channels": -1})
        self.check([command, "--config", cfg, "--out", str(tmp_path)], capsys,
                   "channels must be an integer >= 1, got -1")

    @pytest.mark.parametrize("command", ["audit-equivariance", "train"])
    def test_negative_image_count(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, {"image_count": -1})
        self.check([command, "--config", cfg, "--out", str(tmp_path)], capsys, "image count must be an integer >= 0, got -1")

    @pytest.mark.parametrize(
        "lr", ["-1.0", "0", "0.0", "1e400", "-Infinity", "NaN", pytest.param("1" + "0" * 400, id="1e400-as-int")]
    )
    def test_learning_rate_out_of_range(self, tmp_path, capsys, lr):
        # JSON text, not json.dumps: 1e400 parses to inf, the last one to an int beyond float range
        path = tmp_path / "config.json"
        path.write_text(f'{{"epochs": 1, "lr": {lr}}}')
        self.check(["train", "--config", str(path), "--out", str(tmp_path)], capsys, "lr")

    @pytest.mark.parametrize("t_list", [[1.5], [4, 2.0], [0], [-2], [True], ["4"], [None]])
    def test_t_list_entries_are_integer_orders(self, tmp_path, capsys, t_list):
        cfg = write_config(tmp_path, {"t_list": t_list})
        self.check(["audit-equivariance", "--config", cfg, "--out", str(tmp_path)], capsys, "t_list")

    @pytest.mark.parametrize("threshold", [-1, 0, 0.0, float("nan")])
    def test_non_positive_threshold(self, tmp_path, capsys, monkeypatch, threshold):
        # no relative spread (>= 0) is strictly below it, so the audit could only fail
        monkeypatch.setattr(cli, "synthetic_image", lambda *a, **k: pytest.fail("audit ran"))
        cfg = write_config(tmp_path, {"threshold": threshold})
        self.check(["audit-regularizers", "--config", cfg, "--out", str(tmp_path)], capsys, "threshold")

    @pytest.mark.parametrize("message", ["Unable to allocate 9.0 TiB", ""])
    def test_memory_error_exits_two(self, tmp_path, capsys, monkeypatch, message):
        def exhausted(cfg, out_dir):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "cmd_audit_equivariance", exhausted)
        err = self.check(["audit-equivariance", "--out", str(tmp_path)], capsys)
        assert err == "error: audit-equivariance ran out of memory" + (f": {message}" if message else "") + "\n"

    def test_empty_t_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"t_list": []})
        self.check(["audit-equivariance", "--config", cfg, "--out", str(tmp_path)], capsys, "t_list")

    @pytest.mark.parametrize("angles", [0, -1, []], ids=["zero", "negative", "empty-list"])
    def test_angles_must_name_at_least_one(self, tmp_path, capsys, angles):
        cfg = write_config(tmp_path, {"angles": angles, "image_size": 16, "t_list": [1]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.check(["audit-equivariance", "--config", cfg, "--out", str(tmp_path)], capsys, "angles")
        assert "Warning" not in err
        assert not caught, [str(w.message) for w in caught]

    @pytest.mark.parametrize("below", [0, 1, 12], ids=["ring", "ring-1", "tiny"])
    def test_image_size_inside_the_receptive_ring(self, tmp_path, capsys, monkeypatch, below):
        # the largest size refused is twice the sweep nets' receptive radius, read off the nets
        ring = max(make_sweep_net(t).receptive_radius for t in cli.AUDIT_EQ_DEFAULTS["t_list"])

        def built(*args, **kwargs):
            raise AssertionError("an image was built")

        monkeypatch.setattr(audit, "ring_stack", built)
        cfg = write_config(tmp_path, {"image_size": 2 * ring - below})
        self.check(["audit-equivariance", "--config", cfg, "--out", str(tmp_path)], capsys, "image_size")

    def test_image_size_just_outside_the_receptive_ring_runs(self, tmp_path, capsys):
        ring = make_sweep_net(1).receptive_radius
        cfg = write_config(tmp_path, {"image_size": 2 * ring + 1, "t_list": [1], "angles": 1, "image_count": 1})
        assert main(["audit-equivariance", "--config", cfg, "--out", str(tmp_path)]) in (0, 1)
        assert "error" not in capsys.readouterr().err


class TestAuditEquivariance:
    def test_quarter_turn_order_four(self, tmp_path, capsys):
        # CLI-level version of the exactness check: t=4 at a quarter turn.
        cfg = write_config(
            tmp_path,
            {
                "t_list": [4],
                "angles": [float(np.pi / 2)],
                "image_count": 1,
                "image_size": 32,
                "mesh": 1.0 / 3.0,
                "channels": 2,
            },
        )
        out = tmp_path / "eq"
        rc = main(["audit-equivariance", "--config", cfg, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "monotone: yes" in stdout
        assert "bounds: ok" in stdout
        lines = (out / "equivariance.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,p,N,mean_error,max_error,bound,bound_satisfied"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "4"
        assert float(fields[3]) < 1e-8
        assert fields[6] == "true"
        assert (out / "equivariance_summary.txt").exists()

    def test_order_pair_decreases(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "t_list": [1, 4],
                "angles": 4,
                "image_count": 1,
                "image_size": 32,
                "mesh": 1.0 / 3.0,
                "channels": 2,
            },
        )
        out = tmp_path / "eq"
        rc = main(["audit-equivariance", "--config", cfg, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "t=1: " in stdout
        assert "t=4: " in stdout
        rows = (out / "equivariance.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 2
        means = {r.split(",")[0]: float(r.split(",")[3]) for r in rows}
        assert means["4"] < means["1"]

    def test_duplicate_orders_fail_monotonicity(self, tmp_path, capsys):
        # Two identical runs produce equal means; the strict-decrease gate must trip.
        cfg = write_config(
            tmp_path,
            {
                "t_list": [4, 4],
                "angles": 2,
                "image_count": 1,
                "image_size": 24,
                "mesh": 1.0 / 3.0,
                "channels": 2,
            },
        )
        rc = main(["audit-equivariance", "--config", cfg, "--out", str(tmp_path / "eq")])
        stdout = capsys.readouterr().out
        assert rc == 1
        assert "monotone: no" in stdout

    def test_out_directory_is_created(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "t_list": [4],
                "angles": [float(np.pi)],
                "image_count": 1,
                "image_size": 32,
                "mesh": 1.0 / 3.0,
                "channels": 2,
            },
        )
        out = tmp_path / "deep" / "nested" / "dir"
        rc = main(["audit-equivariance", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert (out / "equivariance.csv").exists()


class TestAuditRegularizers:
    def test_constant_image_quarter_angles(self, tmp_path, capsys):
        # Quarter turns are exact, so a constant image gives zero spread per kind.
        img = tmp_path / "const.eqt1"
        write_eqt1(img, np.full((16, 16, 1), 0.7))
        cfg = write_config(tmp_path, {"image": str(img), "n_angles": 4})
        out = tmp_path / "reg"
        rc = main(["audit-regularizers", "--config", cfg, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert stdout.count("relative_spread=0 pass") == 4
        lines = (out / "regularizers.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "regularizer,angle_rad,value"
        assert len(lines) == 1 + 4 * 4
        by_kind = {}
        for row in lines[1:]:
            kind, _, value = row.split(",")
            by_kind.setdefault(kind, set()).add(value)
        assert sorted(by_kind) == ["L1", "LapL0", "TV2", "TV_iso"]
        for kind, values in by_kind.items():
            assert len(values) == 1, kind
        assert (out / "regularizers_summary.txt").exists()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        base = {"image_size": 24, "n_angles": 2}
        cfg5 = write_config(tmp_path, dict(base, seed=5), name="seed5.json")
        cfg3 = write_config(tmp_path, dict(base, seed=3), name="seed3.json")
        for argv, sub in [
            (["audit-regularizers", "--config", cfg5], "a"),
            (["audit-regularizers", "--config", cfg3, "--seed", "5"], "b"),
            (["audit-regularizers", "--config", cfg3], "c"),
        ]:
            main(argv + ["--out", str(tmp_path / sub)])
        capsys.readouterr()
        text = [
            (tmp_path / sub / "regularizers.csv").read_text(encoding="utf-8") for sub in "abc"
        ]
        assert text[0] == text[1]
        assert text[0] != text[2]

    def test_pgm_image_input(self, tmp_path, capsys):
        # needs curvature, a plain ramp would leave TV2 at rounding-noise scale
        raw = synthetic_image(16, 0, mesh=1.0).data[:, :, 0]
        data = (raw - raw.min()) / (raw.max() - raw.min())
        img = tmp_path / "bumps.pgm"
        write_pgm(img, data)
        cfg = write_config(tmp_path, {"image": str(img), "n_angles": 4})
        rc = main(["audit-regularizers", "--config", cfg, "--out", str(tmp_path / "reg")])
        capsys.readouterr()
        assert rc == 0


class TestDenoise:
    def test_noise_free_run_is_exact(self, tmp_path, capsys):
        # sigma 0 and weight 0 make the solve a fixed point at the clean image.
        cfg = write_config(
            tmp_path,
            {"seed": 4, "image_size": 16, "sigma": 0.0, "steps": 3, "prox": {"weight": 0.0}},
        )
        out = tmp_path / "den"
        rc = main(["denoise", "--config", cfg, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "psnr: inf" in stdout
        restored = read_eqt1(out / "denoised.eqt1")
        np.testing.assert_array_equal(restored, synthetic_image(16, 4, mesh=1.0).data)

    def test_default_run_prints_prox_calls(self, tmp_path, capsys):
        # at the default step every stage's prox input is y, so step 2 reuses
        # step 1's prox output and the solve stops there: one prox evaluation
        rc = main(["denoise", "--out", str(tmp_path / "den")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0].startswith("wrote: ")
        assert lines[1] == "prox_calls: 1/100"

    def test_astronomical_step_count_exits_zero(self, tmp_path, capsys):
        # the solve stops at step 2, whose prox input repeats step 1's
        cfg = write_config(tmp_path, {"image_size": 8, "steps": 2**70})
        rc = main(["denoise", "--config", cfg, "--out", str(tmp_path / "den")])
        stdout = capsys.readouterr().out
        assert rc == 0
        read_psnr(stdout)

    def test_soft_threshold_beats_noisy_psnr(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"seed": 3, "image_size": 32, "sigma": 0.1, "steps": 5, "prox": {"weight": 0.05}},
        )
        rc = main(["denoise", "--config", cfg, "--out", str(tmp_path / "den")])
        stdout = capsys.readouterr().out
        assert rc == 0
        clean = synthetic_image(32, 3, mesh=1.0)
        noisy = degrade(Identity(), clean, 0.1, 3)
        assert float(read_psnr(stdout)) > psnr(noisy, clean)

    def test_pgm_in_pgm_out_roundtrip(self, tmp_path, capsys):
        data = np.linspace(0.0, 1.0, 16 * 16).reshape(16, 16)
        img = tmp_path / "ramp.pgm"
        write_pgm(img, data)
        cfg = write_config(
            tmp_path, {"input": str(img), "steps": 2, "prox": {"weight": 0.0}}
        )
        out = tmp_path / "den"
        rc = main(["denoise", "--config", cfg, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "psnr" not in stdout
        before, _ = read_pgm(img)
        after, _ = read_pgm(out / "denoised.pgm")
        np.testing.assert_array_equal(after, before)

    def test_explicit_eqt1_format_overrides_auto(self, tmp_path, capsys):
        img = tmp_path / "ramp.pgm"
        write_pgm(img, np.linspace(0.0, 1.0, 8 * 8).reshape(8, 8))
        cfg = write_config(
            tmp_path,
            {"input": str(img), "steps": 1, "format": "eqt1", "prox": {"weight": 0.0}},
        )
        out = tmp_path / "den"
        rc = main(["denoise", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        assert (out / "denoised.eqt1").exists()
        assert not (out / "denoised.pgm").exists()

    def test_pgm_output_needs_single_channel(self, tmp_path, capsys):
        img = tmp_path / "two.eqt1"
        write_eqt1(img, np.random.default_rng(0).standard_normal((8, 8, 2)))
        cfg = write_config(
            tmp_path,
            {"input": str(img), "steps": 1, "format": "pgm", "prox": {"weight": 0.0}},
        )
        rc = main(["denoise", "--config", cfg, "--out", str(tmp_path / "den")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "grayscale" in err

    def test_file_ground_truth_psnr(self, tmp_path, capsys):
        clean = synthetic_image(12, 0, mesh=1.0)
        noisy = degrade(Identity(), clean, 0.1, 7)
        clean_path = tmp_path / "clean.eqt1"
        noisy_path = tmp_path / "noisy.eqt1"
        write_eqt1(clean_path, clean.data)
        write_eqt1(noisy_path, noisy.data)
        cfg = write_config(
            tmp_path,
            {
                "input": str(noisy_path),
                "ground_truth": str(clean_path),
                "steps": 1,
                "prox": {"weight": 0.0},
            },
        )
        rc = main(["denoise", "--config", cfg, "--out", str(tmp_path / "den")])
        stdout = capsys.readouterr().out
        assert rc == 0
        # weight 0 leaves the observation untouched, so the printed PSNR is psnr(y, truth)
        assert read_psnr(stdout) == f"{psnr(noisy, clean):.4f}"


class TestSuperResolve:
    def test_synthetic_run(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"seed": 1, "image_size": 32, "steps": 30, "prox": {"weight": 0.01}}
        )
        out = tmp_path / "sr"
        rc = main(["sr", "--config", cfg, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert read_eqt1(out / "restored.eqt1").shape == (32, 32, 1)
        assert float(read_psnr(stdout)) > 15.0

    def test_default_run_prints_prox_calls(self, tmp_path, capsys):
        rc = main(["sr", "--out", str(tmp_path / "sr")])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0].startswith("wrote: ")
        assert lines[1] == "prox_calls: 200/200"

    def test_scale_must_divide_image(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"image_size": 33, "steps": 1})
        rc = main(["sr", "--config", cfg, "--out", str(tmp_path / "sr")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("scale, from_file", [(0, False), (0, True), (-2, True), (2**20, False)])
    def test_scale_out_of_range(self, tmp_path, capsys, scale, from_file):
        # rejected before the operator's bank of scale**2 phases is built
        cfg = {"image_size": 8, "steps": 1, "scale": scale}
        if from_file:
            write_eqt1(tmp_path / "low.eqt1", np.zeros((4, 4, 1)))
            cfg["input"] = str(tmp_path / "low.eqt1")
        rc = main(["sr", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "sr")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: scale {scale} must divide" if scale > 0 else "error: scale must be >= 1")

    @pytest.mark.parametrize("size", [17, 100001])
    @pytest.mark.parametrize("from_file", [False, True])
    def test_kernel_wider_than_grid_rejected(self, tmp_path, capsys, size, from_file):
        # an 8-pixel restoration grid (synthetic, or a 4x6 file at scale 2):
        # taps more than 7 pixels off-centre never meet a pixel, and 100001
        # taps used to need a 74.5 GiB outer product
        cfg = {"image_size": 8, "steps": 1, "kernel": {"size": size, "sigma": 1.0}}
        if from_file:
            write_eqt1(tmp_path / "low.eqt1", np.zeros((4, 6, 1)))
            cfg["input"] = str(tmp_path / "low.eqt1")
        rc = main(["sr", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "sr")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: kernel.size ")
        assert "15" in err
        cfg["kernel"]["size"] = 15
        assert main(["sr", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "sr")]) == 0
        capsys.readouterr()

    def test_file_input_uses_high_res_mesh(self, tmp_path, capsys):
        # config mesh describes the restoration grid; the observation file is coarser by scale
        clean = synthetic_image(24, 2, mesh=0.5)
        op = BlurDownsample(gaussian_kernel(5, 1.0), 2)
        y = degrade(op, clean, 0.0, 0)
        y_path = tmp_path / "low.eqt1"
        clean_path = tmp_path / "clean.eqt1"
        write_eqt1(y_path, y.data)
        write_eqt1(clean_path, clean.data)
        cfg = write_config(
            tmp_path,
            {
                "input": str(y_path),
                "ground_truth": str(clean_path),
                "mesh": 0.5,
                "scale": 2,
                "steps": 20,
                "prox": {"weight": 0.01},
            },
        )
        out = tmp_path / "sr"
        rc = main(["sr", "--config", cfg, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert read_eqt1(out / "restored.eqt1").shape == (24, 24, 1)
        read_psnr(stdout)


class TestOutputChecksBeforeSolve:
    """A ground_truth or format that cannot go with the result exits 2 before
    the solve: nothing is written, stdout stays empty, and the error names the
    field."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli, "ista_solve", fail)

    def check(self, tmp_path, capsys, command, cfg, field):
        out = tmp_path / "out"
        rc = main([command, "--config", write_config(tmp_path, cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("command, observed, truth", [
        ("denoise", (16, 16, 1), (8, 8, 1)),
        ("denoise", (8, 8, 1), (8, 8, 2)),
        ("sr", (8, 8, 1), (8, 8, 1)),
        ("sr", (8, 8, 1), (16, 16, 2)),
    ])
    def test_ground_truth_shape(self, tmp_path, capsys, command, observed, truth):
        write_eqt1(tmp_path / "y.eqt1", np.zeros(observed))
        write_eqt1(tmp_path / "truth.eqt1", np.zeros(truth))
        cfg = {"input": str(tmp_path / "y.eqt1"), "ground_truth": str(tmp_path / "truth.eqt1")}
        self.check(tmp_path, capsys, command, cfg, "ground_truth")

    @pytest.mark.parametrize("command", ["denoise", "sr"])
    def test_ground_truth_without_input(self, tmp_path, capsys, command):
        # the path does not exist: the field is refused before it is read
        cfg = {"image_size": 8, "ground_truth": str(tmp_path / "missing.eqt1")}
        self.check(tmp_path, capsys, command, cfg, "ground_truth")

    @pytest.mark.parametrize("command", ["denoise", "sr"])
    def test_unknown_format(self, tmp_path, capsys, command):
        self.check(tmp_path, capsys, command, {"image_size": 8, "format": "png"}, "format")

    def test_pgm_format_of_two_channels(self, tmp_path, capsys):
        write_eqt1(tmp_path / "y.eqt1", np.zeros((8, 8, 2)))
        self.check(tmp_path, capsys, "denoise", {"input": str(tmp_path / "y.eqt1"), "format": "pgm"}, "format")


class TestTrain:
    def test_tiny_adam_run_halves_loss(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_TRAIN)
        out = tmp_path / "run"
        rc = main(["train", "--config", cfg, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "initial_loss: " in stdout
        assert "final_loss: " in stdout
        assert "ratio: " in stdout
        lines = (out / "loss.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "epoch,loss"
        assert len(lines) == 1 + TINY_TRAIN["epochs"] + 1
        losses = [float(r.split(",")[1]) for r in lines[1:]]
        assert losses[-1] <= 0.5 * losses[0]
        net = load_checkpoint(out / "checkpoint.eqck")
        assert len(list(parameters(net))) > 0

    def test_repeat_run_is_bit_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_TRAIN)
        for sub in ("a", "b"):
            assert main(["train", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        capsys.readouterr()
        ckpt_a = (tmp_path / "a" / "checkpoint.eqck").read_bytes()
        ckpt_b = (tmp_path / "b" / "checkpoint.eqck").read_bytes()
        assert ckpt_a == ckpt_b
        loss_a = (tmp_path / "a" / "loss.csv").read_text(encoding="utf-8")
        loss_b = (tmp_path / "b" / "loss.csv").read_text(encoding="utf-8")
        assert loss_a == loss_b

    def test_zero_epochs_fails_gate_and_keeps_init(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TINY_TRAIN, epochs=0, seed=9))
        out = tmp_path / "run"
        rc = main(["train", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        assert rc == 1
        lines = (out / "loss.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        # seed derivation contract: one root generator hands out data/net/noise seeds
        root = np.random.default_rng(9)
        _, net_seed, _ = (int(s) for s in root.integers(2**31, size=3))
        expect = init_network(make_denoiser_net(t=1, channels=2), net_seed)
        got = load_checkpoint(out / "checkpoint.eqck")
        for (ei, en, ea), (gi, gn, ga) in zip(parameters(expect), parameters(got)):
            assert (ei, en) == (gi, gn)
            np.testing.assert_array_equal(ea, ga)

    def test_sgd_divergence_exits_one(self, tmp_path, capsys):
        # plain SGD at this rate blows past the loss limit on the first epoch
        cfg = write_config(tmp_path, dict(TINY_TRAIN, optimizer="sgd"))
        out = tmp_path / "run"
        rc = main(["train", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "diverged after 1 epochs" in err
        lines = (out / "loss.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert float(lines[2].split(",")[1]) > 1e6
        assert not (out / "checkpoint.eqck").exists()

    def test_non_finite_state_exits_one(self, tmp_path, capsys):
        # Adam's first step moves every coefficient by about lr; the loss-only
        # pass that ends the epoch then overflows a feature map
        cfg = write_config(tmp_path, {"epochs": 1, "lr": 1e300})
        out = tmp_path / "run"
        rc = main(["train", "--config", cfg, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "diverged after 1 epochs" in err
        lines = (out / "loss.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert np.isfinite(float(lines[1].split(",")[1]))
        assert np.isnan(float(lines[2].split(",")[1]))
        assert not (out / "checkpoint.eqck").exists()

    def test_sgd_small_rate_trains(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(TINY_TRAIN, optimizer="sgd", lr=1e-5))
        rc = main(["train", "--config", cfg, "--out", str(tmp_path / "run")])
        capsys.readouterr()
        assert rc == 0


class TestNeuralProxFlow:
    def test_train_then_denoise_with_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_TRAIN, name="train.json")
        train_out = tmp_path / "train"
        assert main(["train", "--config", cfg, "--out", str(train_out)]) == 0
        den_cfg = write_config(
            tmp_path,
            {
                "seed": 2,
                "image_size": 16,
                "sigma": 0.05,
                "steps": 3,
                "prox": {"kind": "neural", "checkpoint": str(train_out / "checkpoint.eqck")},
            },
            name="denoise.json",
        )
        out = tmp_path / "den"
        rc = main(["denoise", "--config", den_cfg, "--out", str(out)])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert (out / "denoised.eqt1").exists()
        read_psnr(stdout)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"seed": 1, "image_size": 12, "sigma": 0.0, "steps": 1, "prox": {"weight": 0.0}},
        )
        proc = run_child(["-m", "rotprox.cli", "denoise", "--config", cfg, "--out", str(tmp_path / "out")])
        assert proc.returncode == 0
        assert "psnr: inf" in proc.stdout

    def test_malformed_checkpoint_header_exits_two(self, tmp_path):
        net = make_denoiser_net(2, channels=2, p=3, cutoff=1)
        blob = save_checkpoint(net, tmp_path / "ok.eqck").read_bytes()
        header = eqck_header(blob)
        del header["layers"][0]["cutoff"]
        ckpt = tmp_path / "bad.eqck"
        ckpt.write_bytes(with_eqck_header(blob, header))
        cfg = write_config(
            tmp_path, {"image_size": 12, "steps": 1, "prox": {"kind": "neural", "checkpoint": str(ckpt)}}
        )
        proc = run_child(["-m", "rotprox.cli", "denoise", "--config", cfg, "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_diverging_neural_solve_exits_one(self, tmp_path):
        net = init_network(make_denoiser_net(), 0)
        for _, _, arr in parameters(net):
            arr *= 1e80
        ckpt = save_checkpoint(net, tmp_path / "huge.eqck")
        cfg = write_config(tmp_path, {"image_size": 16, "prox": {"kind": "neural", "checkpoint": str(ckpt)}})
        proc = run_child(["-m", "rotprox.cli", "denoise", "--config", cfg, "--out", str(tmp_path / "out")])
        assert proc.returncode == 1
        assert "solver diverged at step 1" in proc.stderr
        assert "Warning" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["audit-equivariance", "train"])
    def test_zero_channels_exits_two(self, tmp_path, command):
        cfg = write_config(tmp_path, {"channels": 0})
        proc = run_child(["-m", "rotprox.cli", command, "--config", cfg, "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_huge_scale_on_a_file_exits_two(self, tmp_path):
        # a 4x4 file at scale 65536 asks for a 262144-pixel-side grid and a
        # 288 GiB phase bank; the child's address space is capped at 4 GiB so
        # the allocation fails whatever the host's memory and overcommit policy
        write_eqt1(tmp_path / "low.eqt1", np.zeros((4, 4, 1)))
        cfg = write_config(tmp_path, {"input": str(tmp_path / "low.eqt1"), "scale": 65536, "steps": 1})
        capped = (
            "import resource, runpy, sys; "
            "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30)); "
            "sys.argv = ['rotprox'] + sys.argv[1:]; "
            "runpy.run_module('rotprox.cli', run_name='__main__')"
        )
        argv = ["-c", capped, "sr", "--config", cfg, "--out", str(tmp_path / "out")]
        proc = run_child(argv, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: scale 65536")
        assert "Traceback" not in proc.stderr

    def test_usage_error_exits_two(self, tmp_path):
        proc = run_child(["-m", "rotprox.cli", "denoise", "--config", str(tmp_path / "missing.json")])
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
