import dataclasses
import math

import numpy as np
import pytest
from support import bound_reference, count_conv_calls, refinement_errors, sweep_args

from rotprox import (
    BoundInputs,
    DegenerateReferenceError,
    EquivarianceReport,
    REGULARIZER_KINDS,
    PlanarImage,
    RegularizerSpec,
    SmoothnessBounds,
    bound_inputs_for,
    emit_regularizer_report,
    emit_report,
    make_audit_net,
    measure_equivariance,
    order_sweep,
    regularizer_rotation_table,
    regularizer_value,
    relative_spread,
    rotate_image,
    theorem1_bound,
)
from rotprox import audit
from rotprox.synthetic import synthetic_image


def random_bound_inputs(rng):
    n = int(rng.integers(1, 5))
    layers = tuple(
        (
            int(rng.integers(1, 9)),
            SmoothnessBounds(
                float(rng.uniform(0.2, 3.0)), float(rng.uniform(0.0, 5.0)), float(rng.uniform(0.0, 8.0))
            ),
        )
        for _ in range(n)
    )
    return BoundInputs(
        layers=layers,
        image=SmoothnessBounds(
            float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 6.0))
        ),
        p=int(rng.choice([3, 5, 9])),
        h=float(rng.uniform(0.01, 0.5)),
        t=int(rng.choice([1, 2, 4, 8, 24])),
        side=int(rng.integers(8, 200)),
    )


class TestBoundFormula:
    def test_matches_independent_restatement(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            b = random_bound_inputs(rng)
            got = theorem1_bound(b)[0]
            want = bound_reference(
                [(slices, fb.F, fb.G, fb.H) for slices, fb in b.layers],
                b.image.F, b.image.G, b.image.H, b.p, b.h, b.t, b.side,
            )
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_single_layer_hand_formula(self):
        b = BoundInputs(
            layers=((2, SmoothnessBounds(1.0, 2.0, 3.0)),),
            image=SmoothnessBounds(1.0, 0.5, 0.25), p=3, h=0.1, t=4, side=9,
        )
        bound, c1, c2, f_script = theorem1_bound(b)
        assert f_script == 2 * 9 * 1.0
        assert c1 == 2.0 * 1 * 18.0 * (3.0 + 2.0 * 2.0 * 0.5 + 0.25)
        assert c2 == 2.0 * math.pi * 0.5 * 18.0 * (2.0 * 9 / 3 + 2.0)
        np.testing.assert_allclose(bound, c1 * 0.01 + c2 * 3 * 0.1 / 4, rtol=1e-15)

    def test_monotone_in_t_and_h(self):
        rng = np.random.default_rng(71)
        base = random_bound_inputs(rng)

        def with_(**kw):
            fields = dict(layers=base.layers, image=base.image, p=base.p, h=base.h, t=base.t, side=base.side)
            fields.update(kw)
            return BoundInputs(**fields)

        assert theorem1_bound(with_(t=24))[0] < theorem1_bound(with_(t=2))[0]
        assert theorem1_bound(with_(h=0.4))[0] > theorem1_bound(with_(h=0.1))[0]
        # the orientation term vanishes as t grows; only C1 h^2 remains
        huge_t = theorem1_bound(with_(t=10**12))
        np.testing.assert_allclose(huge_t[0], huge_t[1] * base.h**2, rtol=1e-9)
        # C2 itself does not depend on t
        assert theorem1_bound(with_(t=2))[2] == theorem1_bound(with_(t=24))[2]

    def test_degenerate_filter_bank(self):
        b = BoundInputs(
            layers=((1, SmoothnessBounds(0.0, 1.0, 1.0)),),
            image=SmoothnessBounds(1.0, 1.0, 1.0), p=3, h=0.1, t=1, side=8,
        )
        with pytest.raises(ZeroDivisionError, match="degenerate"):
            theorem1_bound(b)

    def test_validation(self):
        ones = SmoothnessBounds(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="slice"):
            BoundInputs(((0, ones),), ones, 3, 0.1, 1, 8)
        with pytest.raises(ValueError, match="bound F must be a finite real number >= 0"):
            SmoothnessBounds(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="bound F must be a finite real number >= 0"):
            SmoothnessBounds(True, 1, 1)
        good = ((1, ones),)
        with pytest.raises(ValueError, match="at least one"):
            BoundInputs((), ones, 3, 0.1, 1, 8)
        with pytest.raises(ValueError, match="odd"):
            BoundInputs(good, ones, 4, 0.1, 1, 8)
        with pytest.raises(ValueError, match="mesh"):
            BoundInputs(good, ones, 3, 0.0, 1, 8)
        with pytest.raises(ValueError, match="group order"):
            BoundInputs(good, ones, 3, 0.1, 0, 8)
        with pytest.raises(ValueError, match="side"):
            BoundInputs(good, ones, 3, 0.1, 1, 0)
        with pytest.raises(ValueError, match="mesh"):
            BoundInputs(good, ones, 3, math.nan, 1, 8)
        # a bool slice count and filter size, a fractional order and side once gave a bound
        with pytest.raises(ValueError, match="slice count must be an integer"):
            BoundInputs(layers=((True, ones),), image=ones, p=True, h=0.1, t=2.5, side=8.5)


class TestMeasureEquivariance:
    def test_quarter_turns_are_exact(self):
        net = make_audit_net(4, seed=72)
        img = synthetic_image(32, 20, mesh=1 / 3)
        report = measure_equivariance(net, [img], angles=[0.0, np.pi / 2, np.pi, -np.pi / 2])
        assert report.max_error <= 1e-12
        assert report.t == 4 and report.p == 5 and report.N == 3

    def test_angle_list_shared_across_images(self):
        net = make_audit_net(2, channels=2, n_conv=2, seed=73)
        imgs = [synthetic_image(16, s, mesh=1 / 3) for s in (0, 1)]
        report = measure_equivariance(net, imgs, angles=[0.4, -1.1])
        assert [th for th, _ in report.errors] == [0.4, -1.1, 0.4, -1.1]

    def test_uniform_angle_protocol(self):
        net = make_audit_net(2, channels=2, n_conv=2, seed=74)
        img = synthetic_image(16, 2, mesh=1 / 3)
        report = measure_equivariance(net, [img], angles=3, seed=7)
        want = np.pi * (1.0 - 2.0 * np.random.default_rng(7).random(3))
        np.testing.assert_array_equal([th for th, _ in report.errors], want)

    def test_seeded_draws_are_deterministic(self):
        net = make_audit_net(2, channels=2, n_conv=2, seed=75)
        imgs = [synthetic_image(16, s, mesh=1 / 3) for s in (3, 4)]
        a = measure_equivariance(net, imgs, angles=2, seed=11)
        b = measure_equivariance(net, imgs, angles=2, seed=11)
        assert a.errors == b.errors
        assert len(a.errors) == 4
        first, second = a.errors[:2], a.errors[2:]
        assert [th for th, _ in first] != [th for th, _ in second]

    def test_banks_built_once_per_call(self, monkeypatch):
        # 2 images x (1 reference + 3 rotated) forwards share one bank per conv,
        # and a second call on the unchanged net builds none
        net = make_audit_net(4, seed=78)
        imgs = [synthetic_image(16, s, mesh=1 / 3) for s in (0, 1)]
        builds = count_conv_calls(monkeypatch, "weights")
        measure_equivariance(net, imgs, angles=3)
        assert builds == dict.fromkeys([id(layer) for layer in net.conv_layers], 1)
        measure_equivariance(net, imgs, angles=3)
        assert builds == dict.fromkeys([id(layer) for layer in net.conv_layers], 1)

    def test_bound_attached_when_inputs_given(self):
        net = make_audit_net(4, seed=77)
        img = synthetic_image(24, 6, mesh=1 / 3)
        bi = bound_inputs_for(net, [img])
        report = measure_equivariance(net, [img], angles=[np.pi / 2], bound_inputs=bi)
        assert report.bound == theorem1_bound(bi)[0]
        assert report.bound_satisfied is True
        plain = measure_equivariance(net, [img], angles=[np.pi / 2])
        assert plain.bound is None and plain.bound_satisfied is None

    def test_degenerate_reference_propagates(self):
        net = make_audit_net(4, seed=79)
        zero = PlanarImage(np.zeros((24, 24, 1)), mesh=1 / 3)
        with pytest.raises(DegenerateReferenceError):
            measure_equivariance(net, [zero], angles=[np.pi / 2])

    def test_empty_image_set_rejected(self):
        net = make_audit_net(4, seed=80)
        with pytest.raises(ValueError, match="empty"):
            measure_equivariance(net, [], angles=[np.pi / 2])

    @pytest.mark.parametrize(
        "angles",
        [0, -1, [], True, 2.5, [True], ["0.5"], [[0.1, 0.2]], [0.5, math.nan]],
        ids=["zero", "negative", "empty-list", "bool", "fraction", "listed-bool", "listed-string", "nested-list",
             "listed-nan"],
    )
    def test_empty_angle_set_rejected_before_any_forward(self, monkeypatch, angles):
        net = make_audit_net(4, seed=81)
        convs = count_conv_calls(monkeypatch, "forward")
        with pytest.raises(ValueError, match="angles"):
            measure_equivariance(net, [synthetic_image(16, 0, mesh=1 / 3)], angles=angles)
        assert not convs

    def test_bound_inputs_for_validation(self):
        net = make_audit_net(4, seed=81)
        with pytest.raises(ValueError, match="empty"):
            bound_inputs_for(net, [])
        imgs = [synthetic_image(16, 0, mesh=1 / 3), synthetic_image(16, 0, mesh=1 / 6)]
        with pytest.raises(ValueError, match="mesh"):
            bound_inputs_for(net, imgs)


class TestReportFields:
    def test_fields_are_the_errors_bound_and_net_shape(self):
        assert [f.name for f in dataclasses.fields(EquivarianceReport)] == ["errors", "bound", "t", "p", "N"]

    def test_summaries_follow_the_errors(self):
        report = EquivarianceReport(errors=((0.1, 0.25), (0.2, 0.5)), bound=0.6, t=4, p=5, N=3)
        assert (report.mean_error, report.max_error, report.bound_satisfied) == (0.375, 0.5, True)
        worse = dataclasses.replace(report, errors=((0.1, 0.25), (0.2, 0.75), (0.3, 0.5)))
        assert (worse.mean_error, worse.max_error, worse.bound_satisfied) == (0.5, 0.75, False)
        assert dataclasses.replace(report, bound=None).bound_satisfied is None


class TestOrderSweep:
    @pytest.mark.parametrize("t_list", [[], [2.0], [True], [0]], ids=["empty", "float", "bool", "zero"])
    def test_t_list_checked_by_name_before_any_net(self, monkeypatch, t_list):
        monkeypatch.setattr(audit, "make_sweep_net", lambda *a, **k: pytest.fail("a net was built"))
        with pytest.raises(ValueError, match="^t_list"):
            order_sweep(**sweep_args(t_list=t_list))

    def test_paired_comparison_improves_with_order(self):
        reports = order_sweep(**sweep_args(t_list=[1, 4], image_count=1, image_size=32, mesh=1 / 3, angles=4))
        assert [r.t for r in reports] == [1, 4]
        assert reports[1].mean_error < reports[0].mean_error
        assert all(r.bound is not None and r.bound_satisfied for r in reports)
        angles_per_t = [[th for th, _ in r.errors] for r in reports]
        assert angles_per_t[0] == angles_per_t[1]


class TestRefinement:
    def test_error_drops_with_mesh(self):
        errors = refinement_errors(p_list=(5, 9), base_size=16, image_count=1)
        assert errors[0] > errors[1] > 0.0

    def test_tap_count_must_nest(self):
        with pytest.raises(ValueError, match="multiple"):
            refinement_errors(p_list=(5, 8), base_size=16, image_count=1)


class TestRegularizers:
    def test_hand_values_on_a_ramp(self):
        data = np.tile(np.arange(6.0)[None, :, None], (6, 1, 1))
        ramp = PlanarImage(data)
        assert regularizer_value(RegularizerSpec("L1"), ramp) == 2.5
        np.testing.assert_allclose(regularizer_value(RegularizerSpec("TV_iso"), ramp), 1.0)
        assert regularizer_value(RegularizerSpec("TV2"), ramp) == 0.0
        assert regularizer_value(RegularizerSpec("LapL0"), ramp) == 0.0

    def test_quarter_turn_invariance(self):
        x = synthetic_image(64, 0, mesh=1 / 3)
        quarter = rotate_image(x, np.pi / 2)
        for kind in ("L1", "LapL0", "TV_iso", "TV2"):
            spec = RegularizerSpec(kind)
            a = regularizer_value(spec, x)
            b = regularizer_value(spec, quarter)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_flip_invariance(self):
        x = synthetic_image(32, 1, mesh=1 / 3)
        flips = [
            PlanarImage(x.data[::-1, :, :], mesh=x.mesh),
            PlanarImage(x.data[:, ::-1, :], mesh=x.mesh),
        ]
        for kind in ("L1", "LapL0", "TV_iso", "TV2"):
            spec = RegularizerSpec(kind)
            a = regularizer_value(spec, x)
            for fx in flips:
                assert abs(regularizer_value(spec, fx) - a) <= 1e-12 * max(1.0, abs(a))

    def test_spread_under_arbitrary_rotation(self):
        x = synthetic_image(64, 0, mesh=1 / 3)
        rows = regularizer_rotation_table(x, n_angles=8)
        assert len(rows) == 32
        by_kind = {}
        for kind, _, value in rows:
            by_kind.setdefault(kind, []).append(value)
        for kind, values in by_kind.items():
            assert relative_spread(values) < 0.05, kind

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown regularizer"):
            RegularizerSpec("TV")
        for epsilon in (0.0, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                RegularizerSpec("LapL0", epsilon=epsilon)
        for crop in (0, True, 1.5):
            with pytest.raises(ValueError, match="crop"):
                RegularizerSpec("L1", crop=crop)
        with pytest.raises(ValueError, match="crop"):
            regularizer_value(RegularizerSpec("L1", crop=4), PlanarImage(np.zeros((8, 8, 1))))
        for n_angles in (0, True, 2.5):
            with pytest.raises(ValueError, match="n_angles must be an integer >= 1"):
                regularizer_rotation_table(synthetic_image(16, 0), n_angles=n_angles)

    def test_table_layout(self):
        x = synthetic_image(16, 2, mesh=1 / 3)
        rows = regularizer_rotation_table(x, n_angles=4)
        angles = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        assert [(k, th) for k, th, _ in rows] == [(k, th) for k in REGULARIZER_KINDS for th in angles]


class TestRelativeSpread:
    def test_hand_values(self):
        assert relative_spread([1.0, 2.0, 3.0]) == 1.0
        assert relative_spread([5.0, 5.0]) == 0.0
        assert relative_spread([0.0, 0.0]) == 0.0


class TestEmit:
    def _report(self):
        net = make_audit_net(4, channels=2, n_conv=2, seed=82)
        img = synthetic_image(16, 8, mesh=1 / 3)
        bi = bound_inputs_for(net, [img])
        return measure_equivariance(net, [img], angles=[np.pi / 2], bound_inputs=bi)

    def test_sweep_csv_roundtrip(self, tmp_path):
        report = self._report()
        csv_path, summary_path = emit_report([report], tmp_path / "sweep.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,p,N,mean_error,max_error,bound,bound_satisfied"
        fields = lines[1].split(",")
        assert fields[0] == "4" and fields[6] == "true"
        assert float(fields[3]) == report.mean_error  # 17 digits roundtrip
        assert float(fields[5]) == report.bound
        assert summary_path.name == "sweep_summary.txt"
        assert "bound_satisfied: true" in summary_path.read_text()

    def test_emit_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="no reports"):
            emit_report([], tmp_path / "x.csv")
        hollow = EquivarianceReport(errors=(), bound=None, t=1, p=3, N=1)
        with pytest.raises(ValueError, match="empty angle list"):
            emit_report([hollow], tmp_path / "x.csv")
        with pytest.raises(ValueError, match="no rows"):
            emit_regularizer_report([], tmp_path / "y.csv")

    def test_regularizer_csv_layout(self, tmp_path):
        x = synthetic_image(16, 9, mesh=1 / 3)
        rows = regularizer_rotation_table(x, n_angles=2)
        csv_path, summary_path = emit_regularizer_report(rows, tmp_path / "reg.csv")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "regularizer,angle_rad,value"
        assert len(lines) == 1 + 2 * len(REGULARIZER_KINDS)
        kind, theta, value = lines[1].split(",")
        assert kind == "L1" and float(theta) == 0.0
        assert float(value) == rows[0][2]
        summary = summary_path.read_text().splitlines()
        assert len(summary) == len(REGULARIZER_KINDS)
        assert summary[0].startswith("L1: mean=")
        assert "relative_spread=" in summary[0]
