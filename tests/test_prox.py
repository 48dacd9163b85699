import numpy as np
import pytest
from support import (
    check_prox_equivariance,
    count_conv_calls,
    reference_tv_prox,
    tv_objective,
    tv_prox_dual_qp,
    tv_value_aniso,
)

from rotprox import (
    Identity,
    NetworkSpec,
    NeuralProx,
    PlanarImage,
    SoftThreshold,
    TVProx,
    UnfoldingConfig,
    degrade,
    init_network,
    ista_solve,
    make_denoiser_net,
    neural_prox,
    soft_threshold,
    tv_prox,
)
from rotprox import prox
from rotprox.synthetic import synthetic_image


def plane_image(rows, mesh=1.0):
    arr = np.asarray(rows, dtype=float)
    return PlanarImage(arr[:, :, None], mesh=mesh)


class TestSoftThreshold:
    def test_hand_values(self):
        x = plane_image([[-3.0, -0.5, 0.0, 0.25, 1.75]])
        out = soft_threshold(x, 0.5)
        np.testing.assert_array_equal(out.data.ravel(), [-2.5, 0.0, 0.0, 0.0, 1.25])

    def test_zero_weight_returns_input_object(self):
        x = plane_image([[1.0, 2.0]])
        assert soft_threshold(x, 0.0) is x

    def test_negative_weight_rejected(self):
        x = plane_image([[1.0]])
        with pytest.raises(ValueError, match=">= 0"):
            soft_threshold(x, -0.1)
        with pytest.raises(ValueError, match=">= 0"):
            SoftThreshold(-0.1)

    def test_shrinkage_magnitude(self):
        rng = np.random.default_rng(20)
        data = rng.standard_normal((6, 6, 2))
        out = soft_threshold(PlanarImage(data), 0.4)
        np.testing.assert_array_equal(np.abs(out.data), np.maximum(np.abs(data) - 0.4, 0.0))
        assert np.all(out.data * data >= 0.0)

    @pytest.mark.parametrize("w", [0.25, 1, np.float32(0.5), 3.0])
    def test_matches_textbook_formula_bit_for_bit(self, w):
        # |x| <= w gives +0.0 before the sign, so negative such entries end as -0.0
        rng = np.random.default_rng(22)
        data = rng.standard_normal((7, 9, 2)) * 2.0
        data.flat[:6] = [-0.0, 0.0, -0.25, 0.25, -1.0, -0.5]
        want = np.sign(data) * np.maximum(np.abs(data) - w, 0.0)
        assert np.signbit(want[want == 0.0]).any()
        assert soft_threshold(PlanarImage(data), w).data.tobytes() == want.tobytes()

    def test_one_lipschitz(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.standard_normal((5, 5, 1))
            b = rng.standard_normal((5, 5, 1))
            da = soft_threshold(PlanarImage(a), 0.3).data
            db = soft_threshold(PlanarImage(b), 0.3).data
            assert np.all(np.abs(da - db) <= np.abs(a - b) + 1e-12)

    def test_quarter_turn_commutes(self):
        x = synthetic_image(32, 9, mesh=1 / 3)
        for theta in (np.pi / 2, np.pi, -np.pi / 2):
            assert check_prox_equivariance(SoftThreshold(0.3), x, theta) <= 1e-14

    def test_mesh_preserved(self):
        x = plane_image([[1.0, -1.0]], mesh=0.5)
        assert soft_threshold(x, 0.1).mesh == 0.5


class TestTVHandValues:
    def test_tv_value(self):
        assert tv_value_aniso(np.array([[0.0, 1.0], [2.0, 3.0]])) == 6.0

    def test_two_pixel_shrink(self):
        res = tv_prox(plane_image([[0.0, 1.0]]), 0.2, tol=1e-12, max_iter=10000)
        assert res.converged
        np.testing.assert_allclose(res.image.data.ravel(), [0.2, 0.8], atol=1e-9)

    def test_two_pixel_collapse_to_mean(self):
        res = tv_prox(plane_image([[0.0, 1.0]]), 0.6, tol=1e-12, max_iter=10000)
        np.testing.assert_allclose(res.image.data.ravel(), [0.5, 0.5], atol=1e-9)

    def test_three_pixel_staircase(self):
        # interior stationarity: ends move in by w, the middle pixel stays
        res = tv_prox(plane_image([[0.0, 3.0, 6.0]]), 1.0, tol=1e-12, max_iter=20000)
        np.testing.assert_allclose(res.image.data.ravel(), [1.0, 3.0, 5.0], atol=1e-8)


class TestTVOracle:
    def test_one_row_matches_exact_dual_qp(self):
        rng = np.random.default_rng(22)
        for weight in (0.1, 0.35):
            for _ in range(3):
                plane = rng.standard_normal((1, 9))
                got = tv_prox(PlanarImage(plane[:, :, None]), weight, tol=1e-12, max_iter=20000)
                want = tv_prox_dual_qp(plane, weight, method="bvls")
                assert got.converged
                assert np.max(np.abs(got.image.data[:, :, 0] - want)) <= 1e-6

    def test_plane_matches_dual_qp(self):
        rng = np.random.default_rng(23)
        for seed_unused in range(3):
            plane = rng.standard_normal((6, 6))
            got = tv_prox(PlanarImage(plane[:, :, None]), 0.3, tol=1e-12, max_iter=40000)
            want = tv_prox_dual_qp(plane, 0.3, method="trf")
            assert np.max(np.abs(got.image.data[:, :, 0] - want)) <= 1e-5
            obj_got = tv_objective(got.image.data[:, :, 0], plane, 0.3)
            obj_want = tv_objective(want, plane, 0.3)
            assert abs(obj_got - obj_want) <= 1e-8 * max(1.0, abs(obj_want))

    def test_channels_processed_independently(self):
        rng = np.random.default_rng(24)
        data = rng.standard_normal((5, 5, 2))
        both = tv_prox(PlanarImage(data), 0.2, tol=1e-10, max_iter=5000)
        for c in range(2):
            single = tv_prox(PlanarImage(data[:, :, c : c + 1]), 0.2, tol=1e-10, max_iter=5000)
            np.testing.assert_array_equal(both.image.data[:, :, c], single.image.data[:, :, 0])


class TestTVContract:
    def test_zero_weight_identity(self):
        x = plane_image([[1.0, 5.0]])
        res = tv_prox(x, 0.0)
        assert res.image is x
        assert res.converged
        assert res.iterations == 0

    def test_invalid_arguments(self):
        x = plane_image([[1.0]])
        with pytest.raises(ValueError, match=">= 0"):
            tv_prox(x, -1.0)
        with pytest.raises(ValueError, match="> 0"):
            tv_prox(x, 0.1, tol=0.0)
        with pytest.raises(ValueError, match=">= 0"):
            TVProx(-1.0)
        with pytest.raises(ValueError, match="> 0"):
            TVProx(0.1, tol=-1e-3)
        bad = [
            ({"max_iter": 0}, "max_iter"),
            ({"max_iter": -3}, "max_iter"),
            ({"max_iter": True}, "max_iter"),
            ({"max_iter": np.True_}, "max_iter"),
            ({"max_iter": 1.5}, "max_iter"),
            ({"max_iter": "5"}, "max_iter"),
            ({"tol": "a"}, "tol"),
            ({"tol": True}, "tol"),
            ({"tol": float("nan")}, "tol"),
            ({"w": "x"}, "weight"),
            ({"w": True}, "weight"),
            ({"w": float("nan")}, "weight"),
        ]
        for change, match in bad:
            args = {"w": 0.1, "tol": 1e-8, "max_iter": 5} | change
            with pytest.raises(ValueError, match=match):
                tv_prox(x, **args)
            with pytest.raises(ValueError, match=match):
                TVProx(args["w"], tol=args["tol"], max_iter=args["max_iter"])
            if "w" in change:
                with pytest.raises(ValueError, match=match):
                    SoftThreshold(args["w"])
                with pytest.raises(ValueError, match=match):
                    soft_threshold(x, args["w"])

    @pytest.mark.parametrize("w", [float("inf"), 1e-320, 10**400])
    def test_weight_and_dual_step_must_be_finite(self, w):
        # an infinite weight, or one whose dual step TV_DUAL_STEP / w overflows,
        # would turn every iterate into NaN and return the input unconverged
        x = plane_image([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        with pytest.raises(ValueError, match="weight"):
            tv_prox(x, w, max_iter=50)
        with pytest.raises(ValueError, match="weight"):
            TVProx(w)

    def test_accepts_numpy_scalars(self):
        x = plane_image([[0.0, 1.0]])
        want = tv_prox(x, 0.2, 1e-6, 50).image.data
        got = TVProx(np.float64(0.2), tol=np.float64(1e-6), max_iter=np.int64(50))(x).data
        np.testing.assert_array_equal(got, want)

    def test_objective_never_exceeds_input(self):
        # even a single forced iteration must not move uphill
        rng = np.random.default_rng(25)
        plane = rng.standard_normal((7, 7))
        x = PlanarImage(plane[:, :, None])
        for w, max_iter in ((0.3, 1), (50.0, 1), (0.3, 2000)):
            res = tv_prox(x, w, tol=1e-10, max_iter=max_iter)
            obj = tv_objective(res.image.data[:, :, 0], plane, w)
            assert obj <= tv_objective(plane, plane, w) + 1e-12

    def test_convergence_flag(self):
        rng = np.random.default_rng(26)
        x = PlanarImage(rng.standard_normal((6, 6, 1)))
        assert not tv_prox(x, 0.3, tol=1e-12, max_iter=1).converged
        done = tv_prox(x, 0.3, tol=1e-8, max_iter=5000)
        assert done.converged
        assert done.iterations < 5000

    def test_nonexpansive(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((5, 5, 1))
        b = a + 0.3 * rng.standard_normal((5, 5, 1))
        pa = tv_prox(PlanarImage(a), 0.25, tol=1e-12, max_iter=20000).image.data
        pb = tv_prox(PlanarImage(b), 0.25, tol=1e-12, max_iter=20000).image.data
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-6

    def test_quarter_turn_commutes(self):
        x = synthetic_image(24, 10, mesh=1 / 3)
        p = TVProx(0.15, tol=1e-10, max_iter=5000)
        assert check_prox_equivariance(p, x, np.pi / 2) <= 1e-6


class TestTVReferenceLoop:
    """tv_prox against the loop that recomputes and reallocates every iterate
    (tests/support.py): same output bytes, same stopping iteration."""

    STOPS = {"early": (1e-3, 2000), "first": (1e-12, 1), "cap": (1e-300, 20)}

    @pytest.mark.parametrize("stop", sorted(STOPS))
    @pytest.mark.parametrize("weight", [1e-4, 0.05, 0.5, 50.0])
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("shape", [(1, 2), (17, 23), (64, 64)])
    def test_bit_identical(self, shape, channels, weight, stop):
        tol, max_iter = self.STOPS[stop]
        x = PlanarImage(np.random.default_rng(7).standard_normal((*shape, channels)))
        before = x.data.tobytes()
        got = tv_prox(x, weight, tol, max_iter)
        want, converged, iterations = reference_tv_prox(x.data, weight, tol, max_iter)
        assert x.data.tobytes() == before
        assert got.image.data.tobytes() == want.tobytes()
        assert (got.converged, got.iterations) == (converged, iterations)
        if stop == "early":
            assert converged and iterations < max_iter
        elif stop == "first":
            assert iterations == 1
        else:  # only a dual that stops moving exactly can beat a 1e-300 tolerance
            assert iterations == max_iter or converged


class TestNeuralProx:
    def test_identity_at_zeroed_final_conv(self):
        p = NeuralProx(make_denoiser_net(seed=0))
        x = synthetic_image(16, 11)
        np.testing.assert_array_equal(p(x).data, x.data)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(28)
        x = PlanarImage(rng.standard_normal((8, 8, 2)))
        with pytest.raises(ValueError, match="image space"):
            neural_prox(x, make_denoiser_net(seed=0))

    def test_solve_builds_each_bank_once(self, monkeypatch):
        builds, prox_calls, call = count_conv_calls(monkeypatch, "weights"), [], prox.neural_prox

        def counted_call(*args):
            prox_calls.append(1)
            return call(*args)

        monkeypatch.setattr(prox, "neural_prox", counted_call)
        net = init_network(make_denoiser_net(2, channels=2, p=3, cutoff=1), seed=29)
        y = degrade(Identity(), synthetic_image(12, 4), 0.1, 4)
        # at eta < 1 the prox inputs differ from step to step
        ista_solve(y, Identity(), UnfoldingConfig(20, 0.5, NeuralProx(net)))
        assert len(prox_calls) > 1
        assert builds == dict.fromkeys([id(layer) for layer in net.conv_layers], 1)

    def test_follows_its_nets_coefficients(self):
        # the net rebuilds its banks after a coefficient change, so a prox built
        # before the change runs the changed net
        net = init_network(make_denoiser_net(2, channels=2, p=3, cutoff=1), seed=30)
        p, x = NeuralProx(net), synthetic_image(12, 5)
        before = p(x).data
        net.layers[10].coeffs *= 2
        after = p(x).data
        assert after.tobytes() != before.tobytes()
        assert after.tobytes() == neural_prox(x, NetworkSpec(net.layers)).data.tobytes()

    def test_quarter_turn_commutes_for_random_net(self):
        net = init_network(make_denoiser_net(4, channels=3), seed=9)
        p = NeuralProx(net)
        x = synthetic_image(28, 12, mesh=1 / 3)
        assert check_prox_equivariance(p, x, np.pi / 2, crop=net.receptive_radius) <= 1e-12
