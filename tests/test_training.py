import math

import numpy as np
import pytest
from support import (
    GRAD_CHECK_FAMILIES,
    count_conv_calls,
    directional_grad_check,
    min_relu_gap,
    per_image_train,
    sample_grad_config,
)

from rotprox import (
    Adam,
    Bias,
    FourierBasis,
    Lift,
    NetworkSpec,
    OrientationPool,
    PlanarImage,
    SGD,
    TrainingDivergence,
    forward,
    forward_with_tape,
    init_network,
    make_denoiser_net,
    mse_loss,
    train_denoiser,
    weight_banks,
)
from rotprox import layers
from rotprox.layers import parameters
from rotprox.training import backward, chain_grads
from rotprox.synthetic import synthetic_image

FAMILY_SEEDS = {
    "plain_conv": 41,
    "lift": 42,
    "group_conv": 43,
    "pooled": 44,
    "residual": 45,
}


class TestGradients:
    @pytest.mark.parametrize("family", GRAD_CHECK_FAMILIES)
    def test_directional_derivative_matches(self, family):
        rng = np.random.default_rng(FAMILY_SEEDS[family])
        for _ in range(10):
            net, x, target = sample_grad_config(family, rng)
            rel, analytic, numeric = directional_grad_check(net, x, target, rng)
            assert rel < 1e-4, (family, rel, analytic, numeric)

    def test_fft_route_denoiser_directional_derivative(self):
        # p = 9 group convs with several input slices take correlate_stack's FFT
        # route in reverse; the sampled families stop at p = 5 (im2col)
        rng = np.random.default_rng(49)
        net = init_network(make_denoiser_net(2, channels=2, p=9, cutoff=4), seed=49)
        for layer in net.layers:
            if isinstance(layer, Bias):
                layer.values[:] = 0.05 * rng.standard_normal(layer.values.shape)
        xs = [PlanarImage(rng.standard_normal((16, 16, 1))) for _ in range(20)]
        x = max(xs, key=lambda x: min_relu_gap(net, x))
        rel, analytic, numeric = directional_grad_check(net, x, rng.standard_normal((16, 16, 1)), rng)
        assert rel < 1e-4, (rel, analytic, numeric)

    def test_tape_backs_repeated_backward(self):
        # backward only reads the tape, so a second pass gives the same bytes
        net = init_network(make_denoiser_net(channels=2, p=3, cutoff=1), seed=46)
        x = synthetic_image(10, 0)
        out, tape = forward_with_tape(net, x)
        seed_grad = np.random.default_rng(46).standard_normal(out.data.shape)
        first = backward(tape, seed_grad)
        second = backward(tape, seed_grad)
        assert first.keys() == second.keys()
        for key in first:
            assert first[key].tobytes() == second[key].tobytes(), key

    def test_seed_gradient_shape_checked(self):
        net = init_network(make_denoiser_net(channels=2, p=3, cutoff=1), seed=47)
        out, tape = forward_with_tape(net, synthetic_image(10, 1))
        with pytest.raises(ValueError, match="shape"):
            backward(tape, np.ones((3, 3, 1)))

    def test_taped_forward_matches_plain_forward(self):
        net = init_network(make_denoiser_net(4, channels=2, p=3, cutoff=1), seed=48)
        x = synthetic_image(10, 2)
        out, _ = forward_with_tape(net, x)
        np.testing.assert_array_equal(out.data, forward(net, x).data)

    def test_shared_banks_and_split_chain_match(self, monkeypatch):
        # banks prebuilt by a twin spec over the same layers are the ones a pass
        # builds for itself, and backward's local gradients are tap gradients
        # that chain_grads carries onto the coefficients
        net = init_network(make_denoiser_net(4, channels=2, p=3, cutoff=1), seed=50)
        x = synthetic_image(10, 3)
        own_out = forward(net, x).data
        _, own = forward_with_tape(net, x)
        banks = weight_banks(NetworkSpec(net.layers))
        assert sorted(banks) == [0, 3, 6, 10]  # the denoiser's lift and three group convs
        monkeypatch.setattr(layers, "weight_banks", lambda _: banks)
        np.testing.assert_array_equal(forward(net, x).data, own_out)
        out, shared = forward_with_tape(net, x)
        seed_grad = np.linspace(-1.0, 1.0, out.data.size).reshape(out.data.shape)
        local = backward(shared, seed_grad)
        own_local = backward(own, seed_grad)
        assert local[(0, "coeffs")].shape == banks[0].shape
        assert list(local) == list(own_local)
        for key in local:
            np.testing.assert_array_equal(local[key], own_local[key])
        chained = chain_grads(net.layers, local)
        assert list(chained) == list(local)
        assert chained[(0, "coeffs")].shape == net.layers[0].coeffs.shape


class TestLossAndVjps:
    def test_mse_hand_values(self):
        loss, grad = mse_loss(np.array([1.0, 3.0]), np.array([0.0, 1.0]))
        assert loss == 2.5
        np.testing.assert_array_equal(grad, [1.0, 2.0])
        with pytest.raises(ValueError, match="mismatch"):
            mse_loss(np.zeros(3), np.zeros(4))


class TestOptimizers:
    def _one_conv_net(self, value=1.0):
        basis = FourierBasis(3, 1)
        return NetworkSpec([Lift(1, basis, np.full((1, 1, basis.size), value)), OrientationPool()])

    def test_sgd_step(self):
        net = self._one_conv_net()
        g = np.full((1, 1, 5), 2.0)
        SGD(0.25).apply(net, {(0, "coeffs"): g})
        np.testing.assert_array_equal(net.layers[0].coeffs, np.full((1, 1, 5), 0.5))

    def test_sgd_skips_missing_grads(self):
        net = self._one_conv_net()
        SGD(0.25).apply(net, {})
        np.testing.assert_array_equal(net.layers[0].coeffs, np.ones((1, 1, 5)))

    def test_adam_first_step_is_scaled_sign(self):
        net = self._one_conv_net(0.0)
        g = np.full((1, 1, 5), 3.0)
        Adam(lr=0.1).apply(net, {(0, "coeffs"): g})
        want = -0.1 * 3.0 / (3.0 + 1e-8)
        np.testing.assert_allclose(net.layers[0].coeffs, np.full((1, 1, 5), want), rtol=1e-15)

    def test_adam_two_steps_hand_rolled(self):
        net = self._one_conv_net(0.0)
        opt = Adam(lr=0.1)
        g1 = np.full((1, 1, 5), 3.0)
        g2 = np.full((1, 1, 5), -1.0)
        opt.apply(net, {(0, "coeffs"): g1})
        opt.apply(net, {(0, "coeffs"): g2})
        m = 0.9 * (0.1 * 3.0) + 0.1 * (-1.0)
        v = 0.999 * (0.001 * 9.0) + 0.001 * 1.0
        second = 0.1 * (m / (1 - 0.9**2)) / (np.sqrt(v / (1 - 0.999**2)) + 1e-8)
        want = -0.1 * 3.0 / (3.0 + 1e-8) - second
        np.testing.assert_allclose(net.layers[0].coeffs, np.full((1, 1, 5), want), rtol=1e-12)


class TestTrainDenoiser:
    def _pairs(self, n=2, size=12, sigma=0.2, seed=52):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n):
            clean = synthetic_image(size, 60 + i)
            noisy = PlanarImage(clean.data + sigma * rng.standard_normal(clean.data.shape))
            out.append((clean, noisy))
        return out

    def test_loss_decreases(self):
        net = init_network(make_denoiser_net(channels=2, p=3, cutoff=1), seed=53)
        _, trace = train_denoiser(net, self._pairs(), Adam(lr=1e-2), 20)
        assert len(trace) == 21
        assert trace[-1] < trace[0]

    def test_deterministic_repeat(self):
        runs = []
        for _ in range(2):
            net = init_network(make_denoiser_net(channels=2, p=3, cutoff=1), seed=54)
            net, trace = train_denoiser(net, self._pairs(), Adam(lr=1e-2), 5)
            runs.append((trace, [a.copy() for _, _, a in parameters(net)]))
        assert runs[0][0] == runs[1][0]
        for a, b in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_perfect_data_is_a_fixed_point(self):
        # zero-initialized final conv means prediction == noisy; with noisy ==
        # clean the loss starts at 0, gradients vanish, Adam must not move
        net = make_denoiser_net(channels=2, p=3, cutoff=1)
        before = [a.copy() for _, _, a in parameters(net)]
        clean = synthetic_image(12, 62)
        _, trace = train_denoiser(net, [(clean, clean)], Adam(lr=1e-3), 3)
        assert trace == [0.0, 0.0, 0.0, 0.0]
        for a, (_, _, b) in zip(before, parameters(net)):
            np.testing.assert_array_equal(a, b)

    def test_divergence_guard_in_loop(self):
        clean = synthetic_image(12, 63)
        rough = PlanarImage(clean.data + 2000.0, mesh=clean.mesh)
        net = make_denoiser_net(channels=2, p=3, cutoff=1)
        with pytest.raises(TrainingDivergence) as err:
            train_denoiser(net, [(clean, rough)], SGD(0.1), 5)
        assert err.value.trace == [4000000.0]

    def test_non_finite_feature_map_is_divergence(self):
        # Adam's first step moves every coefficient by about lr, so the next
        # forward overflows; that epoch's loss reads nan
        net = init_network(make_denoiser_net(channels=2, p=3, cutoff=1), seed=58)
        with pytest.raises(TrainingDivergence) as err:
            train_denoiser(net, self._pairs(), Adam(lr=1e300), 1)
        trace = err.value.trace
        assert len(trace) == 2 and math.isfinite(trace[0]) and math.isnan(trace[1])

    @pytest.mark.parametrize("n", [1, 3])
    def test_epoch_builds_each_bank_twice_and_chains_once(self, monkeypatch, n):
        # one bank for the taped pass and one for the final loss-only pass, and
        # one coefficient chain per conv, whatever the number of images
        net = init_network(make_denoiser_net(channels=2, p=3, cutoff=1), seed=55)
        builds = count_conv_calls(monkeypatch, "weights")
        chains = count_conv_calls(monkeypatch, "coeff_grad")
        train_denoiser(net, self._pairs(n=n), Adam(lr=1e-2), 1)
        convs = [id(layer) for layer in net.conv_layers]
        assert len(convs) == 4
        assert builds == dict.fromkeys(convs, 2)
        assert chains == dict.fromkeys(convs, 1)

    def test_matches_per_image_chaining(self):
        # summing tap gradients before the chain rule only reassociates the sum
        pairs = self._pairs(n=3)
        nets = [init_network(make_denoiser_net(channels=2), seed=57) for _ in range(2)]
        _, trace = train_denoiser(nets[0], pairs, Adam(lr=1e-2), 6)
        want = per_image_train(nets[1], pairs, Adam(lr=1e-2), 6)
        assert len(trace) == 7
        np.testing.assert_allclose(trace, want, rtol=1e-13, atol=0)
        for (_, _, a), (_, _, b) in zip(parameters(nets[0]), parameters(nets[1])):
            np.testing.assert_allclose(a, b, rtol=1e-13, atol=0)

    def test_divergence_guard_on_final_evaluation(self):
        clean = synthetic_image(12, 63)
        rough = PlanarImage(clean.data + 2000.0, mesh=clean.mesh)
        net = make_denoiser_net(channels=2, p=3, cutoff=1)
        with pytest.raises(TrainingDivergence):
            train_denoiser(net, [(clean, rough)], SGD(0.1), 0)

    def test_input_validation(self):
        net = make_denoiser_net(channels=2, p=3, cutoff=1)
        with pytest.raises(ValueError, match="empty"):
            train_denoiser(net, [], SGD(0.1), 1)
        clean = synthetic_image(8, 64)
        small = synthetic_image(6, 64)
        with pytest.raises(ValueError, match="mismatch"):
            train_denoiser(net, [(clean, small)], SGD(0.1), 1)
        rgbish = PlanarImage(np.zeros((8, 8, 2)))
        with pytest.raises(ValueError, match="channels"):
            train_denoiser(net, [(rgbish, rgbish)], SGD(0.1), 1)
        for epochs in (-3, True, 1.5):  # -3 once returned a one-entry trace
            with pytest.raises(ValueError, match="epochs must be an integer >= 0"):
                train_denoiser(net, [(clean, clean)], SGD(0.1), epochs)
