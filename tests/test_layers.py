import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import (
    PlainConv,
    act_on_feature_map,
    count_conv_calls,
    fft_overlap_save_correlate,
    full_banks,
    make_plain_net,
    one_shot_correlate,
    param_count,
    strided_conv_backward_weights,
)

from rotprox import (
    Adam,
    Bias,
    FourierBasis,
    GroupConv,
    Lift,
    NetworkSpec,
    NeuralProx,
    OrientationPool,
    PlanarImage,
    ReLU,
    ResidualAdd,
    forward,
    init_network,
    make_audit_net,
    make_denoiser_net,
    make_sweep_net,
    relative_difference,
    rotate_image,
    weight_banks,
)
from rotprox import layers
from rotprox.audit import SWEEP_RING_ORDERS
from rotprox.grids import NonFiniteError
from rotprox.layers import _BAND_BYTES, correlate_stack, group_conv, lift_conv
from rotprox.synthetic import ring_stack, synthetic_image
from rotprox.training import backward, chain_grads, forward_with_tape


def correlate_reference(arr, weights):
    """Quadruple-loop correlation with zero padding, SAME size."""
    h, w, _ = arr.shape
    ci, p, _, co = weights.shape
    m = (p - 1) // 2
    out = np.zeros((h, w, co))
    for i in range(h):
        for j in range(w):
            for u in range(p):
                for v in range(p):
                    ii, jj = i + u - m, j + v - m
                    if 0 <= ii < h and 0 <= jj < w:
                        out[i, j, :] += arr[ii, jj, :] @ weights[:, u, v, :]
    return out


class TestCorrelateStack:
    def test_matches_naive_loop(self):
        rng = np.random.default_rng(0)
        for h, w, ci, co, p in ((6, 6, 2, 3, 3), (5, 7, 1, 2, 5), (4, 4, 3, 1, 3)):
            arr = rng.standard_normal((h, w, ci))
            weights = rng.standard_normal((ci, p, p, co))
            got = correlate_stack(arr, weights)
            np.testing.assert_allclose(got, correlate_reference(arr, weights), atol=1e-12)

    def test_impulse_reads_out_reversed_taps(self):
        # correlation, not convolution: the impulse response is the flipped kernel
        rng = np.random.default_rng(1)
        taps = rng.standard_normal((1, 5, 5, 1))
        arr = np.zeros((11, 11, 1))
        arr[5, 5, 0] = 1.0
        out = correlate_stack(arr, taps)
        np.testing.assert_allclose(out[3:8, 3:8, 0], taps[0, ::-1, ::-1, 0], atol=1e-15)

    def test_im2col_window_is_read_only(self, monkeypatch):
        # the (H, W, u, v, Cin) window aliases every padded pixel p*p times
        views, as_strided = [], layers.as_strided

        def recorded(*args, **kwargs):
            views.append(as_strided(*args, **kwargs))
            return views[-1]

        monkeypatch.setattr(layers, "as_strided", recorded)
        rng = np.random.default_rng(2)
        correlate_stack(rng.standard_normal((8, 9, 3)), rng.standard_normal((3, 5, 5, 2)))
        assert len(views) == 1 and not views[0].flags.writeable

    def test_zero_padding(self):
        # a corner output sees only the in-grid quadrant of the kernel
        arr = np.ones((4, 4, 1))
        taps = np.ones((1, 3, 3, 1))
        out = correlate_stack(arr, taps)
        assert out[0, 0, 0] == 4.0
        assert out[1, 1, 0] == 9.0


class TestBandedCorrelation:
    """Shapes whose im2col patch matrix spans three or more band floors.

    On the im2col route they are lowered a band of output rows at a time; the
    p = 9, Cin > 1 shapes take the FFT route and check it at the same sizes.
    """

    # (H, W, Cin, p, Cout): non-square, H not a multiple of the band count, GEMV and GEMM
    SHAPES = [
        (97, 128, 400, 1, 2),
        (91, 75, 32, 5, 1),  # a GEMV bank: its bands differ from one GEMV in low bits, hence allclose
        (83, 100, 8, 9, 1),
        (83, 100, 8, 9, 2),
        (101, 64, 12, 9, 5),
        (120, 100, 8, 7, 3),
        (210, 200, 1, 9, 2),
        # the bench's banded convs: train, the restore neural prox and the audit lift
        (32, 32, 16, 5, 16),
        (32, 32, 16, 5, 1),
        (64, 64, 16, 5, 16),
        (128, 128, 1, 5, 72),
    ]

    @pytest.mark.parametrize("h, w, ci, p, co", SHAPES)
    def test_matches_one_shot_gemm(self, h, w, ci, p, co):
        n = h * w * ci * p * p * 8 // _BAND_BYTES
        bands = h // -(-h // n) if n > 1 else 1  # _correlate_im2col's band rule
        assert bands >= 3, "shape too small to force three bands"
        rng = np.random.default_rng(h + p + co)
        arr = rng.standard_normal((h, w, ci))
        weights = rng.standard_normal((ci, p, p, co))
        got = correlate_stack(arr, weights)
        np.testing.assert_allclose(got, one_shot_correlate(arr, weights), rtol=1e-12, atol=1e-12)
        assert got.tobytes() == correlate_stack(arr, weights).tobytes()

    def test_band_working_set(self):
        # restore's 64^2, 16 -> 16 conv: its full patch matrix is 12.5 MiB
        rng = np.random.default_rng(3)
        arr, weights = rng.standard_normal((64, 64, 16)), rng.standard_normal((16, 5, 5, 16))
        tracemalloc.start()
        try:
            correlate_stack(arr, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_sweep_group_conv_working_set(self):
        # t=24 sweep shape: 128^2, 72 -> 72 slices, p=9; the full patch matrix is 729 MiB
        layer = make_sweep_net(24, channels=3).layers[3]
        x = np.random.default_rng(7).standard_normal((128, 128, 24, 3))
        w = layer.weights()
        tracemalloc.start()
        try:
            group_conv(x, layer, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2**20


@st.composite
def correlate_shapes(draw):
    """(H, W, Cin, Cout, p) on either route; sides cluster at the FFT tile edges."""
    if draw(st.booleans()):
        p, ci = draw(st.sampled_from([9, 11])), draw(st.integers(2, 6))
    else:
        p, ci = draw(
            st.one_of(
                st.tuples(st.sampled_from([1, 3, 5, 7]), st.integers(1, 6)),
                st.tuples(st.sampled_from([9, 11]), st.just(1)),
            )
        )
    s = 2 * (p - 1)  # output side of one FFT tile of 3(p - 1) input pixels
    side = st.one_of(
        st.integers(1, max(s - 1, 1)),
        st.just(max(s, 1)),
        st.integers(1, 3).map(lambda k: k * s + 1),
        st.integers(1, 50),
    )
    return draw(side), draw(side), ci, draw(st.integers(1, 5)), p


class TestCorrelateProperty:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(correlate_shapes(), st.integers(0, 2**32 - 1))
    @example((7, 16, 3, 2, 9), 0)  # one side below one tile, the other exactly one tile
    @example((17, 33, 2, 4, 9), 1)  # k * s + 1: a last tile row and column of one pixel
    @example((21, 20, 4, 1, 11), 2)
    @example((16, 17, 1, 3, 9), 3)  # Cin = 1 stays on im2col
    def test_matches_one_shot_gemm(self, shape, seed):
        h, w, ci, co, p = shape
        rng = np.random.default_rng(seed)
        arr = rng.standard_normal((h, w, ci))
        weights = rng.standard_normal((ci, p, p, co))
        got = correlate_stack(arr, weights)
        np.testing.assert_allclose(got, one_shot_correlate(arr, weights), rtol=1e-12, atol=1e-12)
        assert got.tobytes() == correlate_stack(arr, weights).tobytes()


class TestConvReversePass:
    # (kind, t, Cin, Cout, p, H, W, route of the reverse correlation): the reverse
    # bank has t*Cout input slices, so p = 9 with more than one of them is FFT
    CASES = [
        ("lift", 4, 1, 2, 9, 20, 23, "fft"),
        ("group_conv", 2, 2, 3, 9, 19, 21, "fft"),
        ("group_conv", 1, 3, 1, 9, 18, 17, "im2col"),
        ("lift", 3, 2, 1, 5, 13, 11, "im2col"),
        ("group_conv", 4, 2, 2, 3, 12, 15, "im2col"),
        ("group_conv", 3, 1, 2, 5, 10, 9, "im2col"),
    ]

    @pytest.mark.parametrize("kind, t, ci, co, p, h, w, route", CASES)
    def test_input_gradient_is_adjoint_of_forward(self, monkeypatch, kind, t, ci, co, p, h, w, route):
        rng = np.random.default_rng(t + ci + co + p + h)
        basis = FourierBasis(p, (p - 1) // 2)
        if kind == "lift":
            layer = Lift(t, basis, rng.standard_normal((co, ci, basis.size)))
            x = rng.standard_normal((h, w, ci))
        else:
            layer = GroupConv(basis, rng.standard_normal((co, ci, t, basis.size)))
            x = rng.standard_normal((h, w, t, ci))
        out, saved = layer.forward(x, {}, layer.weights())
        g = rng.standard_normal(out.shape)
        fft_calls = []
        fft = layers._correlate_fft
        monkeypatch.setattr(layers, "_correlate_fft", lambda *a: fft_calls.append(1) or fft(*a))
        dx = layer.backward(g, saved, {})
        assert dx.shape == x.shape
        assert bool(fft_calls) == (route == "fft")
        np.testing.assert_allclose(np.vdot(out, g), np.vdot(x, dx), rtol=1e-12)


class TestWeightGradient:
    """The copy-free weight gradient against the per-tap strided-slice oracle."""

    # (H, W, S, Co, p): non-square, p from 1 to 9, one input slice or one output channel
    SHAPES = [
        (7, 11, 3, 2, 1),
        (9, 6, 1, 4, 3),
        (12, 17, 5, 1, 3),
        (13, 10, 4, 3, 5),
        (10, 19, 1, 1, 5),
        (16, 11, 6, 2, 9),
        (8, 9, 2, 1, 9),
    ]
    # train and restore conv shapes, (H, W, S, Co, p)
    BENCH_SHAPES = [
        (32, 32, 16, 16, 5),
        (32, 32, 16, 4, 5),
        (32, 32, 4, 16, 5),
        (64, 64, 16, 16, 5),
        (64, 64, 16, 4, 5),
    ]

    @pytest.mark.parametrize("h, w, s, co, p", SHAPES + BENCH_SHAPES)
    def test_matches_strided_oracle(self, h, w, s, co, p):
        rng = np.random.default_rng(h * w + s + co + p)
        x = rng.standard_normal((h, w, s))
        g = rng.standard_normal((h, w, co))
        got = layers._conv_backward_weights(x, g, p)
        assert got.shape == (s, p, p, co)
        np.testing.assert_allclose(got, strided_conv_backward_weights(x, g, p), rtol=1e-12, atol=1e-12)
        assert got.tobytes() == layers._conv_backward_weights(x, g, p).tobytes()

    @pytest.mark.parametrize("h, w, s, co, p", BENCH_SHAPES)
    def test_bench_shape_forward_matches_one_shot_gemm(self, h, w, s, co, p):
        rng = np.random.default_rng(h + s + co)
        arr = rng.standard_normal((h, w, s))
        weights = rng.standard_normal((s, p, p, co))
        got = correlate_stack(arr, weights)
        np.testing.assert_allclose(got, one_shot_correlate(arr, weights), rtol=1e-12, atol=1e-12)


class TestForwardWorkingSet:
    def test_sweep_forward_keeps_no_spent_activations(self):
        # t=24 sweep net at 128^2: each feature map is 9 MiB, and no layer reads
        # an earlier output, so none may outlive the layer that consumes it
        net = make_sweep_net(24, channels=3, seed=5)
        x = ring_stack(1, 128, 5, 1.0 / 6.0, orders=SWEEP_RING_ORDERS)[0]
        assert net.read_outputs() == frozenset()
        tracemalloc.start()
        try:
            forward(net, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


def _relative_gap(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestSweepConvsMatchFftOracle:
    """The FFT route at the sweep's 12 conv shapes (128^2, p = 9): each net's
    first group conv on its full 3t -> 3t bank and its pooled conv on the
    3t -> 3 orientation-mean bank, against the ``numpy.fft`` overlap-save oracle."""

    @pytest.mark.parametrize("bank", ["full", "pooled"])
    @pytest.mark.parametrize("t", [1, 2, 4, 8, 12, 24])
    def test_matches_numpy_fft_oracle(self, t, bank):
        weights = weight_banks(make_sweep_net(t, seed=5))[3 if bank == "full" else 6]
        assert weights.shape == (3 * t, 9, 9, 3 * t if bank == "full" else 3)
        arr = np.random.default_rng(t).standard_normal((128, 128, 3 * t))
        got = correlate_stack(arr, weights)
        assert _relative_gap(got, fft_overlap_save_correlate(arr, weights)) <= 1e-13
        assert got.tobytes() == correlate_stack(arr, weights).tobytes()


POOLED_NETS = {
    "sweep-t1": lambda: make_sweep_net(1, seed=5),
    "sweep-t2": lambda: make_sweep_net(2, seed=5),
    "sweep-t24": lambda: make_sweep_net(24, seed=5),
    "lift-pool": lambda: make_audit_net(6, channels=3, n_conv=1, seed=3),
    "denoiser": lambda: init_network(make_denoiser_net(4), seed=9),
}


class TestPooledBank:
    """The conv the final pool reads runs on its orientation-mean bank; the
    oracle runs every conv on its full bank and pools all t orientations."""

    @pytest.fixture(params=sorted(POOLED_NETS))
    def net_and_input(self, request):
        net = POOLED_NETS[request.param]()
        rng = np.random.default_rng(len(request.param))
        for layer in net.layers:
            # nonzero biases move the ReLU kinks off the factories' zero init
            if isinstance(layer, Bias):
                layer.values[:] = 0.1 * rng.standard_normal(layer.channels)
        return net, synthetic_image(28, 4, mesh=1 / 3)

    def test_forward_matches_full_banks(self, net_and_input, monkeypatch):
        net, x = net_and_input
        got = forward(net, x).data
        monkeypatch.setattr(layers, "weight_banks", full_banks)
        assert _relative_gap(got, forward(net, x).data) <= 1e-13

    def test_coefficient_gradients_match_full_banks(self, net_and_input, monkeypatch):
        net, x = net_and_input
        out, tape = forward_with_tape(net, x)
        seed_grad = np.random.default_rng(11).standard_normal(out.data.shape)
        got = chain_grads(net.layers, backward(tape, seed_grad))
        monkeypatch.setattr(layers, "weight_banks", full_banks)
        _, full_tape = forward_with_tape(net, x)
        want = chain_grads(net.layers, backward(full_tape, seed_grad))
        assert list(got) == list(want)
        for key in want:
            assert _relative_gap(got[key], want[key]) <= 1e-13, key

    def test_plain_and_taped_passes_are_bit_identical(self, net_and_input):
        net, x = net_and_input
        out = forward(net, x).data
        assert forward_with_tape(net, x)[0].data.tobytes() == out.tobytes()
        assert forward(net, x).data.tobytes() == out.tobytes()

    def test_only_the_pooled_conv_folds(self):
        net = make_sweep_net(24, seed=5)
        banks = weight_banks(net)
        assert [banks[i].shape[3] for i in (0, 3, 6)] == [72, 72, net.layers[6].out_channels]
        assert weight_banks(init_network(make_denoiser_net(4), seed=9))[10].shape == (16, 5, 5, 1)
        # a Bias between the conv and the pool keeps the full bank
        basis = FourierBasis(3, 1)
        rng = np.random.default_rng(12)
        chain = NetworkSpec(
            [
                Lift(4, basis, rng.standard_normal((2, 1, basis.size))),
                ReLU(),
                GroupConv(basis, rng.standard_normal((3, 2, 4, basis.size))),
                Bias(np.ones(3)),
                OrientationPool(),
            ]
        )
        assert weight_banks(chain)[2].shape == (8, 3, 3, 12)

    def test_sweep_forward_makes_three_correlations(self, monkeypatch):
        calls = []
        correlate = layers.correlate_stack
        monkeypatch.setattr(layers, "correlate_stack", lambda a, w: calls.append(w.shape) or correlate(a, w))
        forward(make_sweep_net(24, seed=5), synthetic_image(24, 5))
        assert calls == [(1, 5, 5, 72), (72, 9, 9, 72), (72, 9, 9, 3)]


class TestWeightBankCache:
    """A net builds its weight banks on first use and again after any coefficient change."""

    @staticmethod
    def _net():
        return init_network(make_denoiser_net(4, channels=2, p=3, cutoff=1), seed=13)

    def test_banks_are_kept_between_passes(self, monkeypatch):
        net = self._net()
        builds = count_conv_calls(monkeypatch, "weights")
        assert weight_banks(net) is weight_banks(net)
        forward(net, synthetic_image(10, 1))
        forward_with_tape(net, synthetic_image(10, 2))
        assert builds == dict.fromkeys([id(layer) for layer in net.conv_layers], 1)

    def test_banks_are_read_only(self):
        banks = weight_banks(self._net())
        assert sorted(banks) == [0, 3, 6, 10]
        for bank in banks.values():
            with pytest.raises(ValueError, match="read-only"):
                bank[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("change", ["adam", "in_place", "init_network", "assignment"])
    def test_banks_follow_the_coefficients(self, change):
        net = self._net()
        before = {idx: bank.tobytes() for idx, bank in weight_banks(net).items()}
        if change == "adam":
            out, tape = forward_with_tape(net, synthetic_image(10, 3))
            Adam(1e-2).apply(net, chain_grads(net.layers, backward(tape, np.ones_like(out.data))))
        elif change == "in_place":
            net.layers[3].coeffs *= 2
        elif change == "init_network":
            init_network(net, seed=14)
        else:
            net.layers[6].coeffs = net.layers[6].coeffs + 1.0
        got = weight_banks(net)
        fresh = weight_banks(NetworkSpec(net.layers))  # a new spec over the same layers builds anew
        assert sorted(got) == sorted(fresh)
        for idx in fresh:
            assert got[idx].tobytes() == fresh[idx].tobytes(), idx
        assert any(got[idx].tobytes() != before[idx] for idx in before)


class TestCoefficientReassignment:
    """A reassigned ``coeffs`` is checked against the chain on the next pass."""

    @staticmethod
    def _net():
        return make_denoiser_net(t=2, channels=2, p=3, cutoff=1)

    def test_output_channels_follow_the_last_conv(self):
        net = self._net()
        net.layers[10].coeffs = np.random.default_rng(3).standard_normal((2, 2, 2, 5))
        assert net.out_channels == 2
        with pytest.raises(ValueError, match="layer 10 outputs 2 channels, the image has 1"):
            NeuralProx(net)(synthetic_image(12, 6))

    @pytest.mark.parametrize("tape", [False, True])
    def test_same_bytes_in_a_new_shape_breaks_the_chain(self, tape):
        # the bank key holds each shape: the bytes alone would reuse the old bank
        net, x = self._net(), synthetic_image(12, 7)
        forward(net, x)
        net.layers[6].coeffs = net.layers[6].coeffs.reshape(2, 1, 4, 5)
        with pytest.raises(ValueError, match="^layer 6: GroupConv expects 1 channels, chain has 2"):
            forward_with_tape(net, x) if tape else forward(net, x)

    def test_a_breaking_change_raises_on_every_pass(self):
        net, x = self._net(), synthetic_image(12, 8)
        net.layers[3].coeffs = np.zeros((3, 2, 2, 5))
        for _ in range(2):
            with pytest.raises(ValueError, match="^layer 4: Bias has 2 values, chain has 3 channels"):
                forward(net, x)


class TestStoredOnce:
    """A conv stores its group order (Lift only), basis and coefficients; its channel
    counts, and a GroupConv's order, are read off the coefficient shape."""

    def test_conv_fields(self):
        assert [f.name for f in dataclasses.fields(Lift)] == ["group_order", "basis", "coeffs"]
        assert [f.name for f in dataclasses.fields(GroupConv)] == ["basis", "coeffs"]

    @staticmethod
    def _check_counts(net):
        for layer in net.conv_layers:
            counts = (layer.out_channels, layer.in_channels)
            assert counts == layer.coeffs.shape[:2]
            assert all(type(c) is int for c in counts)
        assert [(l.in_channels, l.out_channels) for l in net.conv_layers] == [(1, 3), (3, 3), (3, 3), (3, 1)]
        assert [l.group_order for l in net.conv_layers] == [4, 4, 4, 4]

    def test_channel_counts_follow_the_coefficients(self):
        net = init_network(make_denoiser_net(4, channels=3, p=3, cutoff=1), seed=21)
        self._check_counts(net)
        out, tape = forward_with_tape(net, synthetic_image(10, 4))
        Adam(1e-2).apply(net, chain_grads(net.layers, backward(tape, np.ones_like(out.data))))
        self._check_counts(net)


class TestIdentity:
    """Layers and networks own arrays and derived state, so they compare and hash by identity."""

    def test_layers_and_networks_compare_by_identity(self):
        a, b = (make_denoiser_net(4, channels=2, p=3, cutoff=1, seed=0) for _ in range(2))
        assert {type(l).__name__ for l in a.layers} == {
            "Lift", "GroupConv", "Bias", "ReLU", "ResidualAdd", "OrientationPool"
        }
        for i, (la, lb) in enumerate(zip(a.layers, b.layers)):
            assert la == la and la != lb
            assert a.layers.index(la) == i
            assert la in a.layers and la not in b.layers
            assert len({la, lb}) == 2 and hash(la) == hash(la)
        assert a == a and a != b and len({a, b}) == 2
        assert [a, b].index(b) == 1


class TestLiftEquivariance:
    def test_quarter_turn_single_layer(self):
        basis = FourierBasis(5, 2)
        rng = np.random.default_rng(2)
        layer = Lift(4, basis, rng.standard_normal((3, 1, basis.size)))
        x = synthetic_image(16, 0, mesh=1 / 3)
        w = layer.weights()
        lhs = lift_conv(rotate_image(x, np.pi / 2).data, layer, w)
        rhs = act_on_feature_map(lift_conv(x.data, layer, w), np.pi / 2, 1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_quarter_turn_full_net(self):
        net = make_audit_net(4, seed=3)
        x = synthetic_image(24, 1, mesh=1 / 3)
        lhs = forward(net, rotate_image(x, np.pi / 2))
        rhs = rotate_image(forward(net, x), np.pi / 2)
        assert relative_difference(lhs, rhs) < 1e-12

    def test_group_conv_layer_equivariant(self):
        basis = FourierBasis(5, 2)
        rng = np.random.default_rng(4)
        layer = GroupConv(basis, rng.standard_normal((3, 2, 4, basis.size)))
        f = rng.standard_normal((12, 12, 4, 2))
        w = layer.weights()
        lhs = group_conv(act_on_feature_map(f, np.pi / 2, 1), layer, w)
        rhs = act_on_feature_map(group_conv(f, layer, w), np.pi / 2, 1)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_all_four_quarter_turns(self):
        net = make_audit_net(4, channels=3, seed=5)
        x = synthetic_image(16, 2, mesh=1 / 3)
        base = forward(net, x)
        for k in range(4):
            theta = k * np.pi / 2
            lhs = forward(net, rotate_image(x, theta))
            rhs = rotate_image(base, theta)
            assert np.max(np.abs(lhs.data - rhs.data)) < 1e-12

    def test_order_one_net_matches_plain_conv_chain(self):
        # t=1 drains the fiber: same seed must reproduce the plain baseline
        x = synthetic_image(16, 3, mesh=1 / 3)
        equivariant = forward(make_audit_net(1, seed=6), x)
        plain = forward(make_plain_net(seed=6), x)
        np.testing.assert_allclose(equivariant.data, plain.data, atol=1e-12)


class TestLayerSemantics:
    def test_orientation_pool_is_fiber_mean(self):
        rng = np.random.default_rng(7)
        net = NetworkSpec([Lift(4, FourierBasis(3, 1), rng.standard_normal((2, 2, 5))), OrientationPool()])
        x = PlanarImage(rng.standard_normal((5, 5, 2)))
        lifted = lift_conv(x.data, net.layers[0], net.layers[0].weights())
        pooled = forward(net, x)
        np.testing.assert_allclose(pooled.data, lifted.mean(axis=2), atol=1e-15)

    def test_bias_shared_across_fiber(self):
        # the add over the flattened fiber is the broadcast add, bit for bit
        rng = np.random.default_rng(8)
        values = np.array([10.0, 20.0])
        for shape in [(4, 4, 3, 2), (4, 5, 1, 2), (3, 4, 2)]:
            f = rng.standard_normal(shape)
            out, saved = Bias(values).forward(f, {})
            assert saved is None and out.shape == f.shape
            np.testing.assert_array_equal(out, f + values)

    def test_relu_clamps(self):
        out, saved = ReLU().forward(np.array([[-1.0, 2.0]]).reshape(1, 2, 1), {})
        np.testing.assert_array_equal(out.ravel(), [0.0, 2.0])
        assert saved is out

    def test_relu_reverse_from_output_matches_input_mask(self):
        # saving the output instead of a mask of the input changes no gradient
        # bit, on the kink (0.0 and -0.0) or off it, for either sign of g
        pre = np.array([0.0, -0.0, -1.5, 2.0, 0.0, -0.0, -1.5, 2.0]).reshape(1, 8, 1)
        g = np.array([1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]).reshape(1, 8, 1)
        relu = ReLU()
        _, saved = relu.forward(pre, {})
        got = relu.backward(g, saved, {})
        assert got.tobytes() == (g * (pre > 0.0)).tobytes()

    def test_forward_wraps_once(self, monkeypatch):
        # layers pass bare arrays: one PlanarImage check per pass, for the
        # output (the input comes in already built)
        net = make_denoiser_net(seed=16)
        x = synthetic_image(12, 9)
        built = []
        check = PlanarImage.__post_init__
        monkeypatch.setattr(PlanarImage, "__post_init__", lambda self: built.append(type(self)) or check(self))
        out = forward(net, x)
        assert built == [PlanarImage]
        assert out.mesh == x.mesh

    @pytest.mark.parametrize("tape", [False, True])
    def test_non_finite_layer_output_names_the_layer(self, tape):
        net = make_denoiser_net(seed=17)
        net.layers[4].values[1] = np.inf
        x = synthetic_image(12, 10)
        with pytest.raises(NonFiniteError, match="layer 4 "):
            forward_with_tape(net, x) if tape else forward(net, x)

    def test_input_channels_checked(self):
        with pytest.raises(ValueError, match="2 channels, network expects 1"):
            forward(make_audit_net(2, seed=18), PlanarImage(np.zeros((6, 6, 2))))

    def test_residual_to_recorded_activation(self):
        basis = FourierBasis(3, 1)
        rng = np.random.default_rng(10)
        c0 = PlainConv(1, 2, basis, rng.standard_normal((2, 1, basis.size)))
        c1 = PlainConv(2, 2, basis, rng.standard_normal((2, 2, basis.size)))
        net = NetworkSpec([c0, ReLU(), c1, ResidualAdd(skip=0)])
        x = synthetic_image(8, 5)
        out = forward(net, x)
        a0 = forward(NetworkSpec([c0]), x)
        chain = forward(NetworkSpec([c0, ReLU(), c1]), x)
        np.testing.assert_allclose(out.data, chain.data + a0.data, atol=1e-15)


class TestNetworkValidation:
    basis = FourierBasis(3, 1)

    def conv(self, ci=1, co=1):
        return PlainConv(ci, co, self.basis, np.zeros((co, ci, self.basis.size)))

    def lift(self, t=4):
        return Lift(t, self.basis, np.zeros((1, 1, self.basis.size)))

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="at least one layer"):
            NetworkSpec([])

    def test_group_chain_must_end_planar(self):
        # a prox network maps images to images, so a lifted chain ends in a pool
        with pytest.raises(ValueError, match="maps images to images"):
            NetworkSpec([self.lift()])
        gc = GroupConv(self.basis, np.zeros((1, 1, 4, self.basis.size)))
        with pytest.raises(ValueError, match="maps images to images"):
            NetworkSpec([self.lift(), gc])

    def test_order_comes_from_the_lift(self):
        net = NetworkSpec([self.lift(6), OrientationPool()])
        assert net.group_order == 6
        assert net.out_channels == 1
        assert NetworkSpec([self.conv()]).group_order == 1  # no Lift

    @pytest.mark.parametrize("order", [0, True, np.bool_(True), 2.0])
    def test_lift_rejects_bad_group_order(self, order):
        # true == 1 and 2.0 == 2, so only the type check catches these
        with pytest.raises(ValueError, match="group order"):
            self.lift(order)

    def test_group_conv_needs_lift(self):
        gc = GroupConv(self.basis, np.zeros((1, 1, 4, self.basis.size)))
        with pytest.raises(ValueError, match="Lift"):
            NetworkSpec([gc, OrientationPool()])

    def test_second_lift_rejected(self):
        with pytest.raises(ValueError, match="second Lift"):
            NetworkSpec([self.lift(), self.lift(), OrientationPool()])

    def test_pool_must_be_last(self):
        with pytest.raises(ValueError, match="last"):
            NetworkSpec([self.lift(), OrientationPool(), self.conv()])

    def test_pool_needs_group_input(self):
        with pytest.raises(ValueError, match="group feature map"):
            NetworkSpec([self.conv(), OrientationPool()])

    def test_bias_channel_mismatch(self):
        with pytest.raises(ValueError, match="Bias"):
            NetworkSpec([self.conv(co=2), Bias(np.zeros(3))])

    def test_group_order_mismatch(self):
        gc = GroupConv(self.basis, np.zeros((1, 1, 4, self.basis.size)))
        with pytest.raises(ValueError, match="order 4 != network order 2"):
            NetworkSpec([self.lift(2), gc, OrientationPool()])

    def test_residual_skip_out_of_range(self):
        with pytest.raises(ValueError, match="skip"):
            NetworkSpec([self.conv(), ResidualAdd(skip=1)])
        with pytest.raises(ValueError, match="skip"):
            NetworkSpec([self.conv(), ResidualAdd(skip=-1)])
        with pytest.raises(ValueError, match="skip"):
            NetworkSpec([self.conv(), ResidualAdd(skip=-2)])

    def test_residual_shape_mismatch(self):
        with pytest.raises(ValueError, match="residual"):
            NetworkSpec([self.conv(co=2), self.conv(ci=2, co=3), ResidualAdd(skip=0)])

    def test_unknown_layer_rejected(self):
        with pytest.raises(ValueError, match="unknown layer"):
            NetworkSpec([object()])

    @pytest.mark.parametrize("ci, co", [(0, 2), (2, 0), (0, 0)])
    def test_conv_needs_a_channel_each_way(self, ci, co):
        basis = FourierBasis(3, 1)
        with pytest.raises(ValueError, match="each >= 1"):
            Lift(4, basis, np.zeros((co, ci, basis.size)))
        with pytest.raises(ValueError, match="each >= 1"):
            GroupConv(basis, np.zeros((co, ci, 4, basis.size)))

    @pytest.mark.parametrize(
        "kind, shape",
        [("lift", (2, 1)), ("lift", (2, 1, 4, 5)), ("lift", (2, 1, 6)), ("group_conv", (2, 1, 0, 5)),
         ("group_conv", (2, 1, 5)), ("group_conv", (2, 1, 4, 6))],
        ids=["lift-2d", "lift-4d", "lift-basis", "group-conv-no-orientation", "group-conv-3d", "group-conv-basis"],
    )
    def test_conv_rejects_a_coefficient_shape_it_cannot_read(self, kind, shape):
        basis = FourierBasis(3, 1)  # size 5
        with pytest.raises(ValueError, match=r"coeffs shape .* each >= 1, the last of basis size 5"):
            Lift(4, basis, np.zeros(shape)) if kind == "lift" else GroupConv(basis, np.zeros(shape))

    def test_channel_mismatch_between_convs(self):
        with pytest.raises(ValueError, match="channels"):
            NetworkSpec([self.conv(co=2), self.conv(ci=3)])


class TestFactories:
    def test_audit_net_param_count(self):
        # lift (4,1,13) + two group convs (4,4,4,13) + two biases of 4
        net = make_audit_net(4)
        assert param_count(net) == 52 + 2 * 832 + 8

    def test_receptive_radius(self):
        assert make_audit_net(4).receptive_radius == 6  # three p=5 convs
        assert make_denoiser_net().receptive_radius == 8  # four p=5 convs

    def test_locality_matches_receptive_radius(self):
        net = make_audit_net(4, seed=11)
        x = synthetic_image(17, 6, mesh=1 / 3)
        edited = x.data.copy()
        edited[0, 0, 0] += 5.0  # Chebyshev distance 8 from the center, radius is 6
        out0 = forward(net, x)
        out1 = forward(net, PlanarImage(edited, mesh=x.mesh))
        assert out0.data[8, 8, 0] == out1.data[8, 8, 0]
        near = x.data.copy()
        near[4, 4, 0] += 5.0  # distance 4: inside the cone
        out2 = forward(net, PlanarImage(near, mesh=x.mesh))
        assert out2.data[8, 8, 0] != out0.data[8, 8, 0]

    def test_denoiser_starts_as_zero_map(self):
        net = make_denoiser_net(seed=12)
        x = synthetic_image(16, 7)
        assert np.max(np.abs(forward(net, x).data)) == 0.0
        assert net.out_channels == 1

    def test_sweep_nets_share_master_draws(self):
        # draws happen once at master order; each t keeps its offsets, rescaled
        # for its own fan-in (std ~ 1/sqrt(t), hence the sqrt(2) between 12 and 24)
        fine = make_sweep_net(24, seed=13)
        coarse = make_sweep_net(12, seed=13)
        np.testing.assert_allclose(
            coarse.layers[3].coeffs, np.sqrt(2.0) * fine.layers[3].coeffs[:, :, ::2, :], rtol=1e-12
        )
        np.testing.assert_array_equal(coarse.layers[0].coeffs, fine.layers[0].coeffs)

    def test_init_network_is_seed_deterministic(self):
        a = make_audit_net(2, seed=14)
        b = make_audit_net(2, seed=14)
        for la, lb in zip(a.layers, b.layers):
            if hasattr(la, "coeffs"):
                np.testing.assert_array_equal(la.coeffs, lb.coeffs)

    def test_output_mesh_follows_input(self):
        net = make_audit_net(4, seed=15)
        x = synthetic_image(12, 8, mesh=0.25)
        assert forward(net, x).mesh == 0.25
