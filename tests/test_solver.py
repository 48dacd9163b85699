import types
import warnings

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import example, given, settings
from hypothesis import strategies as st
from support import best_subset_support, plain_ista, reshape_blur_downsample, reshape_blur_downsample_adjoint

from rotprox import (
    BlurDownsample,
    FourierBasis,
    GroupConv,
    Identity,
    Lift,
    NetworkSpec,
    NeuralProx,
    OrientationPool,
    PlanarImage,
    ReLU,
    SoftThreshold,
    SolverDivergence,
    TVProx,
    UnfoldingConfig,
    degrade,
    estimate_lipschitz,
    gaussian_kernel,
    init_network,
    ista_solve,
    ista_step,
    make_denoiser_net,
    parameters,
    psnr,
    rotate_image,
)
from rotprox import solver
from rotprox.cli import PROX_DEFAULTS, SR_DEFAULTS
from rotprox.synthetic import synthetic_image


class TestOperators:
    def test_adjoint_inner_products(self):
        rng = np.random.default_rng(31)
        ops = [Identity()]
        for s in (1, 2, 3):
            ops.append(BlurDownsample(gaussian_kernel(5, 1.0), s))
            ops.append(BlurDownsample(rng.standard_normal((5, 5)), s))
        for op in ops:
            x = PlanarImage(rng.standard_normal((12, 12, 2)))
            ax = op.apply(x)
            y = PlanarImage(rng.standard_normal(ax.data.shape), mesh=ax.mesh)
            lhs = float(np.sum(ax.data * y.data))
            rhs = float(np.sum(x.data * op.adjoint(y).data))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_downsample_keeps_upper_left(self):
        rng = np.random.default_rng(32)
        plane = rng.standard_normal((12, 12))
        kernel = rng.standard_normal((5, 5))
        for s in (2, 3):
            got = BlurDownsample(kernel, s).apply(PlanarImage(plane[:, :, None]))
            want = scipy.ndimage.correlate(plane, kernel, mode="constant", cval=0.0)[::s, ::s]
            assert np.max(np.abs(got.data[:, :, 0] - want)) <= 1e-12

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        st.sampled_from(range(1, 22, 2)),
        st.integers(1, 4),
        st.integers(1, 3),
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    @example(21, 2, 1, 3, 4, 0)  # q = 11 on an (s^2 = 4)-plane bank: the FFT route; 21 taps on 6 pixels
    @example(15, 2, 2, 8, 5, 1)  # q = 9, the smallest FFT-route bank at s = 2
    @example(21, 3, 3, 2, 1, 2)  # q = 9 at s = 3, kernel wider than the 6 x 3 grid
    @example(5, 4, 1, 1, 1, 3)  # one coarse pixel
    def test_polyphase_matches_blur_then_decimate(self, p, s, c, hs, ws, seed):
        rng = np.random.default_rng(seed)
        kernel = rng.standard_normal((p, p))
        x = rng.standard_normal((hs * s, ws * s, c))
        op = BlurDownsample(kernel, s)
        ax = op.apply(PlanarImage(x)).data
        want = np.stack(
            [scipy.ndimage.correlate(x[:, :, ch], kernel, mode="constant", cval=0.0)[::s, ::s] for ch in range(c)],
            axis=-1,
        )
        np.testing.assert_allclose(ax, want, rtol=0, atol=1e-12)
        y = rng.standard_normal(ax.shape)
        lhs = float(np.sum(ax * y))
        rhs = float(np.sum(x * op.adjoint(PlanarImage(y)).data))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("s, c", [(1, 1), (2, 3), (3, 2)])
    def test_both_directions_run_on_the_coarse_grid(self, monkeypatch, s, c):
        # one correlation per channel, of (H/s, W/s) planes: a full-grid blur
        # would lower (H, W, 1) operands
        shapes, call = [], solver.correlate_stack

        def recorded(arr, weights):
            shapes.append(arr.shape)
            return call(arr, weights)

        monkeypatch.setattr(solver, "correlate_stack", recorded)
        op = BlurDownsample(gaussian_kernel(5, 1.0), s)
        coarse = op.apply(PlanarImage(np.ones((6 * s, 4 * s, c))))
        assert shapes == [(6, 4, s * s)] * c
        shapes.clear()
        op.adjoint(coarse)
        assert shapes == [(6, 4, 1)] * c

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_phase_copies_match_reshape_oracle(self, s, c):
        # the strided phase copies are the reshape/transpose layout, byte for byte
        rng = np.random.default_rng(10 * s + c)
        op = BlurDownsample(rng.standard_normal((5, 5)), s)
        x = rng.standard_normal((7 * s, 5 * s, c))
        ax = op.apply(PlanarImage(x)).data
        assert ax.tobytes() == reshape_blur_downsample(op, x).tobytes()
        y = rng.standard_normal(ax.shape)
        assert op.adjoint(PlanarImage(y)).data.tobytes() == reshape_blur_downsample_adjoint(op, y).tobytes()

    def test_delta_kernel_identity(self):
        delta = np.zeros((3, 3))
        delta[1, 1] = 1.0
        x = synthetic_image(16, 14)
        y = degrade(BlurDownsample(delta, 1), x, 0.0, seed=0)
        np.testing.assert_array_equal(y.data, x.data)

    def test_mesh_bookkeeping(self):
        op = BlurDownsample(gaussian_kernel(3, 0.8), 2)
        x = PlanarImage(np.zeros((8, 8, 1)), mesh=0.25)
        coarse = op.apply(x)
        assert coarse.mesh == 0.5
        assert op.adjoint(coarse).mesh == 0.25
        assert op.adjoint(coarse).data.shape == (8, 8, 1)

    def test_kernel_and_scale_validation(self):
        with pytest.raises(ValueError, match="odd"):
            BlurDownsample(np.ones((4, 4)), 2)
        with pytest.raises(ValueError, match="square"):
            BlurDownsample(np.ones((3, 5)), 2)
        with pytest.raises(ValueError, match="scale"):
            BlurDownsample(np.ones((3, 3)), 0)
        for scale in (2.0, True):  # 2.0 once raised a TypeError
            with pytest.raises(ValueError, match="scale must be an integer"):
                BlurDownsample(np.ones((3, 3)), scale)
        op = BlurDownsample(np.ones((3, 3)), 3)
        with pytest.raises(ValueError, match="divide"):
            op.apply(PlanarImage(np.zeros((10, 10, 1))))

    def test_operator_owns_a_read_only_kernel_copy(self):
        # the banks (and the kept L) are built from the kernel at construction,
        # so a later write to the caller's array must not reach the operator
        k = gaussian_kernel(5, 1.0)
        op = BlurDownsample(k, 2)
        x = PlanarImage(np.random.default_rng(7).standard_normal((8, 8, 1)))
        before = op.apply(x).data.copy()
        assert op.kernel is not k and op.kernel.dtype == np.float64
        assert not op.kernel.flags.writeable
        k[2, 2] = 5.0
        assert op.kernel[2, 2] != 5.0
        np.testing.assert_array_equal(op.apply(x).data, before)
        assert BlurDownsample(np.ones((3, 3), dtype=np.int64), 1).kernel.dtype == np.float64

    def test_operators_compare_by_identity(self):
        k = gaussian_kernel(5, 1.0)
        op = BlurDownsample(k, 2)
        assert op == op
        assert op != BlurDownsample(k, 2)
        assert {op: 1}[op] == 1 and hash(op) == hash(op)

    def test_degrade_seeded(self):
        x = synthetic_image(8, 15)
        a = degrade(Identity(), x, 0.1, seed=7)
        b = degrade(Identity(), x, 0.1, seed=7)
        c = degrade(Identity(), x, 0.1, seed=8)
        np.testing.assert_array_equal(a.data, b.data)
        assert np.any(a.data != c.data)
        for sigma in (-0.1, True):
            with pytest.raises(ValueError, match="noise_sigma must be a finite real number >= 0"):
                degrade(Identity(), x, sigma, seed=0)
        assert degrade(Identity(), x, 0.0, seed=0) is x


class TestLipschitz:
    def test_identity_is_one(self):
        # exactly 1: power iteration reads 1.0000000000000002 at (6, 6, 2) and
        # (15, 15, 3), and a step of 1 - 2**-52 would not return y exactly
        for shape in [(8, 8, 1), (6, 6, 2), (15, 15, 3)]:
            assert estimate_lipschitz(Identity(), PlanarImage(np.zeros(shape))) == 1.0

    def test_matches_dense_singular_value(self):
        # build the operator matrix column by column, compare sigma_max^2
        op = BlurDownsample(gaussian_kernel(3, 0.8), 2)
        cols = []
        for i in range(8):
            for j in range(8):
                e = np.zeros((8, 8, 1))
                e[i, j, 0] = 1.0
                cols.append(op.apply(PlanarImage(e)).data.ravel())
        sigma_sq = np.linalg.svd(np.array(cols).T, compute_uv=False).max() ** 2
        y = op.apply(PlanarImage(np.zeros((8, 8, 1))))
        assert abs(estimate_lipschitz(op, y) - sigma_sq) <= 1e-5 * sigma_sq

    def test_default_sr_estimate_pinned(self):
        # the float the 50-step power iteration gave before the estimate was kept
        op = _default_sr_op()
        y = PlanarImage(np.zeros((32, 32, 1)), mesh=2.0)
        assert estimate_lipschitz(op, y).hex() == "0x1.f9e54bacca168p-3"
        assert estimate_lipschitz(op, PlanarImage(y.data, mesh=0.37)).hex() == "0x1.f9e54bacca168p-3"

    def test_second_solve_on_one_operator_skips_the_estimate(self, monkeypatch):
        # a default sr solve is 50 power-iteration applies and 200 step applies;
        # the second solve on the same operator makes only the step applies
        calls = []
        apply = BlurDownsample.apply

        def counted(self, x):
            calls.append(1)
            return apply(self, x)

        monkeypatch.setattr(BlurDownsample, "apply", counted)
        op = _default_sr_op()
        y, cfg = _default_sr_problem(op)
        counts, outputs = [], []
        for _ in range(2):
            calls.clear()
            outputs.append(ista_solve(y, op, cfg)[0])
            counts.append(len(calls))
        assert counts == [250, 200]
        for x in outputs:
            fresh = _default_sr_op()
            assert x.data.tobytes() == ista_solve(y, fresh, cfg)[0].data.tobytes()

    def test_one_estimate_per_observation_shape(self):
        op = BlurDownsample(gaussian_kernel(5, 1.0), 2)
        shapes = [(8, 8, 1), (6, 10, 2)]
        got = [op.lipschitz(shape) for shape in shapes]
        assert got[0] != got[1]
        for shape, lam in zip(shapes, got):
            fresh = BlurDownsample(gaussian_kernel(5, 1.0), 2)
            assert lam == fresh.lipschitz(shape) == estimate_lipschitz(op, PlanarImage(np.zeros(shape)))


def _default_sr_op() -> BlurDownsample:
    kernel = SR_DEFAULTS["kernel"]
    return BlurDownsample(gaussian_kernel(kernel["size"], kernel["sigma"]), SR_DEFAULTS["scale"])


def _default_sr_problem(op: BlurDownsample):
    """`rotprox sr`'s default observation and solver config, for the operator `op`."""
    d = SR_DEFAULTS
    y = degrade(op, synthetic_image(d["image_size"], d["seed"], mesh=d["mesh"]), d["sigma"], d["seed"])
    return y, UnfoldingConfig(d["steps"], d["step_size"], SoftThreshold(PROX_DEFAULTS["weight"]))


class TestIstaSolve:
    def test_objective_monotone_soft_threshold(self):
        x_true = synthetic_image(16, 13)
        op = BlurDownsample(gaussian_kernel(5, 1.0), 2)
        y = degrade(op, x_true, 0.05, seed=30)
        cfg = UnfoldingConfig(100, None, SoftThreshold(0.02))
        xs, trace = plain_ista(y, op, cfg)
        assert ista_solve(y, op, cfg)[0].data.tobytes() == xs[-1].data.tobytes()
        assert len(trace) == 101
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
        assert trace[-1] < trace[0]

    def test_objective_monotone_tv(self):
        x_true = synthetic_image(16, 13)
        op = BlurDownsample(gaussian_kernel(5, 1.0), 2)
        y = degrade(op, x_true, 0.05, seed=30)
        prox = TVProx(0.02, tol=1e-10, max_iter=2000)
        cfg = UnfoldingConfig(40, None, prox)
        xs, trace = plain_ista(y, op, cfg)
        assert ista_solve(y, op, cfg)[0].data.tobytes() == xs[-1].data.tobytes()
        assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_sparse_support_matches_exhaustive_search(self):
        op = Identity()
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            idx = rng.choice(64, size=3, replace=False)
            data = np.zeros(64)
            data[idx] = rng.uniform(0.5, 1.0, 3) * rng.choice([-1.0, 1.0], 3)
            x_true = PlanarImage(data.reshape(8, 8, 1))
            y = degrade(op, x_true, 0.01, seed=200 + seed)
            sol, _ = ista_solve(y, op, UnfoldingConfig(5, 1.0, SoftThreshold(0.2)))
            support = frozenset(np.flatnonzero(sol.data.ravel()).tolist())
            assert support == best_subset_support(y.data, 3)

    def test_identity_fixed_point(self):
        rng = np.random.default_rng(33)
        y = PlanarImage(rng.standard_normal((8, 8, 1)))
        cfg = UnfoldingConfig(5, 1.0, SoftThreshold(0.2))
        sol, _ = ista_solve(y, Identity(), cfg)
        again = ista_step(sol, y, Identity(), cfg)
        np.testing.assert_array_equal(again.data, sol.data)

    def test_zero_steps_returns_adjoint(self):
        rng = np.random.default_rng(34)
        y = PlanarImage(rng.standard_normal((8, 8, 1)))
        sol, calls = ista_solve(y, Identity(), UnfoldingConfig(0, None, SoftThreshold(0.1)))
        assert sol is y
        assert calls == 0

    def test_oversized_step_rejected(self):
        y = PlanarImage(np.ones((8, 8, 1)))
        with pytest.raises(ValueError, match="exceeds"):
            ista_solve(y, Identity(), UnfoldingConfig(3, 2.0, SoftThreshold(0.1)))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="steps"):
            UnfoldingConfig(-1, None, SoftThreshold(0.1))
        with pytest.raises(ValueError, match="step_size"):
            UnfoldingConfig(3, 0.0, SoftThreshold(0.1))
        with pytest.raises(ValueError, match="resolved"):
            ista_step(
                PlanarImage(np.ones((4, 4, 1))),
                PlanarImage(np.ones((4, 4, 1))),
                Identity(),
                UnfoldingConfig(3, None, SoftThreshold(0.1)),
            )

    def test_default_sr_step_structure(self, monkeypatch):
        # one step of the default sr solve is one apply, one adjoint and one
        # correlation each: the spans a tracer puts on these calls time the step
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("apply", "adjoint"):
            monkeypatch.setattr(BlurDownsample, name, counted(name, getattr(BlurDownsample, name)))
        monkeypatch.setattr(solver, "correlate_stack", counted("correlate_stack", solver.correlate_stack))
        op = _default_sr_op()
        n = SR_DEFAULTS["image_size"]
        x = PlanarImage(np.random.default_rng(0).standard_normal((n, n, 1)))
        aty = op.adjoint(op.apply(x))
        calls.clear()
        ista_step(x, aty, op, UnfoldingConfig(1, 1.0, SoftThreshold(PROX_DEFAULTS["weight"])))
        assert calls == ["apply", "correlate_stack", "adjoint", "correlate_stack"]

    def test_divergent_prox_detected(self):
        # a pure prox: the iterates run 1 -> 3 -> 6, and step 3's input 3.5 gives NaN
        def bad_prox(img):
            if img.data.max() > 3:
                return types.SimpleNamespace(data=np.full_like(img.data, np.nan), mesh=img.mesh)
            return PlanarImage(3 * img.data, mesh=img.mesh)

        y = PlanarImage(np.ones((4, 4, 1)))
        with pytest.raises(SolverDivergence) as err:
            ista_solve(y, Identity(), UnfoldingConfig(10, 0.5, bad_prox))
        assert err.value.step == 3

    def test_overflowing_prox_network_is_divergence(self):
        # the network overflows inside its first call, before any iterate is
        # built: that is divergence at step 1, with no numpy warning on the way
        net = init_network(make_denoiser_net(), 0)
        for _, _, arr in parameters(net):
            arr *= 1e80
        y = degrade(Identity(), synthetic_image(16, 0), 0.1, seed=36)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverDivergence) as err:
                ista_solve(y, Identity(), UnfoldingConfig(5, None, NeuralProx(net)))
        assert err.value.step == 1

    def test_quarter_turn_covariance(self):
        # identity operator + pointwise prox: the whole solve commutes exactly
        x_true = synthetic_image(16, 16)
        y = degrade(Identity(), x_true, 0.1, seed=35)
        cfg = UnfoldingConfig(5, 1.0, SoftThreshold(0.05))
        direct, _ = ista_solve(rotate_image(y, np.pi / 2), Identity(), cfg)
        rotated, _ = ista_solve(y, Identity(), cfg)
        np.testing.assert_array_equal(direct.data, rotate_image(rotated, np.pi / 2).data)


def _default_denoise(seed: int) -> PlanarImage:
    """The noisy input of the default `rotprox denoise` at this seed."""
    return degrade(Identity(), synthetic_image(64, seed), 25.0 / 255.0, seed)


def _assert_matches_plain_loop(y, op, prox, step_size, steps, reference=None):
    """ista_solve's x_T bytes equal the plain loop's, and the step count it
    returns is the number of prox calls it made, at most `steps`; returns
    that count."""
    xs, _ = reference or plain_ista(y, op, UnfoldingConfig(steps, step_size, prox))
    counting = _CountingProx(prox)
    x, calls = ista_solve(y, op, UnfoldingConfig(steps, step_size, counting))
    assert x.data.tobytes() == xs[steps].data.tobytes(), f"steps={steps}"
    assert x.mesh == xs[steps].mesh
    assert calls == counting.calls <= steps, f"steps={steps}"
    return calls


class _ZeroOp:
    """A = 0 with a pass-through adjoint (not A's true adjoint): A^T A x is +0.0
    and A^T y is y itself, signed zeros included; L is 0, as power iteration
    finds for it."""

    def apply(self, x: PlanarImage) -> PlanarImage:
        return PlanarImage(np.zeros(x.data.shape), mesh=x.mesh)

    def adjoint(self, y: PlanarImage) -> PlanarImage:
        return y

    def lipschitz(self, shape) -> float:
        return 0.0


class _CycleProx:
    """A pure prox whose iterates run 0, 1, 2, 3, 4, 2, 3, 4, ... (mu 2, lambda 3).

    With y = 0 and eta = 0.5 the prox sees x / 2, so it reads the state back
    exactly from its input.
    """

    NEXT = {0.0: 1.0, 1.0: 2.0, 2.0: 3.0, 3.0: 4.0, 4.0: 2.0}

    def __call__(self, v: PlanarImage) -> PlanarImage:
        return PlanarImage(np.full(v.data.shape, self.NEXT[2.0 * v.data[0, 0, 0]]), mesh=v.mesh)


def _count_steps(monkeypatch) -> list:
    """Wrap solver.ista_step; the returned list gets one entry per call."""
    steps, call = [], solver.ista_step

    def counted_step(*args):
        steps.append(1)
        return call(*args)

    monkeypatch.setattr(solver, "ista_step", counted_step)
    return steps


class _CountingProx:
    def __init__(self, prox):
        self.prox, self.calls = prox, 0

    def __call__(self, v: PlanarImage) -> PlanarImage:
        self.calls += 1
        return self.prox(v)


class TestCycleSkip:
    """ista_solve stops at the first step whose prox input repeats the previous
    step's; every output must equal the plain loop's bit for bit, whatever the
    period of the iterate sequence."""

    @pytest.fixture(scope="class")
    def tv_seed3(self):
        # at the default step every prox input is y, so x_2 repeats x_1
        y = _default_denoise(3)
        return y, plain_ista(y, Identity(), UnfoldingConfig(100, None, TVProx(0.1)))

    @pytest.mark.parametrize("steps", [*range(13), 100])
    def test_tv_short_cycle_every_step_count(self, tv_seed3, steps):
        y, reference = tv_seed3
        _assert_matches_plain_loop(y, Identity(), TVProx(0.1), None, steps, reference)

    @pytest.mark.parametrize("seed", [0, 1, 3, 910])
    def test_half_step_soft_threshold_late_skip(self, seed):
        # at step size 0.5 the iterate reaches its fixed point at step 54
        # (x_55 == x_54), so step 56's prox input repeats step 55's: the solve
        # reuses its output and stops there, after 55 prox calls
        calls = _assert_matches_plain_loop(_default_denoise(seed), Identity(), SoftThreshold(0.1), 0.5, 100)
        assert calls == 55

    def test_soft_threshold_denoise(self):
        _assert_matches_plain_loop(_default_denoise(3), Identity(), SoftThreshold(0.1), None, 100)

    def test_sr_without_cycle(self):
        op = BlurDownsample(gaussian_kernel(5, 1.0), 2)
        y = degrade(op, synthetic_image(64, 3), 0.0, 3)
        _assert_matches_plain_loop(y, op, SoftThreshold(0.1), None, 200)

    def test_known_cycle(self):
        y = PlanarImage(np.zeros((4, 4, 1)))
        reference = plain_ista(y, Identity(), UnfoldingConfig(15, 0.5, _CycleProx()))
        assert [x.data[0, 0, 0] for x in reference[0]] == [0, 1, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 4, 2, 3]
        for steps in range(16):
            # no two consecutive prox inputs are equal, so every step evaluates the prox
            assert _assert_matches_plain_loop(y, Identity(), _CycleProx(), 0.5, steps, reference) == steps

    def test_signed_zeros_are_different_iterates(self):
        # With A = 0, A^T y = y = -0.0 and eta = 1, the step (x - 0) + (-0.0)
        # keeps the sign of a zero iterate, and the prox flips it: x_t is -0.0
        # for even t and +0.0 for odd t, which value equality would take for a
        # fixed point.
        y = PlanarImage(np.full((4, 4, 1), -0.0))

        def flip(v):
            return PlanarImage(np.negative(v.data), mesh=v.mesh)

        for steps in range(6):
            x, _ = ista_solve(y, _ZeroOp(), UnfoldingConfig(steps, 1.0, flip))
            assert np.all(np.signbit(x.data) == (steps % 2 == 0)), f"steps={steps}"
            _assert_matches_plain_loop(y, _ZeroOp(), flip, 1.0, steps)

    def test_default_tv_denoise_skips_most_prox_calls(self, monkeypatch):
        y = _default_denoise(0)
        counting = _CountingProx(TVProx(0.1))
        steps = _count_steps(monkeypatch)
        x, calls = ista_solve(y, Identity(), UnfoldingConfig(100, None, counting))
        assert calls == counting.calls == 1
        # step 2's prox input is y again: the solve stops there
        assert len(steps) == 2
        direct, _ = ista_solve(y, Identity(), UnfoldingConfig(100, None, TVProx(0.1)))
        assert x.data.tobytes() == direct.data.tobytes() == TVProx(0.1)(y).data.tobytes()

    def test_unrecorded_skip_of_astronomical_step_count(self):
        # `rotprox denoise` at 8x8 with the default soft threshold: the iterate
        # is a fixed point from step 1, so 2**70 steps end where 51 do, at the
        # same cost
        y = degrade(Identity(), synthetic_image(8, 0), 25.0 / 255.0, 0)
        x, calls = ista_solve(y, Identity(), UnfoldingConfig(2**70, None, SoftThreshold(0.1)))
        x51, calls51 = ista_solve(y, Identity(), UnfoldingConfig(51, None, SoftThreshold(0.1)))
        assert calls == calls51 <= 51
        assert x.data.tobytes() == x51.data.tobytes()


class TestRepeatedProxInput:
    """A step whose prox input repeats the previous one bit for bit reuses its
    output; ista_solve's count is the number of prox evaluations."""

    def test_signed_zeros_are_different_inputs(self):
        # the prox inputs alternate -0.0 and +0.0 (see
        # test_signed_zeros_are_different_iterates): equal values, different bits
        y = PlanarImage(np.full((4, 4, 1), -0.0))

        def flip(v):
            return PlanarImage(np.negative(v.data), mesh=v.mesh)

        for steps in range(5):
            # consecutive prox inputs always differ in their zeros' sign bits
            assert _assert_matches_plain_loop(y, _ZeroOp(), flip, 1.0, steps) == steps

    def test_half_step_denoise_reuses_prox_outputs(self, monkeypatch):
        steps = _count_steps(monkeypatch)
        calls = _assert_matches_plain_loop(_default_denoise(0), Identity(), SoftThreshold(0.1), 0.5, 100)
        assert calls < len(steps) < 100
        # the one step that reuses a prox output is the last
        assert (len(steps), calls) == (56, 55)


def _two_channel_net() -> NetworkSpec:
    """An initialised lift/group-conv net on 2-channel images; the factory nets take 1."""
    basis = FourierBasis(5, 2)
    layers = [
        Lift(4, basis, np.zeros((2, 2, basis.size))),
        ReLU(),
        GroupConv(basis, np.zeros((2, 2, 4, basis.size))),
        OrientationPool(),
    ]
    return init_network(NetworkSpec(layers), 0)


class TestIdentityDenoise:
    """With A = I at the default step eta = 1, (x - x) + y is y bit for bit, so
    every prox input is y: x_T = prox(y) for T >= 1, at 1 prox evaluation (the
    test's own prox(y) is the other of the name's two calls)."""

    @pytest.fixture(scope="class", params=[0, 1, 910, "6x6x2"])
    def noisy(self, request):
        if request.param == "6x6x2":
            return PlanarImage(np.random.default_rng(37).standard_normal((6, 6, 2)))
        return _default_denoise(request.param)

    @pytest.mark.parametrize("kind", ["soft", "tv", "neural"])
    def test_two_prox_calls_give_prox_of_y(self, noisy, kind):
        if kind == "soft":
            prox = SoftThreshold(0.1)
        elif kind == "tv":
            prox = TVProx(0.1)
        elif noisy.data.shape[2] == 2:
            prox = NeuralProx(_two_channel_net())
        else:
            prox = NeuralProx(init_network(make_denoiser_net(), 0))
        want = prox(noisy).data.tobytes()
        for steps in (100, 2**70):
            counting = _CountingProx(prox)
            x, calls = ista_solve(noisy, Identity(), UnfoldingConfig(steps, None, counting))
            assert calls == counting.calls == 1, f"steps={steps}"
            assert x.data.tobytes() == want, f"steps={steps}"


class TestUtilities:
    def test_gaussian_kernel_shape(self):
        k = gaussian_kernel(5, 1.3)
        assert abs(k.sum() - 1.0) <= 1e-14
        np.testing.assert_array_equal(k, k.T)
        np.testing.assert_array_equal(k, k[::-1, ::-1])
        assert k[2, 2] == k.max()
        np.testing.assert_array_equal(gaussian_kernel(1, 2.0), [[1.0]])

    def test_gaussian_kernel_validation(self):
        with pytest.raises(ValueError, match="odd"):
            gaussian_kernel(4, 1.0)
        for size in (3.0, True):
            with pytest.raises(ValueError, match="kernel size must be an integer"):
                gaussian_kernel(size, 1.0)
        for sigma in (0.0, True, np.inf):
            with pytest.raises(ValueError, match="sigma"):
                gaussian_kernel(3, sigma)

    def test_psnr_values(self):
        ref = PlanarImage(np.zeros((4, 4, 1)))
        same = PlanarImage(np.zeros((4, 4, 1)))
        off = PlanarImage(np.full((4, 4, 1), 0.1))
        assert psnr(same, ref) == np.inf
        np.testing.assert_allclose(psnr(off, ref), 20.0, rtol=1e-12)
        with pytest.raises(ValueError, match="mismatch"):
            psnr(PlanarImage(np.zeros((4, 5, 1))), ref)
