import numpy as np
import pytest
from support import ParamFilter, sample_filter

from rotprox import FourierBasis, bounds_from_coefficients, image_bounds
from rotprox.filters import (
    basis_stack,
    evaluate_basis,
    frequency_pairs,
    init_coefficients,
    per_basis_bounds,
)
from rotprox.grids import centered_grid
from rotprox.synthetic import sample_field, synthetic_field, synthetic_image


def eval_filter_reference(basis, coeffs, x, y):
    """From-scratch windowed-sinusoid evaluation: quintic smoothstep window that is
    1 inside r=0.5 and 0 outside r=1, times cos/sin(pi*(k1*x + k2*y))."""
    r = np.hypot(x, y)
    u = np.clip((r - 0.5) / 0.5, 0.0, 1.0)
    window = 1.0 - u**3 * (10.0 - 15.0 * u + 6.0 * u**2)
    out = np.zeros_like(np.asarray(x, dtype=np.float64))
    for c, (k1, k2, phase) in zip(coeffs, basis.frequencies):
        arg = np.pi * (k1 * x + k2 * y)
        out += c * window * (np.cos(arg) if phase == "cos" else np.sin(arg))
    return out


class TestFrequencyPairs:
    def test_counts(self):
        assert len(frequency_pairs(0)) == 1
        assert len(frequency_pairs(1)) == 5
        assert len(frequency_pairs(2)) == 13
        assert len(frequency_pairs(4)) == 49

    def test_starts_with_constant(self):
        assert frequency_pairs(2)[0] == (0, 0, "cos")

    def test_no_duplicate_sinusoids(self):
        # (k, phase) and (-k, phase) describe the same function up to sign
        pairs = frequency_pairs(3)
        assert len(set(pairs)) == len(pairs)
        for k1, k2, _ in pairs:
            assert (k1, k2) == (0, 0) or k1 > 0 or (k1 == 0 and k2 > 0)


class TestFourierBasis:
    def test_tap_mesh(self):
        assert FourierBasis(5, 2).mesh == pytest.approx(1 / 3)
        assert FourierBasis(9, 2).mesh == pytest.approx(0.2)

    def test_even_size_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            FourierBasis(4, 1)
        for size in (True, 5.0):  # True once built a 1-tap basis
            with pytest.raises(ValueError, match="filter size must be an integer"):
                FourierBasis(size, 0)

    def test_aliasing_cutoff_rejected(self):
        with pytest.raises(ValueError, match="alias"):
            FourierBasis(5, 3)
        FourierBasis(5, 2)
        for cutoff in (True, 1.0):  # True once built a cutoff-1 basis
            with pytest.raises(ValueError, match="cutoff must be an integer"):
                FourierBasis(5, cutoff)


class TestSampleFilter:
    def test_matches_reference_evaluation(self):
        basis = FourierBasis(5, 2)
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(basis.size)
        taps = sample_filter(ParamFilter(basis, coeffs), 0.0)
        x, y = centered_grid(basis.filter_size, basis.filter_size, basis.mesh)
        np.testing.assert_allclose(taps, eval_filter_reference(basis, coeffs, x, y), atol=1e-12)

    def test_rotated_matches_reference_at_rotated_points(self):
        basis = FourierBasis(7, 3)
        rng = np.random.default_rng(1)
        coeffs = rng.standard_normal(basis.size)
        theta = 0.6
        taps = sample_filter(ParamFilter(basis, coeffs), theta)
        x, y = centered_grid(basis.filter_size, basis.filter_size, basis.mesh)
        c, s = np.cos(theta), np.sin(theta)
        expected = eval_filter_reference(basis, coeffs, c * x + s * y, -s * x + c * y)
        np.testing.assert_allclose(taps, expected, atol=1e-12)

    def test_quarter_turn_permutes_taps(self):
        basis = FourierBasis(5, 2)
        rng = np.random.default_rng(2)
        f = ParamFilter(basis, rng.standard_normal(basis.size))
        for theta in (0.0, 0.4, -2.2):
            base = sample_filter(f, theta)
            turned = sample_filter(f, theta + np.pi / 2)
            assert np.max(np.abs(turned - np.rot90(base, k=1))) < 1e-12

    def test_radial_filter_ignores_rotation(self):
        basis = FourierBasis(5, 2)
        coeffs = np.zeros(basis.size)
        coeffs[0] = 1.7  # constant frequency: radial window only
        f = ParamFilter(basis, coeffs)
        base = sample_filter(f, 0.0)
        for theta in (0.3, 1.2, 2.9):
            np.testing.assert_allclose(sample_filter(f, theta), base, atol=1e-14)

    def test_vanishes_outside_support(self):
        basis = FourierBasis(9, 2)
        rng = np.random.default_rng(3)
        coeffs = rng.standard_normal(basis.size)
        vals = eval_filter_reference(basis, coeffs, np.array([1.0, -1.3, 0.0]),
                                     np.array([0.1, 0.2, 1.01]))
        np.testing.assert_allclose(vals, 0.0, atol=1e-15)

    def test_linear_in_coefficients(self):
        basis = FourierBasis(5, 1)
        rng = np.random.default_rng(4)
        a, b = rng.standard_normal((2, basis.size))
        combined = sample_filter(ParamFilter(basis, 2.0 * a - 0.5 * b), 0.9)
        parts = 2.0 * sample_filter(ParamFilter(basis, a), 0.9) \
            - 0.5 * sample_filter(ParamFilter(basis, b), 0.9)
        np.testing.assert_allclose(combined, parts, atol=1e-13)

    def test_wrong_coefficient_count_rejected(self):
        with pytest.raises(ValueError, match="coefficients"):
            ParamFilter(FourierBasis(5, 2), np.ones(4))

    def test_basis_stack_cached_read_only(self):
        basis = FourierBasis(5, 2)
        stack = basis_stack(basis, 0.25)
        assert stack.flags.writeable is False
        assert basis_stack(basis, 0.25) is stack


class TestSmoothnessBounds:
    def test_filter_bounds_dominate_dense_sampling(self):
        # sup over a 401x401 grid of the reference evaluation never exceeds the
        # analytic F/G/H constants, for random banks and every single basis fn
        basis = FourierBasis(5, 2)
        lin = np.linspace(-1.05, 1.05, 401)
        x, y = np.meshgrid(lin, lin)
        delta = lin[1] - lin[0]
        rng = np.random.default_rng(5)
        draws = [rng.standard_normal(basis.size) for _ in range(4)]
        draws += [np.eye(basis.size)[j] for j in range(basis.size)]
        for coeffs in draws:
            b = bounds_from_coefficients(basis, coeffs)
            vals = eval_filter_reference(basis, coeffs, x, y)
            assert np.max(np.abs(vals)) <= b.F + 1e-9
            gx = (vals[1:-1, 2:] - vals[1:-1, :-2]) / (2 * delta)
            gy = (vals[2:, 1:-1] - vals[:-2, 1:-1]) / (2 * delta)
            assert np.max(np.hypot(gx, gy)) <= b.G + 1e-6
            uxx = (vals[1:-1, 2:] - 2 * vals[1:-1, 1:-1] + vals[1:-1, :-2]) / delta**2
            uyy = (vals[2:, 1:-1] - 2 * vals[1:-1, 1:-1] + vals[:-2, 1:-1]) / delta**2
            uxy = (vals[2:, 2:] - vals[2:, :-2] - vals[:-2, 2:] + vals[:-2, :-2]) / (4 * delta**2)
            spec = np.abs(0.5 * (uxx + uyy)) + np.sqrt((0.5 * (uxx - uyy)) ** 2 + uxy**2)
            assert np.max(spec) <= b.H + 1e-4

    def test_bank_bound_is_worst_member(self):
        basis = FourierBasis(5, 2)
        rng = np.random.default_rng(6)
        bank = rng.standard_normal((3, 2, basis.size))
        bound = bounds_from_coefficients(basis, bank)
        singles = [bounds_from_coefficients(basis, bank[i, j])
                   for i in range(3) for j in range(2)]
        assert bound.F == pytest.approx(max(s.F for s in singles))
        assert bound.G == pytest.approx(max(s.G for s in singles))
        assert bound.H == pytest.approx(max(s.H for s in singles))

    def test_per_basis_f_bound_is_one(self):
        f, g, h = per_basis_bounds(FourierBasis(5, 2))
        np.testing.assert_array_equal(f, np.ones(13))
        assert np.all(g > 0) and np.all(h > 0)
        # higher frequencies cost more smoothness
        assert g[0] < g[-1] and h[0] < h[-1]

    def test_negative_bound_rejected(self):
        from rotprox import SmoothnessBounds

        with pytest.raises(ValueError):
            SmoothnessBounds(F=-1.0, G=0.0, H=0.0)

    def test_image_bounds_f_is_max_abs_sample(self):
        img = synthetic_image(32, 0, mesh=1 / 3)
        assert image_bounds(img).F == np.max(np.abs(img.data))

    def test_image_bounds_dominate_finer_grid(self):
        # raw finite differences on a 2x finer sampling of the same field stay
        # under the coarse-grid bounds thanks to the safety factor
        size, mesh = 48, 1 / 3
        for seed in range(4):
            field = synthetic_field(seed, size * mesh / 2)
            coarse = image_bounds(sample_field(field, size, size, mesh))
            fine = image_bounds(sample_field(field, 2 * size, 2 * size, mesh / 2))
            assert fine.G / 1.5 <= coarse.G
            assert fine.H / 1.5 <= coarse.H

    def test_tiny_image_reports_zero_derivative_bounds(self):
        from rotprox import PlanarImage

        b = image_bounds(PlanarImage(np.full((2, 2, 1), 3.0)))
        assert b.F == 3.0 and b.G == 0.0 and b.H == 0.0


class TestInitCoefficients:
    def test_scale(self):
        rng = np.random.default_rng(7)
        draws = init_coefficients(rng, (400, 500), fan_in_slices=4, p=5)
        assert abs(draws.mean()) < 1e-3
        assert draws.std() == pytest.approx(np.sqrt(2.0 / (4 * 25)), rel=0.02)

    def test_deterministic_given_rng_state(self):
        a = init_coefficients(np.random.default_rng(8), (3, 3), 2, 5)
        b = init_coefficients(np.random.default_rng(8), (3, 3), 2, 5)
        np.testing.assert_array_equal(a, b)


class TestEvaluateBasis:
    def test_shape_and_reference_agreement(self):
        basis = FourierBasis(7, 2)
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, size=(4, 6))
        y = rng.uniform(-1, 1, size=(4, 6))
        stack = evaluate_basis(basis, x, y)
        assert stack.shape == (basis.size, 4, 6)
        for j in range(basis.size):
            coeffs = np.eye(basis.size)[j]
            np.testing.assert_allclose(stack[j], eval_filter_reference(basis, coeffs, x, y),
                                       atol=1e-12)
