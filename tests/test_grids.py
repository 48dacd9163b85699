import numpy as np
import pytest
from support import act_on_feature_map

from rotprox import (
    DegenerateReferenceError,
    PlanarImage,
    relative_difference,
    rotate_image,
)
from rotprox.grids import centered_grid, rotated_grid
from rotprox.synthetic import sample_field, synthetic_field, synthetic_image


def gabor(size=64, seed=3, mesh=1 / 3):
    return synthetic_image(size, seed, mesh=mesh)


class TestCenteredGrid:
    def test_orientation(self):
        x, y = centered_grid(3, 3, 0.5)
        # row 0 is the top of the image: largest y; column 0 the smallest x
        assert y[0, 0] == pytest.approx(0.5)
        assert y[2, 0] == pytest.approx(-0.5)
        assert x[0, 0] == pytest.approx(-0.5)
        assert x[0, 2] == pytest.approx(0.5)

    def test_quarter_turns_permute_points_exactly(self):
        # exact cos/sin: a quarter turn maps the grid onto itself bit for bit
        x, y = centered_grid(5, 5, 0.25)
        xr, yr = rotated_grid(5, 5, 0.25, np.pi / 2)
        np.testing.assert_array_equal(xr, y)
        np.testing.assert_array_equal(yr, -x)
        xr, yr = rotated_grid(5, 5, 0.25, -3 * np.pi)
        np.testing.assert_array_equal(xr, -x)
        np.testing.assert_array_equal(yr, -y)


class TestRotateImage:
    def test_quarter_turn_hand_example(self):
        # Pixel (i, j) sits at x = (j - cx)h, y = (cy - i)h with y against rows.
        # A CCW quarter turn must move the right column to the top row.
        img = PlanarImage(np.array([[0.0, 1, 2], [10, 11, 12], [20, 21, 22]])[:, :, None])
        out = rotate_image(img, np.pi / 2)
        expected = np.array([[2.0, 12, 22], [1, 11, 21], [0, 10, 20]])
        np.testing.assert_array_equal(out.data[:, :, 0], expected)

    def test_quarter_turn_is_exact_permutation(self):
        img = gabor()
        out = rotate_image(img, np.pi / 2)
        assert sorted(out.data.ravel()) == sorted(img.data.ravel())

    def test_half_turn_flips_both_axes(self):
        img = gabor(size=17)
        out = rotate_image(img, np.pi)
        np.testing.assert_array_equal(out.data, img.data[::-1, ::-1, :])

    def test_four_quarter_turns_compose_to_identity(self):
        img = gabor()
        out = img
        for _ in range(4):
            out = rotate_image(out, np.pi / 2)
        np.testing.assert_array_equal(out.data, img.data)

    def test_quarter_snap_agrees_with_bilinear_path(self):
        # 2e-9 off the snap window forces interpolation; both paths must agree.
        img = gabor()
        snapped = rotate_image(img, np.pi / 2)
        interpolated = rotate_image(img, np.pi / 2 + 2e-9)
        assert relative_difference(interpolated, snapped, crop=1) < 1e-6

    def test_matches_analytic_field_rotation(self):
        # Rotating the sampled grid must track rotating the continuous field.
        size, mesh = 64, 1 / 3
        for seed, theta in ((0, 0.35), (3, -1.1), (9, 2.4)):
            field = synthetic_field(seed, size * mesh / 2)
            img = sample_field(field, size, size, mesh)
            c, s = np.cos(theta), np.sin(theta)
            expected = sample_field(lambda x, y: field(c * x + s * y, -s * x + c * y),
                                    size, size, mesh)
            assert relative_difference(rotate_image(img, theta), expected, crop=4) < 2.5e-2

    def test_interpolation_error_shrinks_quadratically(self):
        field = synthetic_field(3, 64 * (1 / 3) / 2)
        theta = 0.35
        c, s = np.cos(theta), np.sin(theta)
        rotated_field = lambda x, y: field(c * x + s * y, -s * x + c * y)
        errs = []
        for size, mesh in ((64, 1 / 3), (128, 1 / 6), (256, 1 / 12)):
            img = sample_field(field, size, size, mesh)
            expected = sample_field(rotated_field, size, size, mesh)
            errs.append(relative_difference(rotate_image(img, theta), expected, crop=size // 16))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.0 < coarse / fine < 5.0

    def test_linear_in_pixel_values(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12, 2))
        b = rng.standard_normal((12, 12, 2))
        theta = 0.7
        combo = rotate_image(PlanarImage(2.5 * a - 1.25 * b), theta).data
        parts = 2.5 * rotate_image(PlanarImage(a), theta).data \
            - 1.25 * rotate_image(PlanarImage(b), theta).data
        np.testing.assert_allclose(combo, parts, atol=1e-13)

    def test_never_exceeds_input_range(self):
        rng = np.random.default_rng(1)
        for k in range(20):
            data = rng.standard_normal((9, 9, 1))
            theta = rng.uniform(-np.pi, np.pi)
            out = rotate_image(PlanarImage(data), theta)
            assert np.max(np.abs(out.data)) <= np.max(np.abs(data)) + 1e-12

    def test_zero_angle_is_identity(self):
        img = gabor(size=16)
        np.testing.assert_array_equal(rotate_image(img, 0.0).data, img.data)

    def test_non_square_quarter_turn_rejected(self):
        img = PlanarImage(np.ones((4, 6, 1)))
        with pytest.raises(ValueError, match="non-square"):
            rotate_image(img, np.pi / 2)
        rotate_image(img, np.pi)  # multiples of pi keep the shape

    def test_non_finite_angle_rejected(self):
        img = gabor(size=8)
        with pytest.raises(ValueError):
            rotate_image(img, np.nan)
        with pytest.raises(ValueError):
            rotate_image(img, np.inf)

    def test_mesh_preserved(self):
        img = gabor(size=16, mesh=0.25)
        assert rotate_image(img, 1.0).mesh == 0.25


class TestActOnFeatureMap:
    def test_fiber_roll(self):
        # Constant slices tagged by orientation index isolate the fiber shift.
        t = 4
        data = np.zeros((6, 6, t, 1))
        for o in range(t):
            data[:, :, o, 0] = o
        out = act_on_feature_map(data, 0.0, 1)
        for o in range(t):
            np.testing.assert_array_equal(out[:, :, o, 0], np.full((6, 6), (o - 1) % t))

    def test_quarter_action_on_slices(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((5, 5, 4, 3))
        out = act_on_feature_map(data, np.pi / 2, 1)
        rotated = np.rot90(data, k=1, axes=(0, 1))
        np.testing.assert_array_equal(out, np.roll(rotated, 1, axis=2))

    def test_group_composition(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((8, 8, 4, 2))
        once = act_on_feature_map(act_on_feature_map(f, np.pi / 2, 1), np.pi / 2, 1)
        twice = act_on_feature_map(f, np.pi, 2)
        np.testing.assert_array_equal(once, twice)

    def test_full_cycle_is_identity(self):
        rng = np.random.default_rng(4)
        f = rng.standard_normal((6, 6, 4, 2))
        out = f
        for _ in range(4):
            out = act_on_feature_map(out, np.pi / 2, 1)
        np.testing.assert_array_equal(out, f)

    def test_shift_out_of_range_rejected(self):
        f = np.ones((4, 4, 4, 1))
        with pytest.raises(ValueError, match="out of range"):
            act_on_feature_map(f, 0.0, 4)
        with pytest.raises(ValueError, match="out of range"):
            act_on_feature_map(f, 0.0, -1)


class TestRelativeDifference:
    def test_identical_is_zero(self):
        img = gabor(size=16)
        assert relative_difference(img, img) == 0.0

    def test_hand_value(self):
        a = PlanarImage(np.array([[3.0, 0.0]])[:, :, None].reshape(1, 2, 1))
        b = PlanarImage(np.array([[0.0, 4.0]])[:, :, None].reshape(1, 2, 1))
        assert relative_difference(a, b) == pytest.approx(5.0 / 4.0)

    def test_crop_removes_border(self):
        img = gabor(size=16)
        edited = img.data.copy()
        edited[0, :, :] += 7.0
        assert relative_difference(PlanarImage(edited, mesh=img.mesh), img, crop=1) == 0.0
        assert relative_difference(PlanarImage(edited, mesh=img.mesh), img) > 0.0

    def test_zero_reference_rejected(self):
        a = PlanarImage(np.ones((4, 4, 1)))
        zero = PlanarImage(np.zeros((4, 4, 1)))
        with pytest.raises(DegenerateReferenceError):
            relative_difference(a, zero)

    def test_overlarge_crop_rejected(self):
        img = gabor(size=8)
        with pytest.raises(ValueError, match="crop"):
            relative_difference(img, img, crop=4)

    def test_type_and_shape_mismatch_rejected(self):
        # PlanarImage is the only operand type left, so only shapes can differ
        img = PlanarImage(np.ones((4, 4, 1)))
        with pytest.raises(ValueError, match="mismatch"):
            relative_difference(img, PlanarImage(np.ones((4, 4, 2))))
        with pytest.raises(ValueError, match="mismatch"):
            relative_difference(img, PlanarImage(np.ones((4, 5, 1))))


class TestContainers:
    def test_planar_image_validation(self):
        with pytest.raises(ValueError):
            PlanarImage(np.array([[np.nan]])[:, :, None])
        with pytest.raises(ValueError):
            PlanarImage(np.ones((4, 4, 1)), mesh=0.0)
        with pytest.raises(ValueError):
            PlanarImage(np.ones((4, 4, 1)), mesh=-1.0)

    def test_planar_image_data_is_frozen(self):
        img = PlanarImage(np.ones((4, 4, 1)))
        with pytest.raises(ValueError):
            img.data[0, 0, 0] = 2.0
