"""Basis layout, collocation transforms, calculus on coefficients."""

import numpy as np
import pytest

from modes import cos_mode, sin_mode
from nldlab import BasisLayout, analysis_residual, mode_map, random_state, theta_norm


def differentiate(layout, c):
    return mode_map(layout, "D")(c)


def product(layout, u, v):
    """The band-limited product of two states, analyzed on the grid."""
    return layout.fft_analysis(layout.fft_synthesis(u) * layout.fft_synthesis(v))


class TestLayout:
    def test_dimension_and_default_grid(self):
        lay = BasisLayout(16)
        assert lay.dim == 34
        assert lay.M == 4 * 18
        assert BasisLayout(128).dim == 258

    def test_grid_is_uniform_on_minus_pi_pi(self, layout16):
        x = layout16.grid
        assert x[0] == -np.pi
        assert np.allclose(np.diff(x), 2 * np.pi / layout16.M)
        assert x[-1] == pytest.approx(np.pi - 2 * np.pi / layout16.M)

    def test_mode_enumeration(self, layout16):
        assert layout16.cos_orders.tolist() == list(range(17))
        assert layout16.sin_orders.tolist() == list(range(1, 18))
        assert len(layout16.mode_orders) == layout16.dim

    def test_validation(self):
        with pytest.raises(ValueError):
            BasisLayout(3)
        with pytest.raises(ValueError):
            BasisLayout(16, M=70)  # below the dealiasing floor 4(N+2)
        with pytest.raises(ValueError):
            BasisLayout(16, M=73)  # odd
        assert BasisLayout(16, M=100).M == 100

    def test_l2_weights(self, layout16):
        w = layout16.l2_weights()
        assert w[0] == 2 * np.pi
        assert np.all(w[1:] == np.pi)

    def test_analysis_inverts_synthesis(self, layout16):
        S = layout16.synthesis_matrix()
        P = layout16.analysis_matrix()
        np.testing.assert_allclose(P @ S, np.eye(layout16.dim), atol=1e-13)


class TestTransforms:
    def test_round_trip_on_random_band_limited(self, layout16, rng):
        c = rng.standard_normal(layout16.dim)
        back = layout16.fft_analysis(layout16.fft_synthesis(c))
        np.testing.assert_allclose(back, c, atol=1e-13)

    def test_analyze_known_samples(self, layout16):
        x = layout16.grid
        v = layout16.fft_analysis(np.cos(2 * x))
        np.testing.assert_allclose(v, cos_mode(layout16, 2), atol=1e-14)
        w = layout16.fft_analysis(1.0 - np.sin(x))
        expected = cos_mode(layout16, 0) - sin_mode(layout16, 1)
        np.testing.assert_allclose(w, expected, atol=1e-14)

    def test_out_of_band_mode_is_invisible_not_aliased(self, layout16):
        # sin((N+2)x) is below the grid Nyquist but outside the layout: it must
        # project to ~0 (discrete orthogonality), not fold onto a low mode.
        x = layout16.grid
        g = np.sin((layout16.N + 2) * x)
        assert np.max(np.abs(layout16.fft_analysis(g))) < 1e-13
        assert analysis_residual(layout16, g) == pytest.approx(np.sqrt(np.pi), abs=1e-10)

    def test_residual_vanishes_in_band(self, layout16, rng):
        g = layout16.fft_synthesis(rng.standard_normal(layout16.dim))
        assert analysis_residual(layout16, g) < 1e-12

    def test_sample_shape_validation(self, layout16):
        with pytest.raises(ValueError, match="grid size"):
            layout16.fft_analysis(np.zeros(layout16.M + 1))
        with pytest.raises(ValueError, match="grid size"):
            layout16.fft_analysis(np.zeros((layout16.M - 2, 3)))


FFT_LAYOUTS = [BasisLayout(4), BasisLayout(16), BasisLayout(127), BasisLayout(1024),
               BasisLayout(16, M=74), BasisLayout(16, M=100)]


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestFFTPair:
    """fft_synthesis / fft_analysis against the dense synthesis and analysis matrices."""

    @pytest.mark.parametrize("lay", FFT_LAYOUTS, ids=lambda lay: f"N{lay.N}-M{lay.M}")
    @pytest.mark.parametrize("width", [None, 5])
    def test_matches_dense_matrices(self, lay, width, rng):
        shape = (lambda n: (n,)) if width is None else (lambda n: (width, n))
        c = rng.standard_normal(shape(lay.dim))
        g = rng.standard_normal(shape(lay.M))
        S, P = lay.synthesis_matrix(), lay.analysis_matrix()
        samples, coeffs = lay.fft_synthesis(c), lay.fft_analysis(g)
        assert samples.shape == shape(lay.M) and coeffs.shape == shape(lay.dim)
        assert relative_error(samples, c @ S.T) <= 1e-12
        assert relative_error(coeffs, g @ P.T) <= 1e-12

    @pytest.mark.parametrize("lay", FFT_LAYOUTS, ids=lambda lay: f"N{lay.N}-M{lay.M}")
    def test_zero_block_maps_to_exact_zeros(self, lay):
        assert np.all(lay.fft_synthesis(np.zeros((5, lay.dim))) == 0.0)
        assert np.all(lay.fft_analysis(np.zeros((5, lay.M))) == 0.0)

    def test_columns_transform_independently(self, layout16, rng):
        block = rng.standard_normal((5, layout16.dim))
        samples = layout16.fft_synthesis(block)
        for j in range(5):
            np.testing.assert_array_equal(samples[j], layout16.fft_synthesis(block[j]))
            np.testing.assert_array_equal(layout16.fft_analysis(samples)[j],
                                          layout16.fft_analysis(samples[j]))


class TestDifferentiate:
    def test_single_modes(self, layout16):
        d_cos3 = differentiate(layout16, cos_mode(layout16, 3))
        np.testing.assert_allclose(d_cos3, sin_mode(layout16, 3, -3.0))
        d_sin5 = differentiate(layout16, sin_mode(layout16, 5))
        np.testing.assert_allclose(d_sin5, cos_mode(layout16, 5, 5.0))

    def test_constant_has_zero_derivative(self, layout16):
        assert np.all(differentiate(layout16, cos_mode(layout16, 0, 7.0)) == 0.0)

    def test_second_derivative_is_minus_n_squared(self, layout16):
        for n in range(1, layout16.N + 1):
            dd = differentiate(layout16, differentiate(layout16, cos_mode(layout16, n)))
            np.testing.assert_allclose(dd, cos_mode(layout16, n, -float(n * n)))

    def test_top_sine_image_dropped_and_logged(self, layout16):
        # the image 2(N+1) cos (N+1)x leaves the layout: it is dropped, and its
        # L2 size |c[-1]| (N+1) sqrt(pi) is what the grid analysis cannot hold
        N = layout16.N
        d = differentiate(layout16, sin_mode(layout16, N + 1, 2.0))
        assert np.all(d == 0.0)
        image = 2.0 * (N + 1) * np.cos((N + 1) * layout16.grid)
        assert analysis_residual(layout16, image) == pytest.approx(
            2.0 * (N + 1) * np.sqrt(np.pi))

    def test_matches_grid_derivative(self, layout16, rng):
        c = rng.standard_normal(layout16.dim)
        a, b = c[:layout16.N + 1], c[layout16.N + 1:]
        x = layout16.grid
        target = np.zeros_like(x)
        for n in range(layout16.N + 1):
            target += -n * a[n] * np.sin(n * x)
        for i, m in enumerate(layout16.sin_orders):
            target += m * b[i] * np.cos(m * x)
        d = differentiate(layout16, c)
        # the dropped (N+1) cos (N+1)x image is the only discrepancy
        target -= (layout16.N + 1) * b[-1] * np.cos((layout16.N + 1) * x)
        np.testing.assert_allclose(layout16.fft_synthesis(d), target, atol=1e-12)


class TestThetaNorm:
    def test_reference_values(self, layout16):
        one = cos_mode(layout16, 0)
        assert theta_norm(layout16, one, 0.875) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)
        c1 = cos_mode(layout16, 1)
        assert theta_norm(layout16, c1, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-14)
        assert theta_norm(layout16, c1, 0.5) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)
        c3 = cos_mode(layout16, 3, 2.0)
        assert theta_norm(layout16, c3, 0.0) == pytest.approx(2 * np.sqrt(np.pi), rel=1e-14)
        assert theta_norm(layout16, c3, 1.0) == pytest.approx(2 * 10 * np.sqrt(np.pi),
                                                              rel=1e-14)

    def test_alpha_zero_matches_grid_quadrature(self, layout16, rng):
        c = rng.standard_normal(layout16.dim)
        g = layout16.fft_synthesis(c)
        quad = np.sqrt(2 * np.pi / layout16.M * np.sum(g**2))
        assert theta_norm(layout16, c, 0.0) == pytest.approx(quad, rel=1e-12)

    def test_monotone_in_alpha(self, layout16, rng):
        c = rng.standard_normal(layout16.dim)
        norms = [theta_norm(layout16, c, al) for al in (0.0, 0.25, 0.5, 0.875)]
        assert norms == sorted(norms)

    @pytest.mark.parametrize("alpha", [0.0, 0.875])
    def test_block_gives_the_column_norms(self, layout16, rng, alpha):
        block = rng.standard_normal((5, layout16.dim))
        norms = theta_norm(layout16, block, alpha)
        assert norms.shape == (5,)
        columns = np.array([theta_norm(layout16, block[j], alpha) for j in range(5)])
        assert np.max(np.abs(norms - columns) / columns) <= 1e-15


class TestPointwiseProduct:
    def test_multiplying_by_one_is_identity(self, layout16, rng):
        c = rng.standard_normal(layout16.dim)
        np.testing.assert_allclose(product(layout16, cos_mode(layout16, 0), c), c, atol=1e-13)

    def test_product_formulas(self, layout16):
        c1 = cos_mode(layout16, 1)
        s1 = sin_mode(layout16, 1)
        # cos^2 = 1/2 + cos 2x / 2
        expected = cos_mode(layout16, 0, 0.5) + cos_mode(layout16, 2, 0.5)
        np.testing.assert_allclose(product(layout16, c1, c1), expected, atol=1e-14)
        # sin cos = sin 2x / 2
        np.testing.assert_allclose(product(layout16, s1, c1), sin_mode(layout16, 2, 0.5),
                                   atol=1e-14)

    def test_commutative_and_bilinear(self, layout16, rng):
        u, v, w = rng.standard_normal((3, layout16.dim))
        np.testing.assert_allclose(product(layout16, u, v), product(layout16, v, u),
                                   atol=1e-12)
        lhs = product(layout16, u + 2.0 * w, v)
        rhs = product(layout16, u, v) + 2.0 * product(layout16, w, v)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_projection_drops_high_modes(self, layout16):
        # cos(Nx)^2 = 1/2 + cos(2Nx)/2; only the mean survives the projection
        cN = cos_mode(layout16, layout16.N)
        np.testing.assert_allclose(product(layout16, cN, cN), cos_mode(layout16, 0, 0.5),
                                   atol=1e-13)
        g = layout16.fft_synthesis(cN) ** 2
        assert analysis_residual(layout16, g) == pytest.approx(0.5 * np.sqrt(np.pi), abs=1e-10)


class TestRandomState:
    def test_norm_and_determinism(self, layout16):
        v = random_state(layout16, 7, 0.875, 10.0)
        assert theta_norm(layout16, v, 0.875) == pytest.approx(10.0, rel=1e-12)
        w = random_state(layout16, 7, 0.875, 10.0)
        np.testing.assert_array_equal(v, w)

    def test_seeds_differ(self, layout16):
        v = random_state(layout16, 1, 0.875, 10.0)
        w = random_state(layout16, 2, 0.875, 10.0)
        assert not np.allclose(v, w)
