"""Basis layout, collocation transforms, calculus on coefficients."""

import numpy as np
import pytest

from nldlab import (
    BasisLayout,
    GridSamples,
    TrigVector,
    analysis_residual,
    analyze,
    differentiate,
    pointwise_product,
    random_state,
    synth,
    theta_norm,
)


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


class TestTrigVector:
    def test_constructors_and_flat_order(self, layout16):
        v = TrigVector.cosine(layout16, 2, 3.0)
        c = v.coeffs()
        assert c[2] == 3.0 and np.count_nonzero(c) == 1
        s = TrigVector.sine(layout16, 5, -1.0)
        assert s.coeffs()[layout16.N + 5] == -1.0
        assert TrigVector.constant(layout16, 4.0).coeffs()[0] == 4.0
        assert np.all(TrigVector.zero(layout16).coeffs() == 0.0)

    def test_from_coeffs_round_trip(self, layout16, rng):
        c = rng.standard_normal(layout16.dim)
        v = TrigVector.from_coeffs(layout16, c)
        np.testing.assert_array_equal(v.coeffs(), c)

    def test_shape_validation(self, layout16):
        with pytest.raises(ValueError):
            TrigVector(layout16, np.zeros(5), np.zeros(17))
        with pytest.raises(ValueError):
            TrigVector.from_coeffs(layout16, np.zeros(7))
        with pytest.raises(ValueError):
            TrigVector.cosine(layout16, 17)
        with pytest.raises(ValueError):
            TrigVector.sine(layout16, 0)
        assert TrigVector.sine(layout16, 17).b[-1] == 1.0  # top sine exists

    def test_arithmetic(self, layout16, rng):
        u = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        v = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        np.testing.assert_allclose((u + v).coeffs(), u.coeffs() + v.coeffs())
        np.testing.assert_allclose((u - v).coeffs(), u.coeffs() - v.coeffs())
        np.testing.assert_allclose((2.5 * u).coeffs(), 2.5 * u.coeffs())

    def test_mixed_layouts_rejected(self, layout16, layout32):
        with pytest.raises(ValueError):
            TrigVector.zero(layout16) + TrigVector.zero(layout32)

    def test_loss_propagates_through_arithmetic(self, layout16):
        u = TrigVector(layout16, np.zeros(17), np.zeros(17), truncation_loss=0.25)
        v = TrigVector.zero(layout16)
        assert (u + v).truncation_loss == 0.25
        assert (-2.0 * u).truncation_loss == 0.5


class TestTransforms:
    def test_round_trip_on_random_band_limited(self, layout16, rng):
        v = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        back = analyze(synth(v))
        np.testing.assert_allclose(back.coeffs(), v.coeffs(), atol=1e-13)

    def test_analyze_known_samples(self, layout16):
        x = layout16.grid
        v = analyze(GridSamples(layout16, np.cos(2 * x)))
        np.testing.assert_allclose(v.coeffs(), TrigVector.cosine(layout16, 2).coeffs(), atol=1e-14)
        w = analyze(GridSamples(layout16, 1.0 - np.sin(x)))
        expected = TrigVector.constant(layout16, 1.0) - TrigVector.sine(layout16, 1)
        np.testing.assert_allclose(w.coeffs(), expected.coeffs(), atol=1e-14)

    def test_out_of_band_mode_is_invisible_not_aliased(self, layout16):
        # sin((N+2)x) is below the grid Nyquist but outside the layout: it must
        # project to ~0 (discrete orthogonality), not fold onto a low mode.
        x = layout16.grid
        g = GridSamples(layout16, np.sin((layout16.N + 2) * x))
        assert np.max(np.abs(analyze(g).coeffs())) < 1e-13
        assert analysis_residual(g) == pytest.approx(np.sqrt(np.pi), abs=1e-10)

    def test_residual_vanishes_in_band(self, layout16, rng):
        v = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        assert analysis_residual(synth(v)) < 1e-12

    def test_sample_shape_validation(self, layout16):
        with pytest.raises(ValueError):
            GridSamples(layout16, np.zeros(layout16.M + 1))


FFT_LAYOUTS = [BasisLayout(4), BasisLayout(16), BasisLayout(127), BasisLayout(1024),
               BasisLayout(16, M=74), BasisLayout(16, M=100)]


def relative_error(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


class TestFFTPair:
    """fft_synthesis / fft_analysis against the dense synthesis and analysis matrices."""

    @pytest.mark.parametrize("lay", FFT_LAYOUTS, ids=lambda lay: f"N{lay.N}-M{lay.M}")
    @pytest.mark.parametrize("width", [None, 5])
    def test_matches_dense_matrices(self, lay, width, rng):
        shape = (lambda n: (n,)) if width is None else (lambda n: (n, width))
        c = rng.standard_normal(shape(lay.dim))
        g = rng.standard_normal(shape(lay.M))
        S, P = lay.synthesis_matrix(), lay.analysis_matrix()
        samples, coeffs = lay.fft_synthesis(c), lay.fft_analysis(g)
        assert samples.shape == shape(lay.M) and coeffs.shape == shape(lay.dim)
        assert relative_error(samples, S @ c) <= 1e-12
        assert relative_error(coeffs, P @ g) <= 1e-12

    @pytest.mark.parametrize("lay", FFT_LAYOUTS, ids=lambda lay: f"N{lay.N}-M{lay.M}")
    def test_zero_block_maps_to_exact_zeros(self, lay):
        assert np.all(lay.fft_synthesis(np.zeros((lay.dim, 5))) == 0.0)
        assert np.all(lay.fft_analysis(np.zeros((lay.M, 5))) == 0.0)

    def test_columns_transform_independently(self, layout16, rng):
        block = rng.standard_normal((layout16.dim, 5))
        samples = layout16.fft_synthesis(block)
        for j in range(5):
            np.testing.assert_array_equal(samples[:, j], layout16.fft_synthesis(block[:, j]))
            np.testing.assert_array_equal(layout16.fft_analysis(samples)[:, j],
                                          layout16.fft_analysis(samples[:, j]))


class TestDifferentiate:
    def test_single_modes(self, layout16):
        d_cos3 = differentiate(TrigVector.cosine(layout16, 3))
        np.testing.assert_allclose(d_cos3.coeffs(), TrigVector.sine(layout16, 3, -3.0).coeffs())
        d_sin5 = differentiate(TrigVector.sine(layout16, 5))
        np.testing.assert_allclose(d_sin5.coeffs(), TrigVector.cosine(layout16, 5, 5.0).coeffs())
        assert d_cos3.truncation_loss == 0.0

    def test_constant_has_zero_derivative(self, layout16):
        assert np.all(differentiate(TrigVector.constant(layout16, 7.0)).coeffs() == 0.0)

    def test_second_derivative_is_minus_n_squared(self, layout16):
        for n in range(1, layout16.N + 1):
            dd = differentiate(differentiate(TrigVector.cosine(layout16, n)))
            np.testing.assert_allclose(dd.coeffs(), TrigVector.cosine(layout16, n, -float(n * n)).coeffs())

    def test_top_sine_image_dropped_and_logged(self, layout16):
        top = TrigVector.sine(layout16, layout16.N + 1, 2.0)
        d = differentiate(top)
        assert np.all(d.coeffs() == 0.0)
        assert d.truncation_loss == pytest.approx(2.0 * (layout16.N + 1) * np.sqrt(np.pi))

    def test_matches_grid_derivative(self, layout16, rng):
        v = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        x = layout16.grid
        target = np.zeros_like(x)
        for n in range(layout16.N + 1):
            target += -n * v.a[n] * np.sin(n * x)
        for i, m in enumerate(layout16.sin_orders):
            target += m * v.b[i] * np.cos(m * x)
        d = differentiate(v)
        # the dropped (N+1) cos (N+1)x image is the only discrepancy
        target -= (layout16.N + 1) * v.b[-1] * np.cos((layout16.N + 1) * x)
        np.testing.assert_allclose(synth(d).values, target, atol=1e-12)


class TestThetaNorm:
    def test_reference_values(self, layout16):
        one = TrigVector.constant(layout16, 1.0)
        assert theta_norm(one, 0.875) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)
        c1 = TrigVector.cosine(layout16, 1)
        assert theta_norm(c1, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-14)
        assert theta_norm(c1, 0.5) == pytest.approx(np.sqrt(2 * np.pi), rel=1e-14)
        c3 = TrigVector.cosine(layout16, 3, 2.0)
        assert theta_norm(c3, 0.0) == pytest.approx(2 * np.sqrt(np.pi), rel=1e-14)
        assert theta_norm(c3, 1.0) == pytest.approx(2 * 10 * np.sqrt(np.pi), rel=1e-14)

    def test_alpha_zero_matches_grid_quadrature(self, layout16, rng):
        v = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        g = synth(v).values
        quad = np.sqrt(2 * np.pi / layout16.M * np.sum(g**2))
        assert theta_norm(v, 0.0) == pytest.approx(quad, rel=1e-12)

    def test_monotone_in_alpha(self, layout16, rng):
        v = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        norms = [theta_norm(v, al) for al in (0.0, 0.25, 0.5, 0.875)]
        assert norms == sorted(norms)


class TestPointwiseProduct:
    def test_multiplying_by_one_is_identity(self, layout16, rng):
        v = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        p = pointwise_product(TrigVector.constant(layout16, 1.0), v)
        np.testing.assert_allclose(p.coeffs(), v.coeffs(), atol=1e-13)

    def test_product_formulas(self, layout16):
        c1 = TrigVector.cosine(layout16, 1)
        s1 = TrigVector.sine(layout16, 1)
        # cos^2 = 1/2 + cos 2x / 2
        sq = pointwise_product(c1, c1)
        expected = TrigVector.constant(layout16, 0.5) + TrigVector.cosine(layout16, 2, 0.5)
        np.testing.assert_allclose(sq.coeffs(), expected.coeffs(), atol=1e-14)
        # sin cos = sin 2x / 2
        sc = pointwise_product(s1, c1)
        np.testing.assert_allclose(sc.coeffs(), TrigVector.sine(layout16, 2, 0.5).coeffs(), atol=1e-14)

    def test_commutative_and_bilinear(self, layout16, rng):
        u = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        v = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        w = TrigVector.from_coeffs(layout16, rng.standard_normal(layout16.dim))
        np.testing.assert_allclose(pointwise_product(u, v).coeffs(),
                                   pointwise_product(v, u).coeffs(), atol=1e-12)
        lhs = pointwise_product(u + 2.0 * w, v).coeffs()
        rhs = pointwise_product(u, v).coeffs() + 2.0 * pointwise_product(w, v).coeffs()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_projection_drops_high_modes(self, layout16):
        # cos(Nx)^2 = 1/2 + cos(2Nx)/2; only the mean survives the projection
        cN = TrigVector.cosine(layout16, layout16.N)
        sq = pointwise_product(cN, cN)
        np.testing.assert_allclose(sq.coeffs(), TrigVector.constant(layout16, 0.5).coeffs(), atol=1e-13)
        g = GridSamples(layout16, synth(cN).values ** 2)
        assert analysis_residual(g) == pytest.approx(0.5 * np.sqrt(np.pi), abs=1e-10)


class TestRandomState:
    def test_norm_and_determinism(self, layout16):
        v = random_state(layout16, 7, 0.875, 10.0)
        assert theta_norm(v, 0.875) == pytest.approx(10.0, rel=1e-12)
        w = random_state(layout16, 7, 0.875, 10.0)
        np.testing.assert_array_equal(v.coeffs(), w.coeffs())

    def test_seeds_differ(self, layout16):
        v = random_state(layout16, 1, 0.875, 10.0)
        w = random_state(layout16, 2, 0.875, 10.0)
        assert not np.allclose(v.coeffs(), w.coeffs())
