"""Nonlinearity f and the assembled right-hand side F."""

import numpy as np
import pytest
from scipy.integrate import quad

from modes import cos_mode, sin_mode
from nldlab import (BasisLayout, EpsilonSequence, ModelParams, evaluate_F, f, f_p, f_s, mode_map,
                    qkappa_spectrum)


class TestModelParams:
    def test_defaults(self, params32):
        assert params32.kappa == 1.25
        assert params32.theta == 0.875
        assert params32.dt == 1e-3
        assert params32.T_final == 50.0
        assert params32.d == pytest.approx(0.75, rel=1e-15)

    def test_kappa_must_be_supercritical(self, layout32):
        for bad in (1.0, 0.5, -1.0):
            with pytest.raises(ValueError):
                ModelParams(layout32, kappa=bad)
        assert ModelParams(layout32, kappa=-1.5).d == pytest.approx(np.sqrt(1.25))

    def test_d_is_finite_for_huge_kappa(self):
        mpmath = pytest.importorskip("mpmath")
        for kappa in (1e200, -1e200, 1.7e308):
            d = ModelParams(BasisLayout(4), kappa=kappa).d
            with mpmath.workdps(40):
                exact = mpmath.sqrt(mpmath.mpf(kappa) ** 2 - 1)
            assert np.isfinite(d) and abs(d - float(exact)) <= 1e-15 * float(exact)
            lo, hi = qkappa_spectrum(1, kappa)
            assert lo == complex(-1.0, d) and hi == complex(-1.0, -d)

    def test_d_keeps_the_unscaled_value(self):
        # at moderate kappa the power-of-two scaling is exact
        for kappa in (1.25, 1.01, 3.0, -2.5, 1e100):
            assert ModelParams(BasisLayout(4), kappa=kappa).d == np.sqrt(kappa * kappa - 1.0)

    def test_positive_time_parameters(self, layout32):
        with pytest.raises(ValueError):
            ModelParams(layout32, dt=0.0)
        with pytest.raises(ValueError):
            ModelParams(layout32, T_final=-1.0)
        for field in ("dt", "T_final"):   # NaN fails every comparison
            with pytest.raises(ValueError, match="dt and T_final must be positive"):
                ModelParams(layout32, **{field: float("nan")})

    def test_theta_range_gate(self, layout32):
        with pytest.raises(ValueError):
            ModelParams(layout32, theta=0.5)


class TestNonlinearity:
    def test_zero_state_annihilated(self, params32):
        x = np.linspace(-np.pi, np.pi, 101)
        assert np.all(f(x, 0.0, 0.0, params32) == 0.0)

    def test_unit_state_cancels_coupling(self, params32):
        # on the plateau: kappa*omega(1)*w(0) = 0, gamma(1) = -1, eta(1) = 1,
        # mu(1) = 0, so f(x,1,0) = eps0*(-1) + eps0*(1 - sin x) = -eps0 sin x
        x = np.linspace(-np.pi, np.pi, 101)
        np.testing.assert_allclose(f(x, 1.0, 0.0, params32),
                                   -params32.eps.eps0 * np.sin(x), atol=1e-17)

    def test_far_field_is_linear_pull(self, params32):
        x = np.linspace(-np.pi, np.pi, 11)
        for s in (3.0, -7.5, 100.0):
            np.testing.assert_array_equal(f(x, s, 7.0, params32), np.full_like(x, -s))

    def test_partials_match_finite_differences(self, params32):
        # coarse check on an irregular cloud; the dense pinned scan lives in
        # the acceptance suite
        rng = np.random.default_rng(7)
        x = rng.uniform(-np.pi, np.pi, 400)
        s = rng.uniform(-3.0, 3.0, 400)
        p = rng.uniform(-3.0, 3.0, 400)
        h = 1e-4
        fd_s = (f(x, s + h, p, params32) - f(x, s - h, p, params32)) / (2 * h)
        fd_p = (f(x, s, p + h, params32) - f(x, s, p - h, params32)) / (2 * h)
        np.testing.assert_allclose(f_s(x, s, p, params32), fd_s, atol=2e-6)
        np.testing.assert_allclose(f_p(x, s, p, params32), fd_p, atol=2e-6)

    def test_s_plus_f_is_bounded_globally(self, params32):
        x = np.linspace(-np.pi, np.pi, 65)[:, None, None]
        # outside the cutoff support the linear pull cancels s identically
        s_far = np.array([-40.0, -5.0, -2.0, 2.0, 5.0, 40.0])[None, :, None]
        p_any = np.array([-40.0, -1.5, 0.0, 3.0, 40.0])[None, None, :]
        far = s_far + f(x, s_far, p_any, params32)
        np.testing.assert_array_equal(far, np.zeros_like(far))
        # so the global sup lives on the core |s|, |p| <= 2 and is modest
        s2 = np.linspace(-2.0, 2.0, 201)[None, :, None]
        p2 = np.linspace(-2.0, 2.0, 201)[None, None, :]
        core = s2 + f(x, s2, p2, params32)
        assert np.isfinite(core).all()
        assert np.max(np.abs(core)) < 3.5

    def test_partial_sups_are_finite(self, params32):
        x = np.linspace(-np.pi, np.pi, 33)[:, None, None]
        s = np.linspace(-4.0, 4.0, 161)[None, :, None]
        p = np.linspace(-4.0, 4.0, 161)[None, None, :]
        assert np.isfinite(f_s(x, s, p, params32)).all()
        assert np.isfinite(f_p(x, s, p, params32)).all()
        assert np.max(np.abs(f_s(x, s, p, params32))) < 10.0
        assert np.max(np.abs(f_p(x, s, p, params32))) < 5.0

    def test_eps0_enters_linearly(self, layout32):
        x, s, p = 0.4, 0.8, -0.3
        base = ModelParams(layout32, eps=EpsilonSequence(0.0))
        probe = ModelParams(layout32, eps=EpsilonSequence(0.1))
        gap = f(x, s, p, probe) - f(x, s, p, base)
        from nldlab import eta, gamma
        assert gap == pytest.approx(0.1 * (gamma(s) + eta(s) * (1 - np.sin(x))), rel=1e-14)


class TestRightHandSide:
    def test_zero_is_fixed_by_F(self, params32):
        out = evaluate_F(np.zeros(params32.layout.dim), params32)
        assert np.all(out == 0.0)

    def test_one_is_fixed_by_F(self, params32):
        # F(1) = 1 + 0 + fft_analysis(-eps0 sin x) + eps0 sin x = 1, with the
        # cancellation happening between exact quadrature and the exact K block
        one = cos_mode(params32.layout, 0)
        out = evaluate_F(one, params32)
        np.testing.assert_allclose(out, one, atol=1e-15)

    @pytest.mark.parametrize("M,tol", [(0, 1e-5), (512, 1e-11)])
    def test_matches_quadrature_oracle(self, M, tol):
        # project f(x, u, u_x) for u = 2 cos x directly with adaptive quadrature
        # and compare mode by mode against the pseudospectral path. f composed
        # with the state is smooth but not band-limited, so the default grid
        # carries a small alias floor; oversampling drives it to roundoff.
        layout = BasisLayout(32) if M == 0 else BasisLayout(32, M=M)
        params = ModelParams(layout)
        u = cos_mode(layout, 1, 2.0)
        fsamp = f(layout.grid, layout.fft_synthesis(u),
                  layout.fft_synthesis(sin_mode(layout, 1, -2.0)), params)
        got = layout.fft_analysis(fsamp)

        def integrand(y, mode, trig):
            val = f(y, 2.0 * np.cos(y), -2.0 * np.sin(y), params)
            return val * (np.cos(mode * y) if trig == "c" else np.sin(mode * y))

        for mode, trig, slot in [(0, "c", 0), (1, "c", 1), (2, "c", 2), (3, "c", 3),
                                 (1, "s", layout.N + 1), (2, "s", layout.N + 2)]:
            val, err = quad(integrand, -np.pi, np.pi, args=(mode, trig),
                            limit=800, epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-8
            scale = 2.0 * np.pi if mode == 0 else np.pi
            assert got[slot] == pytest.approx(val / scale, abs=tol), (mode, trig)

    def test_linear_part_alone(self, layout32):
        # with the coupling switched off F(u) - u - f-term is exactly J u_x
        params = ModelParams(layout32, eps=EpsilonSequence(0.0))
        u = cos_mode(layout32, 3, 0.25)
        out = evaluate_F(u, params)
        # f(x, s, p) on samples of u is not zero (omega ramp), so compare
        # against the explicitly assembled pieces instead
        ux = mode_map(layout32, "D")(u)
        fsamp = f(layout32.grid, layout32.fft_synthesis(u), layout32.fft_synthesis(ux), params)
        manual = u + mode_map(layout32, "J")(ux) + layout32.fft_analysis(fsamp)
        np.testing.assert_array_equal(out, manual)


def shape_sum_f(x, s, p, params):
    """f as the sum of the public cutoff shapes, the form the model regroups."""
    from nldlab import eta, gamma, mu, omega, w
    eps0 = params.eps.eps0
    return (params.kappa * omega(s) * w(p) + eps0 * gamma(s)
            + eps0 * eta(s) * (1.0 - np.sin(x)) + mu(s))


def shape_sum_f_s(x, s, p, params):
    from nldlab.cutoffs import eta_prime, gamma_prime, mu_prime, omega_prime, w
    eps0 = params.eps.eps0
    return (params.kappa * omega_prime(s) * w(p) + eps0 * gamma_prime(s)
            + eps0 * eta_prime(s) * (1.0 - np.sin(x)) + mu_prime(s))


class TestRegroupedKernel:
    """f, f_s, f_p against the shape sums they regroup."""

    @pytest.fixture(scope="class")
    def points(self):
        rng = np.random.default_rng(11)
        x, s, p = rng.uniform(-4.0, 4.0, (3, 20000))
        # the seams |s|, |p| in {1, 2}, the band between and the plateau, in every pairing
        edges = np.array([-2.0, -1.999, -1.5, -1.0 - 1e-9, -1.0, -0.5, 0.0,
                          0.5, 1.0, 1.0 + 1e-9, 1.25, 1.5, 1.999, 2.0, 2.5])
        xe, se, pe = np.meshgrid(np.linspace(-4.0, 4.0, 9), edges, edges)
        return (np.concatenate([x, xe.ravel()]), np.concatenate([s, se.ravel()]),
                np.concatenate([p, pe.ravel()]))

    def test_f_matches_shape_sum(self, params32, points):
        x, s, p = points
        np.testing.assert_allclose(f(x, s, p, params32), shape_sum_f(x, s, p, params32),
                                   rtol=0, atol=1e-15)

    def test_f_s_matches_shape_sum(self, params32, points):
        x, s, p = points
        np.testing.assert_allclose(f_s(x, s, p, params32), shape_sum_f_s(x, s, p, params32),
                                   rtol=0, atol=1e-14)

    def test_f_p_is_the_shape_product_bit_for_bit(self, params32, points):
        from nldlab.cutoffs import omega, w_prime
        x, s, p = points
        np.testing.assert_array_equal(f_p(x, s, p, params32),
                                      params32.kappa * omega(s) * w_prime(p))

    def test_stationary_values_exact(self, params32):
        x = np.linspace(-np.pi, np.pi, 1001)
        eps0 = params32.eps.eps0
        assert np.all(f(x, 1.0, 0.0, params32) == -eps0 * np.sin(x))
        assert np.all(f(x, 0.0, 0.0, params32) == 0.0)
        s = np.array([-9.0, -2.0, 2.0, 2.0 + 1e-12, 4.0])[:, None]
        for p in (-2.0, -1.5, 0.0, 0.7, 3.0):
            np.testing.assert_array_equal(f(x, s, p, params32), np.broadcast_to(-s, (5, 1001)))


class TestFarFieldOverflow:
    """f and f_s stay exactly -s and -1 where the polynomial core would overflow."""

    def test_huge_positive_s(self, params32):
        with np.errstate(over="raise", invalid="raise"):
            assert f(0.3, 1e150, 0.0, params32) == -1e150
            assert f_s(0.3, 1e150, 0.0, params32) == -1.0

    def test_huge_negative_s(self, params32):
        with np.errstate(over="raise", invalid="raise"):
            assert f(0.3, -1e300, 0.5, params32) == 1e300
            assert f_s(0.3, -1e300, 0.5, params32) == -1.0

    def test_band_values_are_the_unclipped_core(self, params32):
        # |s| <= 2 is where the core is read; clipping there changes no bit
        from nldlab import cutoffs as ct
        from nldlab.model import _core
        rng = np.random.default_rng(5)
        x, s, p = rng.uniform(-np.pi, np.pi, 100000), *rng.uniform(-2.0, 2.0, (2, 100000))
        chi = ct.Blend(s).chi
        unclipped = chi * _core(x, s, ct.Blend(p).shape("w"), params32) - (1.0 - chi) * s
        np.testing.assert_array_equal(f(x, s, p, params32), unclipped)


class TestPlateauAndInfinity:
    """f at the plateau's edges, in the band, on its far side and at non-finite
    arguments, against the Blend-based oracle: w vanishes for |p| >= 2, so an
    infinite p reads as p = +-2."""

    EDGES = np.array([1.0, -1.0, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), 2.0, -2.0,
                      np.nan, np.inf, -np.inf])

    def test_f_at_the_edges_matches_the_oracle(self, params32):
        from oracles import blended_f
        x = np.array([-np.pi, -1.0, 0.0, 0.5, 2.0])[:, None, None]
        s, p = self.EDGES[None, :, None], self.EDGES[None, None, :]
        expected = blended_f(x, s, np.clip(p, -2.0, 2.0), params32)
        np.testing.assert_array_equal(f(x, s, p, params32), expected)
        finite = np.isfinite(self.EDGES)
        np.testing.assert_array_equal(expected[..., finite],
                                      blended_f(x, s, p[..., finite], params32))
        for i, si in enumerate(self.EDGES):   # one pair at a time takes the plateau path
            for j, pj in enumerate(self.EDGES):
                np.testing.assert_array_equal(f(x[:, 0, 0], si, pj, params32),
                                              expected[:, i, j])

    def test_infinite_p_is_the_far_field(self, params32):
        from nldlab.cutoffs import w, w_prime
        x, s = 0.4, np.array([-3.0, -1.5, 0.0, 0.5, 1.2, 3.0])
        for p in (np.inf, -np.inf):
            far = np.copysign(2.0, p)
            assert w(p) == 0.0 and w_prime(p) == 0.0
            np.testing.assert_array_equal(f(x, s, p, params32), f(x, s, far, params32))
            np.testing.assert_array_equal(f_s(x, s, p, params32), f_s(x, s, far, params32))
            np.testing.assert_array_equal(f_p(x, s, p, params32), np.zeros_like(s))
