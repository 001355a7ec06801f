"""Cutoff suite: plateau exactness, seam smoothness, derivative consistency."""

import numpy as np
import pytest

from nldlab.cutoffs import chi, sup_abs_w
from oracles import (chi_prime, eta, eta_prime, gamma, gamma_prime, mu, mu_prime, omega,
                     omega_prime, psi, psi_prime, w, w_prime)


def central_diff(fn, s, h=1e-5):
    return (fn(s + h) - fn(s - h)) / (2.0 * h)


class TestPsi:
    def test_vanishes_flat_at_zero(self):
        assert psi(0.0) == 0.0
        assert psi(-3.0) == 0.0
        assert psi_prime(0.0) == 0.0
        assert psi(1e-3) < 1e-300  # exp(-1000) underflows to a clean tiny value

    def test_values(self):
        assert psi(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
        assert psi_prime(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_derivative_matches_fd(self):
        t = np.linspace(0.05, 3.0, 200)
        fd = central_diff(psi, t)
        np.testing.assert_allclose(psi_prime(t), fd, rtol=1e-7, atol=1e-10)

    def test_vectorized(self):
        out = psi(np.array([-1.0, 0.5, 2.0]))
        assert out.shape == (3,)
        assert isinstance(psi(0.5), float)


class TestChi:
    def test_plateaus_are_exact(self):
        z = np.linspace(-1.0, 1.0, 101)
        assert np.all(chi(z) == 1.0)
        far = np.array([-5.0, -2.0, 2.0, 2.5, 100.0])
        assert np.all(chi(far) == 0.0)

    def test_midpoint_symmetry(self):
        # psi(2-|z|) = psi(|z|-1) at |z| = 1.5, so the blend is exactly 1/2
        assert chi(1.5) == 0.5
        assert chi(-1.5) == 0.5

    def test_even_and_in_unit_interval(self):
        z = np.linspace(-3.0, 3.0, 601)
        c = chi(z)
        np.testing.assert_array_equal(c, chi(-z))
        assert np.all((c >= 0.0) & (c <= 1.0))

    def test_monotone_on_transition(self):
        z = np.linspace(1.0, 2.0, 201)
        assert np.all(np.diff(chi(z)) <= 0.0)

    def test_prime_matches_fd_and_is_odd(self):
        z = np.linspace(-2.5, 2.5, 401)
        fd = central_diff(chi, z)
        np.testing.assert_allclose(chi_prime(z), fd, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(chi_prime(z), -chi_prime(-z), atol=1e-15)

    def test_seams_are_flat(self):
        # all derivatives vanish at |z| = 1 and 2; check the first via one-sided
        # probes and the fourth via a wide central stencil straddling each seam
        for z0 in (1.0, 2.0):
            assert chi_prime(z0) == 0.0
            assert abs(chi_prime(z0 + 1e-3)) < 1e-12
            assert abs(chi_prime(z0 - 1e-3)) < 1e-12
            h = 1e-2
            stencil = chi(z0 + h * np.array([-2, -1, 0, 1, 2]))
            d4 = (stencil[0] - 4 * stencil[1] + 6 * stencil[2] - 4 * stencil[3] + stencil[4]) / h**4
            assert abs(d4) < 10.0  # a jump in any lower derivative would blow this up


class TestShapes:
    def test_plateau_identities_exact(self):
        s = np.linspace(-1.0, 1.0, 81)
        np.testing.assert_array_equal(omega(s), s)
        np.testing.assert_array_equal(gamma(s), 2 * s**3 - 3 * s**2)
        np.testing.assert_array_equal(eta(s), 2 * s**2 - s**3)
        np.testing.assert_array_equal(mu(s), np.zeros_like(s))

    def test_far_field_exact(self):
        s = np.array([-10.0, -2.0, 2.0, 3.0, 50.0])
        assert np.all(omega(s) == 0.0)
        assert np.all(gamma(s) == 0.0)
        assert np.all(eta(s) == 0.0)
        np.testing.assert_array_equal(mu(s), -s)
        assert np.all(mu_prime(s) == -1.0)

    def test_extreme_arguments_do_not_overflow(self):
        # every shape and slope but mu's is a zero there, signed as at the finite
        # far-field points +-5, and NaN stays NaN; an overflow warning is an error
        s = np.array([np.inf, -np.inf, 1e200, -1e200, np.nan])
        far = np.array([5.0, -5.0, 5.0, -5.0])
        for fn in (omega, omega_prime, gamma, gamma_prime, eta, eta_prime):
            out = fn(s)
            assert np.all(out[:4] == 0.0) and np.isnan(out[4])
            np.testing.assert_array_equal(np.signbit(out[:4]), np.signbit(fn(far)))
        np.testing.assert_array_equal(mu(s), -s)
        np.testing.assert_array_equal(mu_prime(s[:4]), -1.0)

    def test_linearization_anchors(self):
        # the values the fixed-point linearizations rely on, all exact
        assert w(0.0) == 0.0 and w_prime(0.0) == 1.0
        assert omega(1.0) == 1.0 and omega_prime(1.0) == 1.0
        assert gamma(1.0) == -1.0 and gamma_prime(1.0) == 0.0
        assert eta(1.0) == 1.0 and eta_prime(1.0) == 1.0
        assert mu(1.0) == 0.0 and mu_prime(1.0) == 0.0

    def test_plateau_derivative_examples(self):
        assert gamma_prime(0.5) == -1.5
        assert eta_prime(0.5) == 1.25
        assert omega_prime(-0.3) == 1.0

    def test_primes_match_fd(self):
        s = np.linspace(-2.5, 2.5, 401)
        for fn, dfn in [(omega, omega_prime), (gamma, gamma_prime),
                        (eta, eta_prime), (mu, mu_prime)]:
            fd = central_diff(fn, s)
            np.testing.assert_allclose(dfn(s), fd, rtol=1e-6, atol=1e-7)

    def test_global_bounds(self):
        s = np.linspace(-50.0, 50.0, 20001)
        assert np.max(np.abs(omega(s))) < 1.2
        assert np.max(np.abs(gamma(s))) < 8.3
        assert np.max(np.abs(eta(s))) < 4.9
        for dfn in (omega_prime, gamma_prime, eta_prime, mu_prime):
            assert np.isfinite(dfn(s)).all()
            assert np.max(np.abs(dfn(s))) < 50.0
        # mu is linear in the far field; the bounded object is s + mu = s*chi
        np.testing.assert_allclose(s + mu(s), chi(s) * s, atol=1e-13)
        assert np.max(np.abs(s + mu(s))) < 2.0

    def test_odd_symmetry_of_ramp(self):
        s = np.linspace(0.0, 3.0, 301)
        np.testing.assert_allclose(omega(-s), -omega(s), atol=1e-15)
        np.testing.assert_allclose(mu(-s), -mu(s), atol=1e-15)


class TestW:
    def test_w_is_omega(self):
        assert w is omega
        assert w_prime is omega_prime

    def test_sup_abs_w(self):
        val = sup_abs_w()
        assert val == pytest.approx(1.1750454, abs=1e-5)
        assert sup_abs_w() == val  # cached
        # the sup is attained inside the transition zone, above the plateau max
        assert val > 1.0

    def test_sliced_sup_abs_w_is_the_one_array_scan_bit_for_bit(self):
        from oracles import one_array_sup_abs_w
        assert sup_abs_w().hex() == one_array_sup_abs_w().hex() == "0x1.2ccfc68952007p+0"


class TestClosedForm:
    """chi is built from its closed form (the bump quotient only on the band);
    it must equal the quotient taken everywhere, bit for bit."""

    z = np.concatenate([np.linspace(-3.0, 3.0, 6001),
                        [-2.0, -1.0, 1.0, 2.0, 1.0 + 1e-12, 2.0 - 1e-12, -1.0 - 1e-12]])

    def test_chi_is_the_bump_quotient(self):
        az = np.abs(self.z)
        up, down = psi(2.0 - az), psi(az - 1.0)
        den = up + down
        expected = np.divide(up, den, out=np.zeros_like(den), where=den > 0)
        np.testing.assert_array_equal(chi(self.z), expected)

    def test_chi_prime_is_the_quotient_rule(self):
        az = np.abs(self.z)
        up, down = psi(2.0 - az), psi(az - 1.0)
        num = -psi_prime(2.0 - az) * down - up * psi_prime(az - 1.0)
        den = (up + down) ** 2
        expected = np.sign(self.z) * np.divide(num, den, out=np.zeros_like(den), where=den > 0)
        np.testing.assert_array_equal(chi_prime(self.z), expected)
