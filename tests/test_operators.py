"""Operator bank: mode actions, dense assembly, kernel quadrature oracles.

The diagonal/swap actions coded in the package are cross-checked here against
direct quadrature of the defining kernels:

    (B h)(x) = (1/pi)   int ln|sin((x+y)/2)| h(y) dy
    (J h)(x) = (1/2pi) PV int cot((x+y)/2)  h(y) dy
    (G h)(x) = (1/2pi) PV int cot((y-x)/2)  h(y) dy

so the spectral shortcuts never drift from the integral definitions.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from modes import cos_mode, sin_mode
from nldlab import (
    B_CONSTANT_VALUE,
    BasisLayout,
    EpsilonSequence,
    ModelParams,
    analysis_residual,
    assemble_T,
    mode_map,
    stationary_state,
)
from nldlab.operators import _gamma
from oracles import assemble, f_p, f_s, l2_operator_norm, l2_weights, multiplier_from_samples

EPS = EpsilonSequence()


def apply(layout, name, c):
    """The named operator on the state c, with the module's eps and kappa = 1.25."""
    return mode_map(layout, name, eps=EPS, kappa=1.25)(c)


def mult_operator(layout, g):
    """Matrix of h -> g*h for the state g."""
    return multiplier_from_samples(layout, layout.fft_synthesis(g))


# --- quadrature oracles ------------------------------------------------------

def _cot_remainder(u):
    """cot(u/2) - 2/u, smooth on |u| < 2*pi."""
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-3
    out = np.empty_like(u)
    us = np.where(small, 1.0, u)
    out = 1.0 / np.tan(us / 2.0) - 2.0 / us
    series = -u / 6.0 - u**3 / 360.0 - u**5 / 15120.0
    return float(np.where(small, series, out)) if out.ndim == 0 else np.where(small, series, out)


def b_oracle(h, x):
    """Log-kernel integral at a point, scipy quad with the singularity flagged."""
    val, err = quad(lambda y: np.log(np.abs(np.sin((x + y) / 2.0))) * h(y),
                    -np.pi, np.pi, points=[-x], limit=200)
    assert err < 1e-7
    return val / np.pi


def j_oracle(h, x):
    """PV cotangent kernel cot((x+y)/2): Cauchy part 2/(y+x) plus smooth rest."""
    pv, err1 = quad(lambda y: 2.0 * h(y), -np.pi, np.pi, weight="cauchy", wvar=-x)
    rest, err2 = quad(lambda y: _cot_remainder(x + y) * h(y), -np.pi, np.pi, limit=200)
    assert err1 < 1e-6 and err2 < 1e-8
    return (pv + rest) / (2.0 * np.pi)


def g_oracle(h, x):
    """PV cotangent kernel cot((y-x)/2): Cauchy part 2/(y-x) plus smooth rest."""
    pv, err1 = quad(lambda y: 2.0 * h(y), -np.pi, np.pi, weight="cauchy", wvar=x)
    rest, err2 = quad(lambda y: _cot_remainder(y - x) * h(y), -np.pi, np.pi, limit=200)
    assert err1 < 1e-6 and err2 < 1e-8
    return (pv + rest) / (2.0 * np.pi)


class TestKernelOracles:
    """The spectral actions equal the integral operators they stand for."""

    XS = [0.3, -0.7, 1.0]

    def test_b_on_constant(self):
        for x in self.XS:
            assert b_oracle(lambda y: 1.0, x) == pytest.approx(B_CONSTANT_VALUE, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_b_on_single_modes(self, n):
        for x in self.XS:
            got_c = b_oracle(lambda y: np.cos(n * y), x)
            assert got_c == pytest.approx(-np.cos(n * x) / n, abs=1e-8)
            got_s = b_oracle(lambda y: np.sin(n * y), x)
            assert got_s == pytest.approx(np.sin(n * x) / n, abs=1e-8)

    def test_b_on_combination(self):
        h = lambda y: 1.0 + np.cos(y) - 2.0 * np.sin(3.0 * y)
        for x in self.XS:
            expected = B_CONSTANT_VALUE - np.cos(x) - (2.0 / 3.0) * np.sin(3.0 * x)
            assert b_oracle(h, x) == pytest.approx(expected, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_j_swaps_cos_and_sin(self, n):
        for x in self.XS:
            assert j_oracle(lambda y: np.cos(n * y), x) == pytest.approx(np.sin(n * x), abs=1e-7)
            assert j_oracle(lambda y: np.sin(n * y), x) == pytest.approx(np.cos(n * x), abs=1e-7)

    def test_j_kills_the_mean(self):
        for x in self.XS:
            assert j_oracle(lambda y: 1.0, x) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2])
    def test_g_is_the_hilbert_action(self, n):
        for x in self.XS:
            assert g_oracle(lambda y: np.cos(n * y), x) == pytest.approx(-np.sin(n * x), abs=1e-7)
            assert g_oracle(lambda y: np.sin(n * y), x) == pytest.approx(np.cos(n * x), abs=1e-7)


class TestEpsilonSequence:
    def test_defaults_and_values(self):
        assert EPS.eps0 == 0.05 and EPS.rho == 0.5
        assert EPS.values(4)[3] == pytest.approx(0.00625, rel=1e-15)
        np.testing.assert_allclose(EPS.values(4), [0.05, 0.025, 0.0125, 0.00625], rtol=1e-15)
        assert not EPS.degenerate

    def test_degenerate_zero_coupling_is_allowed(self):
        z = EpsilonSequence(0.0)
        assert z.degenerate
        assert np.all(z.values(10) == 0.0)

    def test_validation(self):
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                EpsilonSequence(eps0=bad)
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                EpsilonSequence(rho=bad)

    def test_underflow_guard(self):
        with pytest.raises(ValueError):
            EpsilonSequence().values(2000)


class TestModeActions:
    def test_A(self, layout16):
        out = apply(layout16, "A", cos_mode(layout16, 3))
        np.testing.assert_array_equal(out, cos_mode(layout16, 3, 10.0))
        out = apply(layout16, "A", sin_mode(layout16, 2))
        np.testing.assert_array_equal(out, sin_mode(layout16, 2, 5.0))

    def test_B(self, layout16):
        one = apply(layout16, "B", cos_mode(layout16, 0))
        np.testing.assert_array_equal(one, cos_mode(layout16, 0, B_CONSTANT_VALUE))
        c2 = apply(layout16, "B", cos_mode(layout16, 2))
        np.testing.assert_array_equal(c2, cos_mode(layout16, 2, -0.5))
        s2 = apply(layout16, "B", sin_mode(layout16, 2))
        np.testing.assert_array_equal(s2, sin_mode(layout16, 2, 0.5))

    def test_B_constant_is_minus_two_log_two(self):
        assert B_CONSTANT_VALUE == -2.0 * np.log(2.0)

    def test_one_plus_B_nonnegative_off_the_mean(self, layout16):
        d = np.diag(assemble(layout16, "B"))
        shifted = 1.0 + d[1:]  # drop the constant slot
        assert np.min(shifted) == 0.0  # attained at cos x
        assert np.all(shifted >= 0.0)

    def test_J(self, layout16):
        assert np.all(apply(layout16, "J", cos_mode(layout16, 0)) == 0.0)
        c2 = apply(layout16, "J", cos_mode(layout16, 2))
        np.testing.assert_array_equal(c2, sin_mode(layout16, 2))
        s2 = apply(layout16, "J", sin_mode(layout16, 2))
        np.testing.assert_array_equal(s2, cos_mode(layout16, 2))

    def test_J_drops_and_logs_top_sine(self, layout16):
        # the image 3 cos (N+1)x is dropped; its L2 size |c[-1]| sqrt(pi) is
        # what the grid analysis cannot hold
        N = layout16.N
        out = apply(layout16, "J", sin_mode(layout16, N + 1, 3.0))
        assert np.all(out == 0.0)
        image = 3.0 * np.cos((N + 1) * layout16.grid)
        assert analysis_residual(layout16, image) == pytest.approx(3.0 * np.sqrt(np.pi))

    def test_J_squared_is_identity_off_mean_and_top(self, layout16, rng):
        c = rng.standard_normal(layout16.dim)
        cc = apply(layout16, "J", apply(layout16, "J", c))
        expected = c.copy()
        expected[0] = 0.0
        expected[-1] = 0.0
        np.testing.assert_array_equal(cc, expected)

    def test_G(self, layout16):
        c2 = apply(layout16, "G", cos_mode(layout16, 2))
        np.testing.assert_array_equal(c2, sin_mode(layout16, 2, -1.0))
        s2 = apply(layout16, "G", sin_mode(layout16, 2))
        np.testing.assert_array_equal(s2, cos_mode(layout16, 2))

    def test_K_block_action(self, layout16):
        out = apply(layout16, "K", cos_mode(layout16, 0))
        np.testing.assert_array_equal(out, sin_mode(layout16, 1, 0.05))
        out = apply(layout16, "K", sin_mode(layout16, 1))
        np.testing.assert_array_equal(out, cos_mode(layout16, 0, -0.05))
        out = apply(layout16, "K", cos_mode(layout16, 3))
        np.testing.assert_array_equal(out, sin_mode(layout16, 4, EPS.values(4)[3]))

    def test_K_squared_is_minus_eps_squared_blockwise(self, layout16):
        for n in (0, 2, 7):
            kk = apply(layout16, "K", apply(layout16, "K", cos_mode(layout16, n)))
            np.testing.assert_allclose(kk, cos_mode(layout16, n, -EPS.values(n + 1)[n] ** 2),
                                       rtol=1e-15)

    def test_Q(self, layout16):
        assert np.all(apply(layout16, "Q", cos_mode(layout16, 0)) == 0.0)
        assert np.all(apply(layout16, "Q", sin_mode(layout16, 1)) == 0.0)
        c1 = apply(layout16, "Q", cos_mode(layout16, 1))
        np.testing.assert_array_equal(c1, cos_mode(layout16, 1, -2.0))
        s2 = apply(layout16, "Q", sin_mode(layout16, 2))
        np.testing.assert_array_equal(s2, sin_mode(layout16, 2, -2.0))

    def test_Qkappa_block(self, layout16):
        out = apply(layout16, "Qkappa", cos_mode(layout16, 2))
        expected = cos_mode(layout16, 2, -6.0) + sin_mode(layout16, 2, -2.5)
        np.testing.assert_array_equal(out, expected)
        with pytest.raises(ValueError):
            mode_map(layout16, "Qkappa", kappa=0.9)

    def test_A_minus_Jdx(self, layout16):
        c2 = apply(layout16, "A_minus_Jdx", cos_mode(layout16, 2))
        np.testing.assert_array_equal(c2, cos_mode(layout16, 2, 7.0))
        s2 = apply(layout16, "A_minus_Jdx", sin_mode(layout16, 2))
        np.testing.assert_array_equal(s2, sin_mode(layout16, 2, 3.0))
        diag = np.diag(assemble(layout16, "A_minus_Jdx"))
        assert np.min(diag) == 1.0  # uniform coercivity floor


class TestAssembly:
    OPS = ["A", "B", "Q", "A_minus_Jdx", "J", "G", "D", "K", "Qkappa", "reflect", "sin"]

    @pytest.mark.parametrize("name", OPS)
    def test_mode_map_acts_on_blocks_column_by_column(self, name, layout16, rng):
        # the batched stepper applies the maps to (seeds, dim) blocks; Qkappa's
        # rows recur, so its block image needs the per-row sums too
        op = mode_map(layout16, name, eps=EPS, kappa=1.25)
        block = rng.standard_normal((5, layout16.dim))
        image = op(block)
        np.testing.assert_allclose(image, block @ assemble(layout16, name, eps=EPS, kappa=1.25).T,
                                   rtol=0, atol=1e-12)
        for j in range(5):
            np.testing.assert_array_equal(image[j], op(block[j]))

    @pytest.mark.parametrize("name", [op for op in OPS if op not in ("D", "reflect")])
    def test_matrix_columns_equal_mode_action(self, name, layout16):
        m = assemble(layout16, name, eps=EPS, kappa=1.25)
        for i in range(layout16.dim):
            e = np.eye(layout16.dim)[i]
            np.testing.assert_array_equal(m[:, i], apply(layout16, name, e),
                                          err_msg=f"{name} column {i}")

    def test_matrix_apply_matches_coefficient_action(self, layout16, rng):
        c = rng.standard_normal(layout16.dim)
        for name in ("A", "B", "Q", "K"):
            m = assemble(layout16, name, eps=EPS)
            np.testing.assert_allclose(m @ c, apply(layout16, name, c),
                                       rtol=1e-14, atol=1e-16)

    def test_derivative_of_B_is_J(self, layout16):
        d = assemble(layout16, "D")
        b = assemble(layout16, "B")
        j = assemble(layout16, "J")
        np.testing.assert_allclose(d @ b, j, atol=1e-15)

    def test_J_is_reflected_hilbert(self, layout16):
        r = assemble(layout16, "reflect")
        g = assemble(layout16, "G")
        j = assemble(layout16, "J")
        np.testing.assert_array_equal(r @ g, j)
        np.testing.assert_array_equal(r @ j, g)

    def test_K_norm_is_eps0_and_skew(self, layout16):
        k = assemble(layout16, "K", eps=EPS)
        assert np.linalg.norm(k, 2) == EPS.eps0
        np.testing.assert_array_equal(k.T, -k)

    def test_Q_spectrum_nonpositive_with_double_kernel(self, layout16):
        q = np.diag(assemble(layout16, "Q"))
        assert np.all(q <= 0.0)
        assert np.count_nonzero(q == 0.0) == 2  # constant and sin x

    def test_unknown_name_and_missing_arguments(self, layout16):
        with pytest.raises(ValueError):
            assemble(layout16, "nosuch")
        with pytest.raises(ValueError):
            assemble(layout16, "K")
        with pytest.raises(ValueError):
            assemble(layout16, "Qkappa")
        with pytest.raises(ValueError):
            assemble(layout16, "Qkappa", kappa=0.5)
        with pytest.raises(ValueError):
            assemble(layout16, "mult")


class TestMultiplication:
    def test_multiplication_by_one_is_identity(self, layout16):
        m = mult_operator(layout16, cos_mode(layout16, 0))
        np.testing.assert_allclose(m, np.eye(layout16.dim), atol=1e-13)

    def test_first_column_is_the_multiplier(self, layout16):
        g = cos_mode(layout16, 0) - sin_mode(layout16, 1)
        m = mult_operator(layout16, g)
        np.testing.assert_allclose(m[:, 0], g, atol=1e-14)

    def test_self_adjoint_in_l2(self, layout16):
        g = cos_mode(layout16, 0) - sin_mode(layout16, 1)
        m = mult_operator(layout16, g)
        w = l2_weights(layout16)
        wm = w[:, None] * m
        np.testing.assert_allclose(wm, wm.T, atol=1e-13)

    def test_matches_pointwise_samples(self, layout16, rng):
        g = cos_mode(layout16, 0) - sin_mode(layout16, 1)
        c = rng.standard_normal(layout16.dim)
        product = layout16.fft_analysis(layout16.fft_synthesis(g) * layout16.fft_synthesis(c))
        np.testing.assert_allclose(mult_operator(layout16, g) @ c, product, atol=1e-13)

    def test_l2_norm_approaches_sup_of_multiplier(self):
        # ||g h||_2 <= sup|g| ||h||_2 with near-equality once the layout can
        # concentrate mass near the max of g = 1 - sin x
        lay = BasisLayout(64)
        g = cos_mode(lay, 0) - sin_mode(lay, 1)
        nrm = l2_operator_norm(lay, mult_operator(lay, g))
        assert nrm <= 2.0 + 1e-10
        assert nrm > 1.995

    def test_two_norm_metrics_differ_for_K(self, layout16):
        # raw coefficient 2-norm of K is eps0; the L2(Gamma)-weighted norm sees
        # the 2*pi constant-mode weight and lands at eps0 * sqrt(2)
        k = assemble(layout16, "K", eps=EPS)
        assert np.linalg.norm(k, 2) == pytest.approx(EPS.eps0, abs=1e-15)
        assert l2_operator_norm(layout16, k) == pytest.approx(EPS.eps0 * np.sqrt(2.0),
                                                              rel=1e-12)


class TestMultiplierFromMoments:
    """The FFT-moment oracle against the dense P diag(g) S, and the closed-form
    multipliers of the linearization against both."""

    LAYOUTS = [BasisLayout(4), BasisLayout(16), BasisLayout(127), BasisLayout(127, M=516),
               BasisLayout(16, M=74), BasisLayout(16, M=100)]

    @pytest.mark.parametrize("lay", LAYOUTS, ids=lambda lay: f"N{lay.N}-M{lay.M}")
    def test_matches_dense_oracle_on_full_band_samples(self, lay, rng):
        S, P = lay.synthesis_matrix(), lay.analysis_matrix()
        for _ in range(3):
            g = rng.standard_normal(lay.M)   # every grid frequency present
            oracle = P @ (g[:, None] * S)
            built = multiplier_from_samples(lay, g)
            assert built.shape == (lay.dim, lay.dim)
            assert np.abs(built - oracle).max() <= 1e-13 * np.abs(oracle).max()

    @pytest.mark.parametrize("lay", LAYOUTS, ids=lambda lay: f"N{lay.N}-M{lay.M}")
    def test_zero_samples_give_exact_zeros(self, lay):
        built = multiplier_from_samples(lay, np.zeros(lay.M))
        assert built.shape == (lay.dim, lay.dim)
        assert np.count_nonzero(built) == 0

    @pytest.mark.parametrize("N", [4, 16, 128, 512])
    def test_sin_map_is_the_fft_multiplier(self, N):
        # an M-term moment sum of |g| <= 1 rounds by at most gamma_M
        lay = BasisLayout(N)
        oracle = multiplier_from_samples(lay, np.sin(lay.grid))
        assert np.abs(assemble(lay, "sin") - oracle).max() <= _gamma(lay.M)

    def test_assemble_T_matches_dense_formula(self):
        # Q + K + P diag(f_s) S + P diag(f_p) S D with dense S, P and D, the
        # model's f_s and f_p sampled at u1
        lay = BasisLayout(32)
        params = ModelParams(lay)
        u = stationary_state("u1", lay)
        S, P = lay.synthesis_matrix(), lay.analysis_matrix()
        D = assemble(lay, "D")
        us, uxs = S @ u, S @ (D @ u)
        fs = np.broadcast_to(f_s(lay.grid, us, uxs, params), (lay.M,))
        fp = np.broadcast_to(f_p(lay.grid, us, uxs, params), (lay.M,))
        assert np.abs(fs).max() > 1e-3 and np.abs(fp).max() > 1e-3
        multipliers = P @ (fs[:, None] * S) + P @ (fp[:, None] * S) @ D
        dense = assemble(lay, "Q") + assemble(lay, "K", eps=EPS) + multipliers
        built = assemble_T("u1", params).dense()
        # relative entrywise (the Q diagonal reaches N^2), absolute at the
        # scale of the multiplier part elsewhere
        np.testing.assert_allclose(built, dense, rtol=1e-13,
                                   atol=1e-13 * np.abs(multipliers).max())


class TestSliceApplication:
    """Mode maps act run by run as slice products along the last axis."""

    @pytest.mark.parametrize("name", TestAssembly.OPS)
    def test_block_rows_equal_lone_vectors(self, name, layout16, rng):
        op = mode_map(layout16, name, eps=EPS, kappa=1.25)
        block = rng.standard_normal((5, layout16.dim))
        image = op(block)
        for j in range(5):
            np.testing.assert_array_equal(image[j], op(block[j]))
        oracle = block @ assemble(layout16, name, eps=EPS, kappa=1.25).T
        assert np.max(np.abs(image - oracle)) <= 1e-15 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("height", [None, 4])
    @pytest.mark.parametrize("name", ["K", "Qkappa"])
    def test_into_accumulates_entry_by_entry_in_table_order(self, name, height, layout16, rng):
        # K has no recurring row; Qkappa adds its D run onto rows its Q run wrote
        op = mode_map(layout16, name, eps=EPS, kappa=1.25)
        assert (len(set(op.rows.tolist())) < len(op.rows)) == (name == "Qkappa")
        shape = (layout16.dim,) if height is None else (height, layout16.dim)
        c, start = rng.standard_normal(shape), rng.standard_normal(shape)
        expected = start.copy()
        for row, col, value in zip(op.rows, op.cols, op.values):
            expected[..., row] += value * c[..., col]
        into = start.copy()
        assert op(c, into=into) is into
        assert into.tobytes() == expected.tobytes()

    def test_pair_maps_are_two_runs(self, layout16):
        for name in ("J", "G", "D", "K"):
            assert len(mode_map(layout16, name, eps=EPS).runs) == 2
        assert len(mode_map(layout16, "Qkappa", kappa=1.25).runs) == 3
