"""IMEX semiflow: fixed points, order, stability guards, dissipativity."""

import numpy as np
import pytest
from scipy.integrate import quad

from modes import cos_mode
from nldlab import (
    BasisLayout,
    EpsilonSequence,
    ModelParams,
    absorbing_radius,
    dissipativity_probe,
    instability_growth_rate,
    integrate,
    random_state,
    step_imex,
    stationary_residual,
    theta_norm,
)
from nldlab.semiflow import cfl_number, nonlinearity_l2_bound


class TestStep:
    def test_zero_is_an_exact_fixed_point(self, params32):
        u = np.zeros(params32.layout.dim)
        stepped = step_imex(u, params32.dt, params32)
        assert np.all(stepped == 0.0)

    def test_one_is_a_fixed_point_to_roundoff(self, params32):
        u = cos_mode(params32.layout, 0)
        stepped = step_imex(u, params32.dt, params32)
        np.testing.assert_allclose(stepped, u, atol=1e-15)

    def test_fixed_points_hold_over_ten_thousand_steps(self, layout32):
        params = ModelParams(layout32)
        c = cos_mode(layout32, 0)
        traj = integrate(c, params, T=10.0)
        drift = theta_norm(layout32, traj.final_state() - c, params.theta)
        assert drift <= 1e-9

    def test_diagonal_subproblem_matches_backward_euler_exactly(self, layout16):
        # with f and K off the step is (1 - dt*q_n)^(-1) mode by mode
        params = ModelParams(layout16, dt=1e-2)
        c = cos_mode(layout16, 1)  # q = -2
        for _ in range(50):
            c = step_imex(c, params.dt, params, with_f=False, with_K=False)
        expected = (1.0 / (1.0 + 2.0 * params.dt)) ** 50
        assert c[1] == pytest.approx(expected, rel=1e-13)
        assert np.max(np.abs(np.delete(c, 1))) == 0.0

    def test_diagonal_subproblem_converges_to_heat_decay(self, layout16):
        # u_t = Qu with u0 = cos x decays like exp(-2t); backward Euler error
        # shrinks linearly in dt
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            params = ModelParams(layout16, dt=dt)
            traj = integrate(cos_mode(layout16, 1), params, T=1.0,
                             with_f=False, with_K=False)
            errs.append(abs(traj.final_state()[1] - np.exp(-2.0)))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)

    def test_full_scheme_is_first_order(self):
        lay = BasisLayout(8)
        u0 = 0.1 * cos_mode(lay, 2) + cos_mode(lay, 0, 0.9)
        ref = integrate(u0, ModelParams(lay, dt=1e-5), T=0.5).final_state()
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            got = integrate(u0, ModelParams(lay, dt=dt), T=0.5).final_state()
            errs.append(theta_norm(lay, got - ref, 0.875))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.25)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.35)

    def test_dt_validation_and_override(self, params32):
        u = cos_mode(params32.layout, 1)
        with pytest.raises(ValueError):
            step_imex(u, 0.0, params32)
        a = step_imex(u, 1e-3, params32)
        b = step_imex(u, 1e-4, params32)
        assert not np.array_equal(a, b)

    def test_nan_state_aborts(self, params32):
        c = np.zeros(params32.layout.dim)
        c[0] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError):
            step_imex(c, 1e-3, params32)


class TestIntegrate:
    def test_cfl_guard(self, layout32):
        params = ModelParams(layout32, dt=0.1)
        assert cfl_number(params) > 2.0
        with pytest.raises(ValueError, match="CFL"):
            integrate(np.zeros(layout32.dim), params)

    def test_cfl_number_formula(self, layout32):
        from nldlab.cutoffs import sup_abs_w
        params = ModelParams(layout32)
        expected = params.dt * (layout32.N + 1) * (1.25 * sup_abs_w() + 1.0)
        assert cfl_number(params) == pytest.approx(expected, rel=1e-15)

    def test_layout_mismatch(self, layout16, params32):
        with pytest.raises(ValueError, match="shape"):
            integrate(np.zeros(layout16.dim), params32)
        with pytest.raises(ValueError, match="shape"):
            integrate(np.zeros((params32.layout.dim, 1)), params32)

    def test_recording_schedule(self, layout16):
        params = ModelParams(layout16, dt=1e-3)
        traj = integrate(np.zeros(layout16.dim), params, T=0.55, record_every=100)
        np.testing.assert_allclose(traj.times[:3], [0.0, 0.1, 0.2])
        assert traj.times[-1] == pytest.approx(0.55)
        assert len(traj.states) == len(traj.times) == len(traj.theta_norm_history)

    def test_nan_abort_with_diagnostic(self, layout16):
        params = ModelParams(layout16)
        c = np.zeros(layout16.dim)
        c[3] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="non-finite"):
            integrate(c, params, T=0.2)

    def test_linear_flow_norm_never_increases(self, layout16):
        # Q <= 0, so each mode decays or stays; theta-norm is monotone
        params = ModelParams(layout16)
        u0 = random_state(layout16, 3, params.theta, 5.0)
        traj = integrate(u0, params, T=2.0, with_f=False, with_K=False)
        assert np.all(np.diff(traj.theta_norm_history) <= 1e-14)

    def test_tail_max_norm(self, layout16):
        params = ModelParams(layout16)
        traj = integrate(random_state(layout16, 1, params.theta, 5.0), params, T=2.0)
        assert traj.tail_max_norm(1.0) <= np.max(traj.theta_norm_history)
        assert traj.tail_max_norm(0.0) == np.max(traj.theta_norm_history)

    def test_matches_dense_matrix_oracle(self, layout16):
        # 200 steps of the stepper against a loop built only from the dense
        # assembled operators and the synthesis/analysis matrices
        from nldlab import assemble, f
        params = ModelParams(layout16)
        u0 = random_state(layout16, 5, params.theta, 3.0)
        steps = 200
        traj = integrate(u0, params, T=steps * params.dt, record_every=steps)
        S, P = layout16.synthesis_matrix(), layout16.analysis_matrix()
        Q = assemble(layout16, "Q")
        D = assemble(layout16, "D")
        K = assemble(layout16, "K", eps=params.eps)
        implicit = np.eye(layout16.dim) - params.dt * Q
        c = u0
        for _ in range(steps):
            explicit = P @ f(layout16.grid, S @ c, S @ (D @ c), params) + K @ c
            c = np.linalg.solve(implicit, c + params.dt * explicit)
        assert traj.times[-1] == pytest.approx(steps * params.dt, rel=1e-12)
        assert np.max(np.abs(traj.final_state() - c)) <= 1e-13


class TestStationaryResidual:
    def test_zero_state(self, params32):
        assert stationary_residual(np.zeros(params32.layout.dim), params32) == 0.0

    def test_unit_state(self, params32):
        res = stationary_residual(cos_mode(params32.layout, 0), params32)
        assert res <= 1e-12

    def test_nonstationary_state_is_flagged(self, params32):
        res = stationary_residual(cos_mode(params32.layout, 2), params32)
        assert res > 0.1


class TestAbsorbingRadius:
    def test_half_theta_reference_value(self):
        # C*M*Gamma(1/2)*1 = sqrt(pi)
        assert absorbing_radius(1.0, 1.0, 1.0, 0.5) == pytest.approx(np.sqrt(np.pi), abs=1e-10)

    def test_theta_zero_is_one_over_delta(self):
        assert absorbing_radius(1.0, 1.0, 2.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.875])
    @pytest.mark.parametrize("delta", [0.95, 1.0, 2.0])
    def test_matches_quadrature(self, theta, delta):
        # int_0^inf exp(-delta*s) s^(-theta) ds under s = v^(1/(1-theta))
        # becomes power * int_0^inf exp(-delta * v^power) dv with a smooth
        # integrand: an oracle for the Gamma closed form that never touches it
        power = 1.0 / (1.0 - theta)
        upper = (60.0 / delta) ** (1.0 - theta)  # delta*upper^power = 60, tail < 1e-25
        val, err = quad(lambda v: power * np.exp(-delta * v**power), 0.0, upper, limit=400)
        assert err < 1e-7  # quad's estimate is conservative; measured diff < 2e-14
        C, M = 1.3, 2.0
        assert absorbing_radius(C, M, delta, theta) == pytest.approx(C * M * val, abs=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            absorbing_radius(0.0, 1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            absorbing_radius(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            absorbing_radius(1.0, -2.0, 1.0, 0.5)


class TestDissipativity:
    def test_nonlinearity_bound_is_finite_and_stable(self, layout16):
        params = ModelParams(layout16)
        b1 = nonlinearity_l2_bound(params, n_scan=161)
        b2 = nonlinearity_l2_bound(params, n_scan=321)
        assert np.isfinite(b1) and b1 > 0
        assert b1 == pytest.approx(b2, rel=0.01)

    def test_probe_runs_and_reports(self, layout16):
        params = ModelParams(layout16)
        seeds = [("u0", np.zeros(layout16.dim)),
                 ("u1", cos_mode(layout16, 0)),
                 ("r7", random_state(layout16, 7, params.theta, 10.0))]
        rep = dissipativity_probe(seeds, params, T=2.0)
        assert rep.failed == []
        assert np.isfinite(rep.tail_norms).all()
        assert rep.tail_norms[0] == 0.0
        assert rep.tail_norms[1] == pytest.approx(np.sqrt(2 * np.pi), rel=1e-10)
        assert all(rep.entered)
        assert rep.a_emp <= rep.a_formula

    def test_batched_probe_matches_single_seed_integration(self, params32):
        lay = params32.layout
        seeds = [(f"r{s}", random_state(lay, s, params32.theta, 10.0)) for s in range(4)]
        T = 0.3
        rep = dissipativity_probe(seeds, params32, T=T)
        assert rep.failed == []
        for (_, seed), tail in zip(seeds, rep.tail_norms):
            alone = integrate(seed, params32, T=T).tail_max_norm(T / 2.0)
            assert tail == pytest.approx(alone, rel=1e-12)

    def test_nan_seed_fails_alone(self, params32):
        lay = params32.layout
        seeds = [(f"r{s}", random_state(lay, s, params32.theta, 10.0)) for s in range(4)]
        c = seeds[2][1].copy()
        c[5] = np.nan
        poisoned = seeds[:2] + [("nan", c)] + seeds[2:]
        clean = dissipativity_probe(seeds, params32, T=0.3)
        with np.errstate(invalid="ignore"):
            rep = dissipativity_probe(poisoned, params32, T=0.3)
        assert rep.failed == ["nan"]
        assert np.isnan(rep.tail_norms[2]) and rep.entered[2] is False
        assert rep.tail_norms[:2] + rep.tail_norms[3:] == clean.tail_norms
        assert rep.a_emp == clean.a_emp

    def test_probe_cfl_guard_fires_before_any_step(self, layout32, monkeypatch):
        import nldlab.semiflow as semiflow

        def no_step(*args, **kwargs):
            raise AssertionError("a step was built despite the CFL guard")

        monkeypatch.setattr(semiflow, "_imex_step", no_step)
        params = ModelParams(layout32, dt=0.1)
        seeds = [(f"r{s}", random_state(layout32, s, params.theta, 10.0)) for s in range(3)]
        with pytest.raises(ValueError, match="CFL"):
            dissipativity_probe(seeds, params, T=1.0)

    def test_probe_rejects_state_of_another_layout(self, layout16, params32):
        seeds = [(f"r{s}", random_state(params32.layout, s, params32.theta, 10.0))
                 for s in range(3)]
        seeds[1] = ("r16", random_state(layout16, 1, params32.theta, 10.0))
        with pytest.raises(ValueError, match="shape"):
            dissipativity_probe(seeds, params32, T=0.1)

    def test_probe_needs_three_seeds(self, layout16):
        params = ModelParams(layout16)
        with pytest.raises(ValueError):
            dissipativity_probe([("a", np.zeros(layout16.dim))], params, T=1.0)

    def test_growth_rate_at_unit_state_is_eps0(self, layout16):
        params = ModelParams(layout16)
        rate = instability_growth_rate(params, T=5.0)
        assert rate == pytest.approx(params.eps.eps0, rel=0.1)


def full_scan_bound(params, n_scan=161):
    """The L2 bound scanned over every sampled x, not only the extremes of sin x."""
    from nldlab import f
    x = params.layout.grid
    X = x[:: max(1, len(x) // 64), None, None]
    S = np.linspace(-4.0, 4.0, n_scan)[None, :, None]
    P = np.linspace(-4.0, 4.0, n_scan)[None, None, :]
    return float(np.max(np.abs(S + f(X, S, P, params)))) * np.sqrt(2.0 * np.pi)


def shape_sum_tails(seeds, params, T, record_every=100):
    """Tail theta-norms of the IMEX march written out with f as the sum of the
    public cutoff shapes, one step and one record at a time."""
    from nldlab import eta, gamma, mu, mode_map, omega, w
    lay, dt = params.layout, params.dt
    kappa, eps0 = params.kappa, params.eps.eps0
    D, K = mode_map(lay, "D"), mode_map(lay, "K", eps=params.eps)
    q = mode_map(lay, "Q").values
    x = lay.grid
    C = np.array(seeds)
    tails = np.zeros(C.shape[0])
    n_steps = int(round(T / dt))
    for k in range(1, n_steps + 1):
        s, p = lay.fft_synthesis(C), lay.fft_synthesis(D(C))
        fs = (kappa * omega(s) * w(p) + eps0 * gamma(s)
              + eps0 * eta(s) * (1.0 - np.sin(x)) + mu(s))
        C = (C + dt * (lay.fft_analysis(fs) + K(C))) / (1.0 - dt * q)
        if (k % record_every == 0 or k == n_steps) and k * dt >= T / 2.0:
            tails = np.fmax(tails, theta_norm(lay, C, params.theta))
    return tails


class TestRegroupedKernel:
    @pytest.mark.parametrize("kappa,eps0", [(1.25, 0.05), (2.0, 0.5)])
    @pytest.mark.parametrize("N", [16, 128])
    def test_two_row_bound_matches_full_scan(self, N, kappa, eps0):
        params = ModelParams(BasisLayout(N), kappa=kappa, eps=EpsilonSequence(eps0))
        full = full_scan_bound(params)
        assert abs(nonlinearity_l2_bound(params) - full) <= 4 * np.finfo(float).eps * full

    def test_probe_matches_shape_sum_stepper(self):
        layout = BasisLayout(64)
        params = ModelParams(layout)
        seeds = [random_state(layout, s, params.theta, 10.0) for s in range(3)]
        rep = dissipativity_probe([(f"r{s}", c) for s, c in enumerate(seeds)], params, T=0.4)
        assert rep.failed == []
        np.testing.assert_allclose(rep.tail_norms, shape_sum_tails(seeds, params, 0.4),
                                   rtol=1e-12, atol=0)


class TestSeedMajorMarch:
    """The block march keeps one state per row and takes the derivative's
    samples from the synthesis spectrum."""

    @pytest.mark.parametrize("N", [4, 16, 127, 1024])
    def test_folded_derivative_samples_are_the_synthesis_of_D(self, N, monkeypatch):
        import nldlab.model as model
        from nldlab import mode_map
        params = ModelParams(BasisLayout(N))
        lay = params.layout
        C = np.random.default_rng(N).standard_normal((5, lay.dim))
        assert np.all(C[:, -1] != 0.0)   # the top sine, whose image d/dx drops
        seen = []

        def capture(x, s, p, params):
            seen.append((s.copy(), p.copy()))
            return np.zeros_like(s)

        monkeypatch.setattr(model, "f", capture)
        model.explicit_part(params)(C)
        s, p = seen[0]
        np.testing.assert_array_equal(s, lay.fft_synthesis(C))
        np.testing.assert_array_equal(p, lay.fft_synthesis(mode_map(lay, "D")(C)))

    def test_probe_makes_no_bincount_call(self, params32, monkeypatch):
        def no_bincount(*args, **kwargs):
            raise AssertionError("np.bincount called in the march")

        lay = params32.layout
        seeds = [(f"r{s}", random_state(lay, s, params32.theta, 10.0)) for s in range(3)]
        monkeypatch.setattr(np, "bincount", no_bincount)
        assert dissipativity_probe(seeds, params32, T=0.05).failed == []

    def test_block_rows_end_bit_equal_to_one_seed_integration(self, params32):
        from nldlab.semiflow import _march
        lay = params32.layout
        seeds = [random_state(lay, s, params32.theta, 10.0) for s in range(4)]
        T = 0.3
        n_steps = int(round(T / params32.dt))
        *_, (_, rows, final) = _march(np.array(seeds), params32, n_steps, 100)
        rep = dissipativity_probe([(f"r{s}", c) for s, c in enumerate(seeds)], params32, T=T)
        np.testing.assert_array_equal(rows, np.arange(4))
        for c, row, tail in zip(seeds, final, rep.tail_norms):
            alone = integrate(c, params32, T=T)
            np.testing.assert_array_equal(row, alone.final_state())
            assert tail == alone.tail_max_norm(T / 2.0)

    # float.hex of the probe outputs before the march moved to rows
    GOLDEN = {
        32: (4, 2.0, "0x1.075f8697fcc4ap+3", "0x1.7c079dc05eb8ep-6",
             ["0x1.e5ac6512602d7p-8", "0x1.7c079dc05eb8ep-6", "0x1.02799dec01208p-7",
              "0x1.22cb44f830f7dp-6"]),
        128: (10, 0.5, "0x1.075e1a3101888p+3", "0x1.64c9fb0c963b5p-10",
              ["0x1.9c124ad146444p-11", "0x1.f70c71ee84ec0p-12", "0x1.c5dcea68c495ap-12",
               "0x1.64c9fb0c963b5p-10", "0x1.31d8c819cc565p-11", "0x1.7b54d585794f5p-11",
               "0x1.9e5564be5ca83p-11", "0x1.56997292f5ae6p-11", "0x1.24e4b087156dbp-10",
               "0x1.c1f280288c431p-12"]),
    }

    @pytest.mark.parametrize("N", sorted(GOLDEN))
    def test_probe_outputs_are_pinned_bit_for_bit(self, N):
        n_seeds, T, m_scan, a_emp, tails = self.GOLDEN[N]
        params = ModelParams(BasisLayout(N))
        seeds = [(f"r{s}", random_state(params.layout, s, params.theta, 10.0))
                 for s in range(n_seeds)]
        rep = dissipativity_probe(seeds, params, T=T)
        assert rep.M_scan.hex() == m_scan
        assert rep.a_emp.hex() == a_emp
        assert [t.hex() for t in rep.tail_norms] == tails
