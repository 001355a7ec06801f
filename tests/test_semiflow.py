"""IMEX semiflow: fixed points, order, stability guards, dissipativity."""

from dataclasses import replace

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
    stationary_residual,
    theta_norm,
)
from nldlab.semiflow import _imex_step, cfl_number, nonlinearity_l2_bound


@pytest.fixture
def no_explicit(monkeypatch):
    """Drop f and K from the stepper, leaving the diagonal subproblem u_t = Qu,
    whose exact solution the stepper is tested against."""
    import nldlab.semiflow as semiflow
    monkeypatch.setattr(semiflow, "explicit_part", lambda params: np.zeros_like)


class TestStep:
    def test_zero_is_an_exact_fixed_point(self, params32):
        u = np.zeros(params32.layout.dim)
        stepped = _imex_step(params32)(u[None])[0]
        assert np.all(stepped == 0.0)

    def test_one_is_a_fixed_point_to_roundoff(self, params32):
        u = cos_mode(params32.layout, 0)
        stepped = _imex_step(params32)(u[None])[0]
        np.testing.assert_allclose(stepped, u, atol=1e-15)

    @pytest.mark.parametrize("N", [32, 64, 128, 1024])
    def test_fixed_points_on_the_default_grid(self, N):
        # M = 144, 270, 540, 4320: zero exactly, one to round-off
        params = ModelParams(BasisLayout(N), dt=5e-4)
        step, one = _imex_step(params), cos_mode(params.layout, 0)
        assert np.all(step(np.zeros((1, params.layout.dim))) == 0.0)
        np.testing.assert_allclose(step(one[None])[0], one, atol=1e-15)

    def test_fixed_points_hold_over_ten_thousand_steps(self, layout32):
        params = ModelParams(layout32)
        c = cos_mode(layout32, 0)
        traj = integrate(c, params, T=10.0)
        drift = theta_norm(layout32, traj.states[-1] - c, params.theta)
        assert drift <= 1e-9

    def test_diagonal_subproblem_matches_backward_euler_exactly(self, layout16, no_explicit):
        # with f and K off the step is (1 - dt*q_n)^(-1) mode by mode
        params = ModelParams(layout16, dt=1e-2)
        c = cos_mode(layout16, 1)  # q = -2
        for _ in range(50):
            c = _imex_step(params)(c[None])[0]
        expected = (1.0 / (1.0 + 2.0 * params.dt)) ** 50
        assert c[1] == pytest.approx(expected, rel=1e-13)
        assert np.max(np.abs(np.delete(c, 1))) == 0.0

    def test_diagonal_subproblem_converges_to_heat_decay(self, layout16, no_explicit):
        # u_t = Qu with u0 = cos x decays like exp(-2t); backward Euler error
        # shrinks linearly in dt
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            params = ModelParams(layout16, dt=dt)
            traj = integrate(cos_mode(layout16, 1), params, T=1.0)
            errs.append(abs(traj.states[-1][1] - np.exp(-2.0)))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)

    def test_full_scheme_is_first_order(self):
        lay = BasisLayout(8)
        u0 = 0.1 * cos_mode(lay, 2) + cos_mode(lay, 0, 0.9)
        ref = integrate(u0, ModelParams(lay, dt=1e-5), T=0.5).states[-1]
        errs = []
        for dt in (4e-3, 2e-3, 1e-3):
            got = integrate(u0, ModelParams(lay, dt=dt), T=0.5).states[-1]
            errs.append(theta_norm(lay, got - ref, 0.875))
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.25)
        assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.35)

    def test_dt_validation_and_override(self, params32):
        u = cos_mode(params32.layout, 1)
        with pytest.raises(ValueError):
            replace(params32, dt=0.0)
        a = _imex_step(replace(params32, dt=1e-3))(u[None])[0]
        b = _imex_step(replace(params32, dt=1e-4))(u[None])[0]
        assert not np.array_equal(a, b)


class TestIntegrate:
    def test_cfl_guard(self, layout32):
        params = ModelParams(layout32, dt=0.1)
        assert cfl_number(params) > 2.0
        with pytest.raises(ValueError, match="CFL"):
            integrate(np.zeros(layout32.dim), params)

    @pytest.mark.parametrize("T", [0.0, -1.0, 4e-4, np.inf, np.nan])
    def test_horizon_without_a_step_is_error(self, params32, T):
        with pytest.raises(ValueError, match="at least one"):
            integrate(np.zeros(params32.layout.dim), params32, T=T)

    @pytest.mark.parametrize("record_every", [0, -1])
    def test_record_every_below_one_is_error(self, params32, record_every):
        with pytest.raises(ValueError, match="record_every"):
            integrate(np.zeros(params32.layout.dim), params32, T=0.01,
                      record_every=record_every)

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

    def test_linear_flow_norm_never_increases(self, layout16, no_explicit):
        # Q <= 0, so each mode decays or stays; theta-norm is monotone
        params = ModelParams(layout16)
        u0 = random_state(layout16, 3, params.theta, 5.0)
        traj = integrate(u0, params, T=2.0)
        assert np.all(np.diff(traj.theta_norm_history) <= 1e-14)

    def test_matches_dense_matrix_oracle(self, layout16):
        # 200 steps of the stepper against a loop built only from the dense
        # assembled operators and the synthesis/analysis matrices
        from nldlab import f
        from oracles import assemble
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
        assert np.max(np.abs(traj.states[-1] - c)) <= 1e-13


class TestStationaryResidual:
    def test_zero_state(self, params32):
        assert stationary_residual(np.zeros(params32.layout.dim), params32) == 0.0

    def test_unit_state(self, params32):
        res = stationary_residual(cos_mode(params32.layout, 0), params32)
        assert res <= 1e-12

    def test_nonstationary_state_is_flagged(self, params32):
        res = stationary_residual(cos_mode(params32.layout, 2), params32)
        assert res > 0.1

    @pytest.mark.parametrize("N", [16, 128])
    @pytest.mark.parametrize("kappa", [1.01, 4.0])
    @pytest.mark.parametrize("eps0", [0.0, 0.9])
    def test_block_rows_equal_the_row_calls(self, N, kappa, eps0):
        # u0 and u1 sit on f's plateau; the random state leaves it, so the block takes
        # the cutoff path that the two stationary states alone never do
        layout = BasisLayout(N)
        params = ModelParams(layout, kappa=kappa, eps=EpsilonSequence(eps0, 0.5))
        rows = [np.zeros(layout.dim), cos_mode(layout, 0)]
        for block in (np.stack(rows), np.stack(rows + [random_state(layout, 7, 0.875, 10.0)])):
            residuals = stationary_residual(block, params)
            assert residuals.shape == (len(block),)
            assert ([float.hex(r) for r in residuals.tolist()]
                    == [float.hex(stationary_residual(u, params)) for u in block])


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

    @pytest.mark.parametrize("C, M, delta, theta", [
        (np.inf, 1.0, 1.0, 0.5), (np.nan, 1.0, 1.0, 0.5), (1.0, np.nan, 1.0, 0.5),
        (1.0, 1.0, np.nan, 0.5), (1.0, 1.0, np.inf, 0.5),
        (1e308, 10.0, 1.0, 0.5),     # C*M overflows
        (1.0, 1.0, 5e-324, 0.0),     # delta^(theta-1) overflows
    ])
    def test_radius_must_be_finite(self, C, M, delta, theta):
        with pytest.raises(ValueError, match="finite and positive|overflows"):
            absorbing_radius(C, M, delta, theta)


class TestDissipativity:
    def test_nonlinearity_bound_is_finite_and_stable(self, layout16):
        params = ModelParams(layout16)
        b1 = nonlinearity_l2_bound(params)
        b2 = full_scan_bound(params, n_scan=321)
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
            alone = integrate(seed, params32, T=T)
            alone_tail = np.max(alone.theta_norm_history[alone.times >= T / 2.0])
            assert tail == pytest.approx(alone_tail, rel=1e-12)

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

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_probe_horizon_without_a_step_is_error(self, params32, T):
        seeds = [(f"r{s}", random_state(params32.layout, s, params32.theta, 10.0))
                 for s in range(3)]
        with pytest.raises(ValueError, match="at least one"):
            dissipativity_probe(seeds, params32, T=T)

    def test_probe_needs_three_seeds(self, layout16):
        params = ModelParams(layout16)
        with pytest.raises(ValueError):
            dissipativity_probe([("a", np.zeros(layout16.dim))], params, T=1.0)

    def test_growth_rate_at_unit_state_is_eps0(self, layout16):
        params = ModelParams(layout16)
        rate = instability_growth_rate(params)
        assert rate == pytest.approx(params.eps.eps0, rel=0.1)


def full_scan_bound(params, n_scan=161):
    """The L2 bound scanned over 65 points x of the circle, -pi/2 and pi/2 among
    them, not only where sin x is -1 and +1."""
    from nldlab import f
    X = np.linspace(-np.pi, np.pi, 65)[:, None, None]
    S = np.linspace(-4.0, 4.0, n_scan)[None, :, None]
    P = np.linspace(-4.0, 4.0, n_scan)[None, None, :]
    return float(np.max(np.abs(S + f(X, S, P, params)))) * np.sqrt(2.0 * np.pi)


def grid_extremes_l2_bound(params):
    """The L2 bound over the two points of every (M // 64)-th grid point with the
    smallest and the largest sin x: the scan before it read sin x = -1 and +1."""
    from nldlab import f
    x = params.layout.grid[:: max(1, params.layout.M // 64)]
    sin_x = np.sin(x)
    X = x[[np.argmin(sin_x), np.argmax(sin_x)], None, None]
    S = np.linspace(-4.0, 4.0, 161)[None, :, None]
    P = np.linspace(-4.0, 4.0, 161)[None, None, :]
    return float(np.max(np.abs(S + f(X, S, P, params)))) * float(np.sqrt(2.0 * np.pi))


def shape_sum_tails(seeds, params, T, record_every=100):
    """Tail theta-norms of the IMEX march written out with f as the sum of the
    public cutoff shapes, one step and one record at a time."""
    from nldlab import mode_map
    from oracles import eta, gamma, mu, omega, w
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

    @pytest.mark.parametrize("eps0", [0.05, 0.9])
    @pytest.mark.parametrize("N", [8, 32, 128, 1024])
    def test_bound_at_the_extremes_of_sin_is_no_smaller_than_on_the_grid(self, N, eps0):
        # s + f is affine in sin x, so sin x = -1 and +1 bound every grid point
        params = ModelParams(BasisLayout(N), eps=EpsilonSequence(eps0))
        u = np.finfo(float).eps / 2
        assert nonlinearity_l2_bound(params) >= grid_extremes_l2_bound(params) * (1.0 - 4 * u)

    @pytest.mark.parametrize("N", [8, 128, 1024])
    def test_bound_does_not_depend_on_the_grid(self, N):
        bounds = {nonlinearity_l2_bound(ModelParams(BasisLayout(N, M=M))).hex()
                  for M in (4 * (N + 2), BasisLayout(N).M, 6 * (N + 2), 8 * (N + 2) + 2)}
        assert bounds == {"0x1.075f8697fcc4ap+3"}

    @pytest.mark.parametrize("kappa", [1.01, 1.25, 4.0])
    @pytest.mark.parametrize("N", [16, 128, 1024])
    def test_chunked_bound_is_the_single_grid_bound_bit_for_bit(self, N, kappa):
        from oracles import single_grid_l2_bound
        params = ModelParams(BasisLayout(N), kappa=kappa)
        assert nonlinearity_l2_bound(params).hex() == single_grid_l2_bound(params).hex()

    @pytest.mark.parametrize("grid", ["default", "4(N+2)"])
    @pytest.mark.parametrize("eps0", [0.0, 0.05, 0.9])
    @pytest.mark.parametrize("kappa", [1.01, 1.25, 4.0, -3.0, 50.0])
    @pytest.mark.parametrize("N", [8, 32, 128, 1024])
    def test_pruned_bound_is_the_full_grid_bound_bit_for_bit(self, N, kappa, eps0, grid):
        # the scan skips the cells with |s| >= 2 or |p| >= 2, whose values it knows
        from oracles import single_grid_l2_bound
        layout = BasisLayout(N) if grid == "default" else BasisLayout(N, M=4 * (N + 2))
        params = ModelParams(layout, kappa=kappa, eps=EpsilonSequence(eps0))
        assert nonlinearity_l2_bound(params).hex() == single_grid_l2_bound(params).hex()

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

        def capture(x, s, p, params, work=None, sin_x=None, masks=None):
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
            np.testing.assert_array_equal(row, alone.states[-1])
            assert tail == np.max(alone.theta_norm_history[alone.times >= T / 2.0])

    # float.hex of the probe outputs before the march moved to rows, from the
    # seeds numpy's generator drew before random_state moved to the stdlib, on the
    # grid M = 4(N+2) of that time: they pin the march's arithmetic. M_scan, read
    # at sin x = -1 and +1, is the same on every grid
    GOLDEN = {
        32: (4, 2.0, "0x1.075f8697fcc4ap+3", "0x1.7c079dc05eb8ep-6",
             ["0x1.e5ac6512602d7p-8", "0x1.7c079dc05eb8ep-6", "0x1.02799dec01208p-7",
              "0x1.22cb44f830f7dp-6"]),
        128: (10, 0.5, "0x1.075f8697fcc4ap+3", "0x1.64c9fb0c963b5p-10",
              ["0x1.9c124ad146444p-11", "0x1.f70c71ee84ec0p-12", "0x1.c5dcea68c495ap-12",
               "0x1.64c9fb0c963b5p-10", "0x1.31d8c819cc565p-11", "0x1.7b54d585794f5p-11",
               "0x1.9e5564be5ca83p-11", "0x1.56997292f5ae6p-11", "0x1.24e4b087156dbp-10",
               "0x1.c1f280288c431p-12"]),
    }

    # the same probes on the default grid, the smallest 5-smooth M >= 4(N+2): 144
    # and 540; at N = 32 the first tail moves in the last bits
    GOLDEN_DEFAULT_GRID = {
        32: (4, 2.0, "0x1.075f8697fcc4ap+3", "0x1.7c079dc05eb8ep-6",
             ["0x1.e5ac65120bcc6p-8", "0x1.7c079dc05eb8ep-6", "0x1.02799dec01208p-7",
              "0x1.22cb44f830f7dp-6"]),
        128: (10, 0.5, "0x1.075f8697fcc4ap+3", "0x1.64c9fb0c963b5p-10",
              GOLDEN[128][4]),
    }

    @staticmethod
    def _pinned_probe(layout, golden):
        from oracles import numpy_random_state
        n_seeds, T, m_scan, a_emp, tails = golden
        params = ModelParams(layout)
        seeds = [(f"r{s}", numpy_random_state(params.layout, s, params.theta, 10.0))
                 for s in range(n_seeds)]
        rep = dissipativity_probe(seeds, params, T=T)
        assert rep.M_scan.hex() == m_scan
        assert rep.a_emp.hex() == a_emp
        assert [t.hex() for t in rep.tail_norms] == tails

    @pytest.mark.parametrize("N", sorted(GOLDEN))
    def test_probe_outputs_are_pinned_bit_for_bit(self, N):
        self._pinned_probe(BasisLayout(N, M=4 * (N + 2)), self.GOLDEN[N])

    @pytest.mark.parametrize("N", sorted(GOLDEN_DEFAULT_GRID))
    def test_probe_outputs_on_the_default_grid_are_pinned_bit_for_bit(self, N):
        self._pinned_probe(BasisLayout(N), self.GOLDEN_DEFAULT_GRID[N])


class TestStepOracle:
    """The march's step, with its buffers, plateau path and in-place updates, is
    byte-equal to the step written out with temporaries (`oracles.blended_step`)."""

    @pytest.mark.parametrize("start", [10.0, 1e3, 1e10, "unit"])
    @pytest.mark.parametrize("N", [8, 128, 1024])
    def test_200_steps_are_byte_equal(self, N, start):
        from oracles import blended_step

        from nldlab.semiflow import _imex_step
        params = ModelParams(BasisLayout(N), dt=5e-4 if N == 1024 else 1e-3)
        lay = params.layout
        if start == "unit":   # (1 + 1e-6) * 1 lies in the cutoff band
            C = np.zeros((1, lay.dim))
            C[0, 0] = 1.0 + 1e-6
        else:
            C = np.array([random_state(lay, s, params.theta, start) for s in range(3)])
        step, reference = _imex_step(params), blended_step(params)
        ours = C
        for _ in range(200):
            ours, C = step(ours), reference(C)
            assert ours.tobytes() == C.tobytes()
