"""Time integration of u_t = Qu + f(x, u, u_x) + Ku and dissipativity probes.

The splitting treats the stiff diagonal part Q implicitly (backward Euler;
(I - dt Q) is invertible since Q <= 0) and the bounded part f + Ku explicitly.
Both stationary states are exact fixed points of the discrete step: at u = 0
every term vanishes identically, and at u = 1 the f-term and K1 cancel in
coefficients because the grid analysis of degree-one trigonometric data is
exact.

Also here: stationary residuals in the theta-norm, the closed-form absorbing
radius C*M*Gamma(1-theta)*delta^(theta-1) with its quadrature cross-check
contract, and the multi-seed empirical dissipativity probe.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gamma as gamma_function

from . import cutoffs as ct
from .basis import TrigVector, theta_norm
from .model import ModelParams, evaluate_F, explicit_part, f
from .operators import _mode_map, apply_A

__all__ = [
    "Trajectory",
    "DissipativityReport",
    "step_imex",
    "integrate",
    "stationary_residual",
    "absorbing_radius",
    "nonlinearity_l2_bound",
    "dissipativity_probe",
    "instability_growth_rate",
]

DEFAULT_CFL_BOUND = 2.0


@dataclass(frozen=True)
class Trajectory:
    """Recorded states and theta-norm history of one integration run."""

    params: ModelParams
    times: np.ndarray
    states: list
    theta_norm_history: np.ndarray

    def final_state(self) -> TrigVector:
        return self.states[-1]

    def tail_max_norm(self, t_from: float) -> float:
        mask = self.times >= t_from
        return float(np.max(self.theta_norm_history[mask]))


@dataclass(frozen=True)
class DissipativityReport:
    """Empirical absorbing-ball evidence across seeds.

    a_emp is the max over seeds of the tail estimate max_{t in [T/2, T]}
    ||u(t)||_theta; a_formula is the analytic radius with the scanned
    nonlinearity bound M and user-supplied constants C, delta.
    """

    seed_labels: list
    R_in: float
    T: float
    tail_norms: list
    entered: list
    failed: list
    a_emp: float
    a_formula: float
    M_scan: float
    C: float
    delta: float


def _imex_step(params: ModelParams, with_f: bool = True, with_K: bool = True):
    """The map c -> (I - dt Q)^(-1) (c + dt * explicit part) on flat coefficients."""
    lay = params.layout
    explicit = explicit_part(params, *lay.transform_pair(), with_f, with_K)
    inv_implicit = 1.0 / (1.0 - params.dt * _mode_map(lay, "Q").values)
    dt = params.dt
    return lambda c: (c + dt * explicit(c)) * inv_implicit


def step_imex(u: TrigVector, dt: float, params: ModelParams,
              with_f: bool = True, with_K: bool = True) -> TrigVector:
    """One first-order IMEX step u+ = (I - dt Q)^(-1) (u + dt (f-term + Ku)).

    The with_f / with_K switches disable the explicit terms so the pure
    diagonal subproblem u_t = Qu can be tested against its exact solution.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if dt != params.dt:
        params = replace(params, dt=dt)
    c_new = _imex_step(params, with_f, with_K)(u.coeffs())
    if not np.all(np.isfinite(c_new)):
        raise RuntimeError("non-finite state after one step; reduce dt")
    return TrigVector.from_coeffs(params.layout, c_new, u.truncation_loss)


def cfl_number(params: ModelParams) -> float:
    """dt * (N+1) * (|kappa| * sup|w| + 1), the explicit-term stiffness proxy."""
    return params.dt * (params.layout.N + 1) * (abs(params.kappa) * ct.sup_abs_w() + 1.0)


def integrate(u0: TrigVector, params: ModelParams, T: float | None = None,
              record_every: int = 100, cfl_bound: float = DEFAULT_CFL_BOUND,
              with_f: bool = True, with_K: bool = True) -> Trajectory:
    """March to T (default params.T_final), recording every record_every steps.

    Aborts with a stability diagnostic if the state stops being finite.
    """
    if u0.layout != params.layout:
        raise ValueError("initial state does not share the params layout")
    number = cfl_number(params)
    if number > cfl_bound:
        raise ValueError(
            f"CFL guard: dt*(N+1)*(|kappa|*sup|w|+1) = {number:.3g} exceeds {cfl_bound};"
            " reduce dt")
    horizon = params.T_final if T is None else T
    n_steps = int(round(horizon / params.dt))
    step = _imex_step(params, with_f, with_K)
    alpha = params.theta

    c = u0.coeffs()
    times = [0.0]
    states = [TrigVector.from_coeffs(params.layout, c)]
    norms = [theta_norm(states[0], alpha)]
    for k in range(1, n_steps + 1):
        c = step(c)
        if k % record_every == 0 or k == n_steps:
            if not np.all(np.isfinite(c)):
                raise RuntimeError(
                    f"non-finite state at t = {k * params.dt:.6g}; reduce dt "
                    f"(CFL number {number:.3g})")
            v = TrigVector.from_coeffs(params.layout, c)
            times.append(k * params.dt)
            states.append(v)
            norms.append(theta_norm(v, alpha))
    return Trajectory(params, np.array(times), states, np.array(norms))


def stationary_residual(u: TrigVector, params: ModelParams) -> float:
    """theta-norm of -Au + F(u), the stationarity defect of u."""
    residual = evaluate_F(u, params) - apply_A(u)
    return theta_norm(residual, params.theta)


def absorbing_radius(C: float, M: float, delta: float, theta: float) -> float:
    """Closed form C*M*Gamma(1-theta)*delta^(theta-1) of the absorbing-ball
    radius C*M*integral_0^inf exp(-delta*s) s^(-theta) ds."""
    if C <= 0 or M <= 0 or delta <= 0:
        raise ValueError("C, M, delta must be positive")
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), the integral diverges at {theta}")
    return float(C * M * gamma_function(1.0 - theta) * delta ** (theta - 1.0))


def nonlinearity_l2_bound(params: ModelParams, n_scan: int = 161) -> float:
    """Scanned L2(Gamma) bound M for u + f(x, u, u_x): sup|s+f| * sqrt(2*pi).

    The sup is attained in the compact region |s|, |p| <= 2 because mu kills
    the identity outside the cutoff support; the scan covers [-4, 4]^2 anyway.
    """
    x = params.layout.grid
    s = np.linspace(-4.0, 4.0, n_scan)
    p = np.linspace(-4.0, 4.0, n_scan)
    # Axes (x, s, p) broadcast, so the cutoffs are evaluated on n_scan points each
    X = x[:: max(1, len(x) // 64), None, None]
    S = s[None, :, None]
    sup = float(np.max(np.abs(S + f(X, S, p[None, None, :], params))))
    return sup * float(np.sqrt(2.0 * np.pi))


def dissipativity_probe(seeds: list, params: ModelParams, T: float | None = None,
                        R_in: float = 10.0, C: float = 1.0,
                        delta: float | None = None, record_every: int = 100,
                        cfl_bound: float = DEFAULT_CFL_BOUND) -> DissipativityReport:
    """Integrate each seed and estimate limsup ||u(t)||_theta by the tail max.

    seeds is a list of (label, TrigVector) pairs; integrator aborts mark the
    seed failed instead of killing the probe. delta defaults to 1 - eps0: the
    minimum eigenvalue of A - J d/dx is exactly 1 and K perturbs it by at most
    ||K|| = eps0.
    """
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds")
    horizon = params.T_final if T is None else T
    if delta is None:
        delta = 1.0 - params.eps.eps0
    labels, tails, entered, failed = [], [], [], []
    M_scan = nonlinearity_l2_bound(params)
    a_formula = absorbing_radius(C, M_scan, delta, params.theta)
    for label, seed in seeds:
        labels.append(str(label))
        try:
            traj = integrate(seed, params, T=horizon, record_every=record_every,
                             cfl_bound=cfl_bound)
        except RuntimeError:
            failed.append(str(label))
            tails.append(float("nan"))
            entered.append(False)
            continue
        tail = traj.tail_max_norm(horizon / 2.0)
        tails.append(tail)
        entered.append(bool(tail <= a_formula))
    finite_tails = [t for t in tails if np.isfinite(t)]
    a_emp = float(np.max(finite_tails)) if finite_tails else float("nan")
    return DissipativityReport(labels, R_in, horizon, tails, entered, failed,
                               a_emp, a_formula, M_scan, C, delta)


def instability_growth_rate(params: ModelParams, amplitude: float = 1e-6,
                            T: float = 5.0, record_every: int = 10) -> float:
    """Fitted exponential rate of ||u(t) - 1||_theta from u(0) = (1+amplitude)*1.

    The constant direction is the exact unstable eigenvector of the
    linearization at u = 1 with eigenvalue eps0, so the fitted slope should
    match eps0 while the deviation stays small.
    """
    lay = params.layout
    u0 = TrigVector.constant(lay, 1.0 + amplitude)
    one = TrigVector.constant(lay, 1.0)
    traj = integrate(u0, params, T=T, record_every=record_every)
    dev = np.array([theta_norm(state - one, params.theta) for state in traj.states])
    slope = np.polyfit(traj.times, np.log(dev), 1)[0]
    return float(slope)
