"""Time integration of u_t = Qu + f(x, u, u_x) + Ku and dissipativity probes.

The splitting treats the stiff diagonal part Q implicitly (backward Euler;
(I - dt Q) is invertible since Q <= 0) and the bounded part f + Ku explicitly.
Both stationary states are exact fixed points of the discrete step: at u = 0
every term vanishes identically, and at u = 1 the f-term and K1 cancel in
coefficients because the grid analysis of degree-one trigonometric data is
exact.

One march steps a (seeds, dim) block of states, one contiguous row each, through
the layout's FFT transforms: `step_imex` and `integrate` are its one-row case,
and the multi-seed empirical dissipativity probe marches all seeds at once.
Also here: stationary residuals in the theta-norm and the closed-form
absorbing radius C*M*Gamma(1-theta)*delta^(theta-1) with its quadrature
cross-check contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cutoffs as ct
from .basis import theta_norm
from .model import ModelParams, evaluate_F, explicit_part, f
from .operators import mode_map
from .spectra import stationary_state

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

CFL_BOUND = 2.0   # largest cfl_number a march accepts


@dataclass(frozen=True)
class Trajectory:
    """Recorded states and theta-norm history of one integration run."""

    params: ModelParams
    times: np.ndarray
    states: list
    theta_norm_history: np.ndarray

    def final_state(self) -> np.ndarray:
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


def _imex_step(params: ModelParams):
    """The map C -> (I - dt Q)^(-1) (C + dt * explicit part) on a (seeds, dim) block,
    one state per row."""
    explicit = explicit_part(params)
    inv_implicit = 1.0 / (1.0 - params.dt * mode_map(params.layout, "Q").values)
    dt = params.dt
    return lambda C: (C + dt * explicit(C)) * inv_implicit


def _march(C: np.ndarray, params: ModelParams, n_steps: int, record_every: int):
    """Step the (seeds, dim) block C n_steps times, one state per row.

    Yields (k, rows, C) at step 0, every record_every-th step and the last one.
    A row that is no longer finite at such a step is dropped there; rows holds
    the original index of every row still marching. Rows never mix, so
    dropping one leaves the others unchanged. Stops once no row is left.
    """
    step = _imex_step(params)
    rows = np.arange(len(C))
    yield 0, rows, C
    for k in range(1, n_steps + 1):
        C = step(C)
        if k % record_every == 0 or k == n_steps:
            finite = np.all(np.isfinite(C), axis=1)
            if not finite.all():
                C, rows = C[finite], rows[finite]
            yield k, rows, C
            if not rows.size:
                return


def step_imex(u: np.ndarray, params: ModelParams) -> np.ndarray:
    """One first-order IMEX step u+ = (I - dt Q)^(-1) (u + dt (f-term + Ku)),
    dt = params.dt."""
    c_new = _imex_step(params)(u[None])[0]
    if not np.all(np.isfinite(c_new)):
        raise RuntimeError("non-finite state after one step; reduce dt")
    return c_new


def cfl_number(params: ModelParams) -> float:
    """dt * (N+1) * (|kappa| * sup|w| + 1), the explicit-term stiffness proxy."""
    return params.dt * (params.layout.N + 1) * (abs(params.kappa) * ct.sup_abs_w() + 1.0)


def _march_plan(states: list, params: ModelParams,
                T: float | None) -> tuple[float, float, int]:
    """(CFL number, horizon, step count) of a march of states to T (default
    params.T_final). ValueError if a state is not a coefficient vector of the
    params layout, if the CFL number exceeds CFL_BOUND, or if the horizon is
    not finite or rounds to no step."""
    for u in states:
        if np.shape(u) != (params.layout.dim,):
            raise ValueError(f"initial state has shape {np.shape(u)}, "
                             f"not ({params.layout.dim},) of the params layout")
    number = cfl_number(params)
    if number > CFL_BOUND:
        raise ValueError(
            f"CFL guard: dt*(N+1)*(|kappa|*sup|w|+1) = {number:.3g} exceeds {CFL_BOUND};"
            " reduce dt")
    horizon = params.T_final if T is None else T
    if not math.isfinite(horizon) or round(horizon / params.dt) < 1:
        raise ValueError(f"horizon T = {horizon:g} must be finite and take at least one "
                         f"step of dt = {params.dt:g}")
    return number, horizon, int(round(horizon / params.dt))


def integrate(u0: np.ndarray, params: ModelParams, T: float | None = None,
              record_every: int = 100) -> Trajectory:
    """March to T (default params.T_final), recording every record_every steps.

    ValueError if T is not finite or rounds to no step; aborts with a
    stability diagnostic if the state stops being finite.
    """
    number, _, n_steps = _march_plan([u0], params, T)
    alpha = params.theta

    times, states, norms = [], [], []
    for k, rows, C in _march(np.asarray(u0, dtype=float)[None], params, n_steps,
                             record_every):
        if not rows.size:
            raise RuntimeError(
                f"non-finite state at t = {k * params.dt:.6g}; reduce dt "
                f"(CFL number {number:.3g})")
        times.append(k * params.dt)
        states.append(C[0])
        norms.append(theta_norm(params.layout, C[0], alpha))
    return Trajectory(params, np.array(times), states, np.array(norms))


def stationary_residual(u: np.ndarray, params: ModelParams) -> float:
    """theta-norm of -Au + F(u), the stationarity defect of u."""
    residual = evaluate_F(u, params) - mode_map(params.layout, "A")(u)
    return theta_norm(params.layout, residual, params.theta)


def absorbing_radius(C: float, M: float, delta: float, theta: float) -> float:
    """Closed form C*M*Gamma(1-theta)*delta^(theta-1) of the absorbing-ball
    radius C*M*integral_0^inf exp(-delta*s) s^(-theta) ds."""
    if C <= 0 or M <= 0 or delta <= 0:
        raise ValueError("C, M, delta must be positive")
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), the integral diverges at {theta}")
    return float(C * M * math.gamma(1.0 - theta) * delta ** (theta - 1.0))


def nonlinearity_l2_bound(params: ModelParams) -> float:
    """Scanned L2(Gamma) bound M for u + f(x, u, u_x): sup|s+f| * sqrt(2*pi).

    The sup is attained in the compact region |s|, |p| <= 2 because mu kills
    the identity outside the cutoff support; the scan covers [-4, 4]^2 anyway,
    at about 64 grid points x (every (M // 64)-th). x enters f only through
    sin x, and at fixed (s, p) s + f is affine in sin x, so over those points
    |s + f| is largest at an extreme of sin x: scanning only the two points
    with the smallest and the largest sin x gives the same sup up to round-off.
    s and p each take 161 points of [-4, 4].
    """
    x = params.layout.grid[:: max(1, params.layout.M // 64)]
    sin_x = np.sin(x)
    X = x[[np.argmin(sin_x), np.argmax(sin_x)], None, None]
    S = np.linspace(-4.0, 4.0, 161)[None, :, None]
    p = np.linspace(-4.0, 4.0, 161)[None, None, :]
    sup = float(np.max(np.abs(S + f(X, S, p, params))))
    return sup * float(np.sqrt(2.0 * np.pi))


def dissipativity_probe(seeds: list, params: ModelParams, T: float | None = None,
                        R_in: float = 10.0, C: float = 1.0,
                        delta: float | None = None) -> DissipativityReport:
    """Integrate all seeds as one block and estimate limsup ||u(t)||_theta by the
    tail max over the records (every 100th step and the last) in [T/2, T].

    seeds is a list of (label, state) pairs; a seed whose state stops being
    finite is dropped, and the others march on unchanged. It is marked failed,
    with a NaN tail, as is a seed whose theta-norm overflows.
    delta defaults to 1 - eps0: the minimum eigenvalue of A - J d/dx is exactly
    1 and K perturbs it by at most ||K|| = eps0. ValueError if T (default
    params.T_final) is not finite or rounds to no step.
    """
    if len(seeds) < 3:
        raise ValueError("need at least 3 seeds")
    _, horizon, n_steps = _march_plan([seed for _, seed in seeds], params, T)
    if delta is None:
        delta = 1.0 - params.eps.eps0
    labels = [str(label) for label, _ in seeds]
    M_scan = nonlinearity_l2_bound(params)
    a_formula = absorbing_radius(C, M_scan, delta, params.theta)

    block = np.array([seed for _, seed in seeds], dtype=float)
    tails = np.full(len(seeds), np.nan)
    for k, alive, states in _march(block, params, n_steps, 100):
        if k * params.dt >= horizon / 2.0:
            norms = theta_norm(params.layout, states, params.theta)
            tails[alive] = np.fmax(tails[alive], norms)
    dropped = np.ones(len(seeds), dtype=bool)
    dropped[alive] = False
    tails[dropped] = np.nan
    failed = np.flatnonzero(~np.isfinite(tails))
    tails[failed] = np.nan
    entered = [bool(tail <= a_formula) for tail in tails]
    finite_tails = tails[np.isfinite(tails)]
    a_emp = float(np.max(finite_tails)) if finite_tails.size else float("nan")
    return DissipativityReport(labels, R_in, horizon, [float(t) for t in tails], entered,
                               [labels[i] for i in failed], a_emp, a_formula, M_scan, C, delta)


def instability_growth_rate(params: ModelParams) -> float:
    """Fitted exponential rate of ||u(t) - 1||_theta from u(0) = (1 + 1e-6) * 1,
    recorded every 10th step up to t = 5.

    The constant direction is the exact unstable eigenvector of the
    linearization at u = 1 with eigenvalue eps0, so the fitted slope should
    match eps0 while the deviation stays small.
    """
    one = stationary_state("u1", params.layout)
    traj = integrate((1.0 + 1e-6) * one, params, T=5.0, record_every=10)
    dev = theta_norm(params.layout, np.array(traj.states) - one, params.theta)
    slope = np.polyfit(traj.times, np.log(dev), 1)[0]
    return float(slope)
