"""Model parameters, the nonlinearity f(x, s, p), and the full right-hand side.

The evolution equation is u_t = ((I+B)u_x)_x + f(x, u, u_x) + Ku, written
against A = I - d2/dx2 as u_t + Au = F(u) with

    F(u) = u + J u_x + f(x, u, u_x) + K u,

using (B u_x)_x = J u_x. The nonlinearity is the cutoff-localized family

    f(x, s, p) = kappa*omega(s)*w(p) + eps0*gamma(s) + eps0*eta(s)*(1 - sin x) + mu(s),

engineered so that u = 0 and u = 1 are exact stationary states:
f(x,0,0) = 0, and f(x,1,0) = -eps0 sin x cancels K1 = eps0 sin x. Every shape
but mu is chi(s) times a polynomial, so f is evaluated regrouped, with chi read
once per argument and no cube, as f = chi(s)*core - (1 - chi(s))*s with

    core = kappa*s*w(p) + eps0*s^2*((s - 1) + (s - 2) sin x):

exactly -eps0 sin x at (s, p) = (1, 0) and exactly -s for |s| >= 2. The partial
derivatives are analytic (product rule on this form); finite differences exist
only as a test oracle. The bounded part f + Ku of F is written once, in
`explicit_part`, which the IMEX stepper applies to a (seeds, dim) block of rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cutoffs as ct
from .basis import BasisLayout
from .operators import EpsilonSequence, _drift_offset, _require_supercritical, mode_map

__all__ = ["ModelParams", "f", "f_s", "f_p", "explicit_part", "evaluate_F"]

THETA_RANGE = (0.75, 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one model instance.

    theta is the fractional power defining the state space X^theta; the
    construction needs theta in (3/4, 1), and any other value is a ValueError.
    """

    layout: BasisLayout
    kappa: float = 1.25
    eps: EpsilonSequence = field(default_factory=EpsilonSequence)
    theta: float = 0.875
    dt: float = 1e-3
    T_final: float = 50.0

    def __post_init__(self):
        _require_supercritical(self.kappa)
        if not (self.dt > 0 and self.T_final > 0):
            raise ValueError("dt and T_final must be positive")
        lo, hi = THETA_RANGE
        if not lo < self.theta < hi:
            raise ValueError(f"theta={self.theta} outside ({lo}, {hi})")

    @property
    def d(self) -> float:
        """Imaginary offset sqrt(kappa^2 - 1) of the Q_kappa eigenvalues."""
        return _drift_offset(self.kappa)


def _core(x, s, w_p, params: ModelParams, work=None, sin_x=None):
    """kappa*s*w_p + eps0*s^2*((s - 1) + (s - 2) sin x), the sum of the chi-blended
    shapes omega, gamma and eta (each with its coefficient) divided by chi(s).

    Evaluated in that rounding order into work[0], with work[1] and work[2] as
    scratch (allocated when not given), and sin x taken from sin_x when given."""
    if work is None:
        shape = np.broadcast_shapes(np.shape(x), np.shape(s), np.shape(w_p))
        work = [np.empty(shape) for _ in range(3)]
    out, bracket, cubic = work
    np.multiply(params.kappa, s, out=out)
    out *= w_p
    np.subtract(s, 2.0, out=cubic)
    cubic *= np.sin(x) if sin_x is None else sin_x
    np.subtract(s, 1.0, out=bracket)
    bracket += cubic
    np.multiply(s, s, out=cubic)
    cubic *= params.eps.eps0
    cubic *= bracket
    out += cubic
    return out


def _on_plateau(z) -> bool:
    """Whether every sample of z lies in [-1, 1], where chi is 1 (NaN does not)."""
    return bool(np.minimum.reduce(z, None) >= -1.0 and np.maximum.reduce(z, None) <= 1.0)


def f(x, s, p, params: ModelParams, work=None, sin_x=None, masks=None):
    """The nonlinearity, vectorized over broadcastable x, s, p: the core alone, bit
    for bit, when every s and p is on the plateau [-1, 1] (chi(s) = chi(p) = 1);
    else with the core read at s, and w at p, clipped to [-2, 2], so neither
    overflows nor meets an infinity where chi = 0. work (float, (6,) + the
    broadcast shape) holds every intermediate and the value (work[0], returned),
    masks (bool, (2,) + that shape) the cutoff bands, sin_x is np.sin(x): a march
    passing the same ones each step allocates nothing of the samples' size."""
    shape = np.broadcast_shapes(np.shape(x), np.shape(s), np.shape(p))
    if work is None:
        work = np.empty((6,) + shape)
    value, chi, w_p, clipped, bracket, cubic = (work[i, ...] for i in range(6))
    if _on_plateau(s) and _on_plateau(p):
        return _core(x, s, p, params, (value, bracket, cubic), sin_x)[()]
    s = np.broadcast_to(np.asarray(s, dtype=float), shape)
    p = np.broadcast_to(np.asarray(p, dtype=float), shape)
    chi = ct.Blend(s, out=chi, masks=masks).chi
    w_p = ct.Blend(p, out=w_p, masks=masks).chi
    w_p *= np.clip(p, -2.0, 2.0, out=clipped)   # w(p) = chi(p) p
    _core(x, np.clip(s, -2.0, 2.0, out=clipped), w_p, params, (value, bracket, cubic), sin_x)
    value *= chi
    chi = np.subtract(1.0, chi, out=chi)
    chi *= s
    value -= chi   # chi * core - (1 - chi) * s
    return value[()]


def f_s(x, s, p, params: ModelParams):
    """Analytic partial derivative of f in s."""
    blend = ct.Blend(s)
    chi, s = blend.chi, np.clip(blend.s, -2.0, 2.0)
    w_p = ct.Blend(p).shape("w")
    core_s = (params.kappa * w_p
              + params.eps.eps0 * ((3.0 * s - 2.0) * s + (3.0 * s - 4.0) * s * np.sin(x)))
    return blend.chi_prime * (_core(x, s, w_p, params) + s) + chi * core_s - (1.0 - chi)


def f_p(x, s, p, params: ModelParams):
    """Analytic partial derivative of f in p."""
    return params.kappa * ct.Blend(s).shape("omega") * ct.Blend(p).slope("w")


def explicit_part(params: ModelParams):
    """The map C -> P f(x, S C, S DC) + KC on a (seeds, dim) block of coefficient
    rows, with S and P applied as the layout's FFT pair and C, DC sampled by one
    inverse FFT (`BasisLayout.fft_synthesis_with_derivative`). sin x is taken once, and
    the spectrum, samples, f's work and masks, forward FFT and coefficients are allocated
    once per block height (fresh arrays cost 100-150 page faults per step at N = 1024).
    KC is added into the coefficients, which are returned and overwritten by the next call."""
    lay = params.layout
    x = lay.grid
    sin_x = np.sin(x)
    K = mode_map(lay, "K", eps=params.eps)
    buffers = {}

    def explicit(C: np.ndarray) -> np.ndarray:
        width = len(C)
        if width not in buffers:
            bins = lay.M // 2 + 1
            buffers[width] = (np.zeros((2 * width, bins), dtype=complex),
                              np.empty((2 * width, lay.M)), np.empty((6, width, lay.M)),
                              np.empty((2, width, lay.M), dtype=bool),
                              np.empty((width, bins), dtype=complex), np.empty((width, lay.dim)))
        X, samples, work, masks, Y, coefficients = buffers[width]
        lay.fft_synthesis_with_derivative(C, X, samples)
        out = lay.fft_analysis(f(x, samples[:width], samples[width:], params, work, sin_x, masks),
                               coefficients, Y)
        return K(C, into=out)

    return explicit


def evaluate_F(u: np.ndarray, params: ModelParams) -> np.ndarray:
    """F(u) = u + J u_x + f(x, u, u_x) + K u for the coefficient vector u,
    evaluated pseudospectrally."""
    lay = params.layout
    ux = mode_map(lay, "D")(u)
    return u + mode_map(lay, "J")(ux) + explicit_part(params)(u[None])[0]
