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

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import cutoffs as ct
from .basis import BasisLayout
from .operators import EpsilonSequence, _require_supercritical, mode_map

__all__ = ["ModelParams", "f", "f_s", "f_p", "explicit_part", "evaluate_F"]

THETA_RANGE = (0.75, 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Parameters of one model instance.

    theta is the fractional power defining the state space X^theta; the
    construction needs theta in (3/4, 1). Values outside are permitted only
    with allow_theta_override=True and emit a warning.
    """

    layout: BasisLayout
    kappa: float = 1.25
    eps: EpsilonSequence = field(default_factory=EpsilonSequence)
    theta: float = 0.875
    dt: float = 1e-3
    T_final: float = 50.0
    allow_theta_override: bool = False

    def __post_init__(self):
        _require_supercritical(self.kappa)
        if self.dt <= 0 or self.T_final <= 0:
            raise ValueError("dt and T_final must be positive")
        lo, hi = THETA_RANGE
        if not lo < self.theta < hi:
            if not self.allow_theta_override:
                raise ValueError(
                    f"theta={self.theta} outside ({lo}, {hi}); "
                    "pass allow_theta_override=True to proceed anyway")
            warnings.warn(f"theta={self.theta} outside the supported range ({lo}, {hi})",
                          stacklevel=2)

    @property
    def d(self) -> float:
        """Imaginary offset sqrt(kappa^2 - 1) of the Q_kappa eigenvalues."""
        return float(np.sqrt(self.kappa**2 - 1.0))


def _core(x, s, w_p, params: ModelParams):
    """kappa*s*w_p + eps0*s^2*((s - 1) + (s - 2) sin x), the sum of the chi-blended
    shapes omega, gamma and eta (each with its coefficient) divided by chi(s)."""
    return params.kappa * s * w_p + params.eps.eps0 * (s * s) * ((s - 1.0) + (s - 2.0) * np.sin(x))


def f(x, s, p, params: ModelParams):
    """The nonlinearity, vectorized over broadcastable x, s, p. The core is read at
    s clipped to [-2, 2], so it cannot overflow where chi(s) = 0."""
    blend = ct.Blend(s)
    chi, s = blend.chi, blend.s
    return chi * _core(x, np.clip(s, -2.0, 2.0), ct.Blend(p).shape("w"), params) - (1.0 - chi) * s


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


def explicit_part(params: ModelParams, with_f: bool = True, with_K: bool = True):
    """The map C -> P f(x, S C, S DC) + KC on a (seeds, dim) block of coefficient
    rows, with S and P applied as the layout's FFT pair; with_f / with_K drop
    either term. One inverse FFT samples C and DC: the spectrum holds C's half
    spectrum above DC's, ik times it for k = 1..N (the top sine's image is
    dropped, as in the D map). Spectrum and samples are allocated once per block
    height: fresh ones cost about 200 page faults per step at N = 1024."""
    lay = params.layout
    x = lay.grid
    n1 = lay.N + 1
    k = np.arange(1.0, n1)
    K = mode_map(lay, "K", eps=params.eps)
    work = {}

    def explicit(C: np.ndarray) -> np.ndarray:
        if with_f:
            width = len(C)
            if width not in work:
                work[width] = (np.zeros((2 * width, lay.M // 2 + 1), dtype=complex),
                               np.empty((2 * width, lay.M)))
            X, samples = work[width]
            half = lay._half_spectrum(C, X[:width])
            X.real[width:, 1:n1] = -k * half.imag[:, 1:n1]
            X.imag[width:, 1:n1] = k * half.real[:, 1:n1]
            np.fft.irfft(X, n=lay.M, norm="forward", out=samples)
            out = lay.fft_analysis(f(x, samples[:width], samples[width:], params))
        else:
            out = np.zeros_like(C)
        return out + K(C) if with_K else out

    return explicit


def evaluate_F(u: np.ndarray, params: ModelParams) -> np.ndarray:
    """F(u) = u + J u_x + f(x, u, u_x) + K u for the coefficient vector u,
    evaluated pseudospectrally."""
    lay = params.layout
    ux = mode_map(lay, "D")(u)
    return u + mode_map(lay, "J")(ux) + explicit_part(params)(u[None])[0]
