"""Smooth cutoff suite built from the standard exp(-1/t) bump quotient.

chi is identically 1 on |z| <= 1, identically 0 on |z| >= 2, and C-infinity
across both seams (all one-sided derivatives vanish there). The derived shapes

    omega(s) = chi(s) * s
    gamma(s) = chi(s) * (2 s^3 - 3 s^2)
    eta(s)   = chi(s) * (2 s^2 - s^3)
    mu(s)    = -(1 - chi(s)) * s
    w        = omega

agree with their polynomial cores exactly on the plateau |s| <= 1 and vanish
(mu(s) = -s) for |s| >= 2. omega, gamma, eta and all five first derivatives
are globally bounded; mu itself tracks -s in the far field, which is exactly
the linear pull that keeps s + f bounded at large amplitude. w is the ramp
that multiplies the derivative argument in the nonlinearity; it needs
w(0) = 0 and w'(0) = 1, both satisfied by omega.

`Blend` evaluates chi once per argument, from its closed form (1 on the plateau
|s| <= 1, 0 for |s| >= 2, the bump quotient only on the band between), and
builds every shape and first derivative from it; the public functions below
read it, and the nonlinearity in `model` reads its chi and chi'. All functions
accept scalars or numpy arrays.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = [
    "Blend",
    "psi",
    "psi_prime",
    "chi",
    "chi_prime",
    "omega",
    "omega_prime",
    "gamma",
    "gamma_prime",
    "eta",
    "eta_prime",
    "mu",
    "mu_prime",
    "w",
    "w_prime",
    "sup_abs_w",
]


def _psi(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def _value(out):
    return out if np.ndim(out) else float(out)


def psi(t):
    """exp(-1/t) for t > 0, else 0; the flat-at-zero mollifier seed."""
    return _value(_psi(t))


def psi_prime(t):
    """psi'(t) = psi(t) / t^2 for t > 0, else 0."""
    t = np.asarray(t, dtype=float)
    out = _psi(t)
    pos = t > 0
    out[pos] /= t[pos] ** 2
    return _value(out)


# Polynomial core p and its derivative p' of each shape chi(s) * p(s), read at s clipped to
# [-4, 4]: chi and chi' vanish for |s| >= 2 and every root of p and p' lies in [-2, 2], so
# no bit changes (signed zeros included) and no power overflows.
_CORES = {
    "omega": (lambda s: s, lambda s: 1.0),
    "gamma": (lambda s: 2.0 * s**3 - 3.0 * s**2, lambda s: 6.0 * s**2 - 6.0 * s),
    "eta": (lambda s: 2.0 * s**2 - s**3, lambda s: 4.0 * s - 3.0 * s**2),
}
_CORES["w"] = _CORES["omega"]


class Blend:
    """chi and chi' at one argument s, and the shapes built on them.

    Every shape is chi(s) times its core from _CORES, except the far-field pull
    mu(s) = -(1 - chi(s)) * s; slopes follow by the product rule. chi is 1 on
    |s| <= 1 and 0 on |s| >= 2, chi' is 0 on both, so the bump quotients
    up = psi(2 - |s|) and down = psi(|s| - 1) are evaluated only on the band
    1 < |s| < 2 (where both are positive), once however many shapes are read;
    chi' only when a slope is. On the band chi = up / (up + down).
    """

    def __init__(self, s, out=None, masks=None):
        """out (float, the shape of s) receives chi, and masks (bool, (2,) + that
        shape) the band mask and a scratch one; each is allocated when not given."""
        self.s = np.asarray(s, dtype=float)
        az = np.abs(self.s, out=np.empty_like(self.s) if out is None else out)
        masks = np.empty((2,) + az.shape, dtype=bool) if masks is None else masks
        self._band = np.greater(az, 1.0, out=masks[0, ...])
        self._band &= np.less(az, 2.0, out=masks[1, ...])
        in_band = self._band.any()
        if in_band:
            self._az = az[self._band]
            self._up = np.exp(-1.0 / (2.0 - self._az))
            self._down = np.exp(-1.0 / (self._az - 1.0))
        self.chi = np.less_equal(az, 1.0, out=az)
        if in_band:
            self.chi[self._band] = self._up / (self._up + self._down)

    @cached_property
    def chi_prime(self):
        out = np.zeros_like(self.chi)
        if self._band.any():
            up, down, az = self._up, self._down, self._az
            dup = -(up / (2.0 - az) ** 2)
            ddown = down / (az - 1.0) ** 2
            core = (dup * down - up * ddown) / (up + down) ** 2
            out[self._band] = np.sign(self.s[self._band]) * core
        return out

    def shape(self, name: str):
        if name == "mu":
            return -(1.0 - self.chi) * self.s
        return self.chi * _CORES[name][0](np.clip(self.s, -4.0, 4.0))

    def slope(self, name: str):
        """Derivative of shape(name) in s."""
        if name == "mu":
            return self.slope("omega") - 1.0
        (core, core_prime), s = _CORES[name], np.clip(self.s, -4.0, 4.0)
        return self.chi_prime * core(s) + self.chi * core_prime(s)


def chi(z):
    """Smooth plateau blend: 1 on |z| <= 1, 0 on |z| >= 2."""
    return _value(Blend(z).chi)


def chi_prime(z):
    return _value(Blend(z).chi_prime)


def _public(shape: str, prime: bool = False, doc: str | None = None):
    """The module function s -> shape(s), or its slope, read off one Blend."""
    def cutoff(s):
        blend = Blend(s)
        return _value(blend.slope(shape) if prime else blend.shape(shape))
    cutoff.__name__ = cutoff.__qualname__ = f"{shape}_prime" if prime else shape
    cutoff.__doc__ = doc
    return cutoff


omega = _public("omega", doc="Bounded smooth ramp: s on |s| <= 1, 0 for |s| >= 2.")
omega_prime = _public("omega", prime=True)
gamma = _public("gamma", doc="chi-localized cubic with gamma(1) = -1, gamma'(1) = 0.")
gamma_prime = _public("gamma", prime=True)
eta = _public("eta", doc="chi-localized cubic with eta(1) = 1, eta'(1) = 1.")
eta_prime = _public("eta", prime=True)
mu = _public("mu", doc="Far-field linear pull: 0 on |s| <= 1, exactly -s for |s| >= 2.")
mu_prime = _public("mu", prime=True)
w = omega
w_prime = omega_prime

_SUP_ABS_W = None


def sup_abs_w() -> float:
    """Numeric sup of |w| over its support, used by the CFL guard."""
    global _SUP_ABS_W
    if _SUP_ABS_W is None:
        s = np.linspace(-2.0, 2.0, 40001)
        _SUP_ABS_W = float(np.max(np.abs(w(s))))
    return _SUP_ABS_W
