"""The smooth cutoff chi, built from the standard exp(-1/t) bump quotient.

chi is identically 1 on |z| <= 1, identically 0 on |z| >= 2, and C-infinity
across both seams (all one-sided derivatives vanish there). On the band
1 < |z| < 2 it is psi(2 - |z|) / (psi(2 - |z|) + psi(|z| - 1)), psi(t) = exp(-1/t).
The nonlinearity in `model` builds its shapes from chi: the ramp w(s) = chi(s) s
multiplies the derivative argument and needs w(0) = 0 and w'(0) = 1. The shapes
themselves and every derivative are test oracles (`tests/oracles.py`).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["chi", "sup_abs_w"]


def chi(z, out=None, masks=None):
    """Smooth plateau blend: 1 on |z| <= 1, 0 on |z| >= 2; a float for a scalar z.

    The bump quotient is evaluated only on the band 1 < |z| < 2, where both of
    its terms are positive. out (float, the shape of z) receives chi, and masks
    (bool, (2,) + that shape) the band mask and a scratch one; each is allocated
    when not given."""
    z = np.asarray(z, dtype=float)
    az = np.abs(z, out=np.empty_like(z) if out is None else out)
    masks = np.empty((2,) + az.shape, dtype=bool) if masks is None else masks
    band = np.greater(az, 1.0, out=masks[0, ...])
    band &= np.less(az, 2.0, out=masks[1, ...])
    in_band = band.any()
    if in_band:
        a = az[band]
        up, down = np.exp(-1.0 / (2.0 - a)), np.exp(-1.0 / (a - 1.0))
    value = np.less_equal(az, 1.0, out=az)
    if in_band:
        value[band] = up / (up + down)
    return value if value.ndim else float(value)


SUP_SLICES = 16   # slices of sup_abs_w's 40 001-point scan, evaluated one at a time


@functools.cache
def sup_abs_w() -> float:
    """Numeric sup of |w(s)| = |chi(s) s| over its support, used by the CFL guard: the
    max over 40 001 points of [-2, 2], evaluated SUP_SLICES slices at a time so that
    chi's work arrays stay a sixteenth of the scan's size."""
    s = np.linspace(-2.0, 2.0, 40001)
    return float(max(np.max(np.abs(chi(part) * part)) for part in np.array_split(s, SUP_SLICES)))
