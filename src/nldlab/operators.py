"""Linear operators of the construction, as sparse maps on the basis modes.

Every operator is defined once, by its exact action on basis modes:

    A            cos nx -> (1+n^2) cos nx          sin mx -> (1+m^2) sin mx
    B            1 -> -2 ln 2,  cos nx -> -(1/n) cos nx,  sin mx -> (1/m) sin mx
    J            1 -> 0,  cos nx <-> sin nx  (swap, n >= 1)
    G (Hilbert)  1 -> 0,  cos nx -> -sin nx,  sin mx -> cos mx
    reflect      cos nx -> cos nx,  sin mx -> -sin mx
    D = d/dx     cos nx -> -n sin nx,  sin mx -> m cos mx
    K            cos nx -> eps_n sin (n+1)x,  sin (n+1)x -> -eps_n cos nx
    Q            cos nx -> -(n^2+n) cos nx,  sin mx -> -(m^2-m) sin mx
    Q_kappa      Q + kappa * d/dx
    sin          1 -> sin x,  cos nx -> (sin (n+1)x - sin (n-1)x)/2,
                 sin mx -> (cos (m-1)x - cos (m+1)x)/2   (multiplication by sin x)
    A - J d/dx   cos nx -> (1+n+n^2) cos nx,  sin mx -> (1-m+m^2) sin mx

`mode_map` holds this table as sparse (row, col, value) maps; a map is applied
by calling it on a coefficient vector or a (seeds, dim) block of state rows,
run by run as slice products along the last axis. The IMEX stepper's Q
diagonal and K map and the Q, K, D and sin x of the linearization are read from
the same table; the dense matrices of the maps are test oracles.

Q and A - J d/dx are given by these closed-form diagonals rather than by
composing matrices: the matrix composition loses the top sine mode (the
differentiation image cos (N+1)x is outside the layout) and would corrupt the
diagonal there. Where an operator's true image leaves the layout (J, G, d/dx on
the top sine, sin x on the top two sines) the overflow is dropped; its L2 size,
|c[-1]| sqrt(pi) for J and G and (N+1) |c[-1]| sqrt(pi) for d/dx, can be read
off the state c.

K is exact on the layout by construction: the block pairs {cos nx, sin (n+1)x}
close under it, which is the point of the block-aligned truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import BasisLayout

__all__ = [
    "EpsilonSequence",
    "mode_map",
]

B_CONSTANT_VALUE = -2.0 * np.log(2.0)
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


@dataclass(frozen=True)
class EpsilonSequence:
    """Geometric coupling strengths eps_n = eps0 * rho^n.

    eps0 = 0 is admitted so the pipeline can probe the degenerate no-coupling
    configuration (it must run and report, not crash); everywhere the
    mathematics needs eps_n != 0 that is checked as evidence, not assumed.
    """

    eps0: float = 0.05
    rho: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.eps0 < 1.0:
            raise ValueError(f"eps0 must lie in [0, 1), got {self.eps0}")
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {self.rho}")

    def values(self, count: int) -> np.ndarray:
        out = self.eps0 * self.rho ** np.arange(count, dtype=float)
        if self.eps0 > 0.0 and np.any(out == 0.0):
            raise ValueError("eps_n underflowed to zero; reduce N or raise eps0/rho")
        return out

    @property
    def degenerate(self) -> bool:
        return self.eps0 == 0.0


@dataclass(frozen=True)
class _ModeMap:
    """Sparse action on basis modes: image coefficient rows[k] receives
    values[k] times input coefficient cols[k]. Every (row, col) pair occurs
    once, though a row may recur (as in Qkappa); a diagonal map lists its
    values in layout order."""

    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @cached_property
    def runs(self) -> list:
        """The table cut into runs of consecutive rows against consecutive cols,
        as (row slice, col slice, values) in table order."""
        cut = np.flatnonzero((np.diff(self.rows) != 1) | (np.diff(self.cols) != 1)) + 1
        return [(slice(self.rows[a], self.rows[b - 1] + 1),
                 slice(self.cols[a], self.cols[b - 1] + 1), self.values[a:b])
                for a, b in zip(np.r_[0, cut], np.r_[cut, len(self.rows)])]

    @cached_property
    def _buffered_runs(self) -> dict:
        """Per input (shape, dtype), the runs, each with a view of one product buffer as wide
        as the longest run, reused by every call on such input: a march's K allocates nothing."""
        return {}

    def __call__(self, c: np.ndarray, into=None) -> np.ndarray:
        """Image of the coefficient vector c, or of each row of a (seeds, dim) block, one slice
        product per run (added in place to into when given); a recurring row sums in table order."""
        out = np.zeros(c.shape) if into is None else into
        runs = self._buffered_runs.get((c.shape, c.dtype))
        if runs is None:
            widest = max(len(values) for _, _, values in self.runs)
            buffer = np.empty(c.shape[:-1] + (widest,), dtype=np.result_type(self.values, c))
            runs = self._buffered_runs[c.shape, c.dtype] = [
                (rows, cols, values, buffer[..., :len(values)]) for rows, cols, values in self.runs]
        for rows, cols, values, product in runs:   # np.add, not +=, which writes the slice back
            target = out[..., rows]
            np.add(target, np.multiply(values, c[..., cols], out=product), out=target)
        return out


def _diagonal(cos_values: np.ndarray, sin_values: np.ndarray) -> _ModeMap:
    values = np.concatenate([cos_values, sin_values])
    slots = np.arange(len(values))
    return _ModeMap(slots, slots, values)


def _pairs(cos_slots, sin_slots, cos_to_sin, sin_to_cos) -> _ModeMap:
    """cos_slots[i] -> cos_to_sin[i] * sin_slots[i], sin_slots[i] -> sin_to_cos[i] * cos_slots[i]
    (mode slots, not frequencies)."""
    return _ModeMap(np.concatenate([sin_slots, cos_slots]), np.concatenate([cos_slots, sin_slots]),
                    np.concatenate([cos_to_sin, sin_to_cos]))


def mode_map(layout: BasisLayout, name: str, *, eps: EpsilonSequence | None = None,
             kappa: float | None = None) -> _ModeMap:
    """The table of the module docstring: the one definition of each operator.

    The returned map is applied by calling it on a coefficient vector or on a
    (seeds, dim) block; K needs eps and Qkappa needs kappa.
    """
    N = layout.N
    n = layout.cos_orders.astype(float)
    m = layout.sin_orders.astype(float)
    k = np.arange(1, N + 1)   # slots of cos kx; sin kx sits at N + k
    ones = np.ones(N)
    if name == "A":
        return _diagonal(1.0 + n**2, 1.0 + m**2)
    if name == "B":
        return _diagonal(np.concatenate([[B_CONSTANT_VALUE], -1.0 / n[1:]]), 1.0 / m)
    if name == "Q":
        return _diagonal(-(n**2 + n), -(m**2 - m))
    if name == "A_minus_Jdx":
        return _diagonal(1.0 + n + n**2, 1.0 - m + m**2)
    if name == "reflect":
        return _diagonal(np.ones_like(n), -np.ones_like(m))
    # J, G and D lose the top sine's image cos (N+1)x and annihilate the mean
    if name == "J":
        return _pairs(k, N + k, ones, ones)
    if name == "G":
        return _pairs(k, N + k, -ones, ones)
    if name == "D":
        return _pairs(k, N + k, -n[1:], n[1:])
    if name == "K":
        if eps is None:
            raise ValueError("operator 'K' needs an EpsilonSequence")
        eps_n = eps.values(N + 1)
        return _pairs(np.arange(N + 1), np.arange(N + 1, 2 * N + 2), eps_n, -eps_n)
    if name == "Qkappa":
        if kappa is None:
            raise ValueError("operator 'Qkappa' needs kappa")
        _require_supercritical(kappa)
        q, d = mode_map(layout, "Q"), mode_map(layout, "D")
        return _ModeMap(np.concatenate([q.rows, d.rows]), np.concatenate([q.cols, d.cols]),
                        np.concatenate([q.values, kappa * d.values]))
    if name == "sin":   # the images cos (N+1)x and cos (N+2)x of the top two sines are dropped
        up, down = np.arange(N + 1), np.arange(2, N + 1)   # slots of cos nx, n = 0..N and 2..N
        half = np.full(N, 0.5)
        return _ModeMap(np.concatenate([N + 1 + up, N - 1 + down, up, down]),
                        np.concatenate([up, down, N + 1 + up, N - 1 + down]),
                        np.concatenate([[1.0], half, -half[1:], [0.5], half, -half[1:]]))
    raise ValueError(f"unknown operator name {name!r}")


def _require_supercritical(kappa: float):
    """The drift must be supercritical, |kappa| > 1 (NaN is not), for Q_kappa to oscillate."""
    if not abs(kappa) > 1.0:
        raise ValueError(f"|kappa| must exceed 1, got {kappa}")


def _scaled_kappa(kappa: float) -> tuple[float, float, int]:
    """(kappa 2^-e, 2^-e, e), 2^e >= 1 the power of two that brings |kappa| into [1, 2)."""
    e = max(math.frexp(kappa)[1] - 1, 0)
    return math.ldexp(kappa, -e), math.ldexp(1.0, -e), e
