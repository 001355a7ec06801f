"""Truncated real trigonometric basis on the circle.

The state space is spanned by {cos nx : 0 <= n <= N} and {sin mx : 1 <= m <= N+1},
a block-aligned truncation of dimension 2N+2: the pairs {cos nx, sin (n+1)x},
n = 0..N, tile the space exactly, so the coupling operator K and the diagonal
part Q act inside the truncation without spill. Coefficient vectors, collocation
transforms, fractional Sobolev norms, and dealiased pointwise products live
here; differentiation is one of the mode maps in `operators`.

The transforms are real FFTs on the grid (`fft_synthesis`, `fft_analysis`),
on one coefficient vector or on a (dim, seeds) block with one state per column.
The dense matrices S and P are built only on request, as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BasisLayout",
    "TrigVector",
    "GridSamples",
    "synth",
    "analyze",
    "analysis_residual",
    "theta_norm",
    "pointwise_product",
    "random_state",
]


@dataclass(frozen=True)
class BasisLayout:
    """Enumeration of the truncated basis and its collocation grid.

    Coefficient index convention (dimension 2N+2):
      0      -> constant (cos 0x)
      n      -> cos nx,  1 <= n <= N
      N + m  -> sin mx,  1 <= m <= N+1

    The grid is uniform, x_j = -pi + 2*pi*j/M, oversampled (M = 4(N+2) by
    default) so products of two band-limited functions are analyzed without
    aliasing.
    """

    N: int
    M: int = 0

    def __post_init__(self):
        if self.N < 4:
            raise ValueError(f"truncation order must be >= 4, got N={self.N}")
        if self.M == 0:
            object.__setattr__(self, "M", 4 * (self.N + 2))
        if self.M % 2 != 0 or self.M < 4 * (self.N + 2):
            raise ValueError(f"grid size must be even and >= 4(N+2), got M={self.M}")

    @property
    def dim(self) -> int:
        return 2 * self.N + 2

    @property
    def grid(self) -> np.ndarray:
        return -np.pi + 2.0 * np.pi * np.arange(self.M) / self.M

    @property
    def cos_orders(self) -> np.ndarray:
        """Frequency of each cosine slot, 0..N."""
        return np.arange(self.N + 1)

    @property
    def sin_orders(self) -> np.ndarray:
        """Frequency of each sine slot, 1..N+1."""
        return np.arange(1, self.N + 2)

    @property
    def mode_orders(self) -> np.ndarray:
        """Frequency of every coefficient slot in layout order."""
        return np.concatenate([self.cos_orders, self.sin_orders])

    def l2_weights(self) -> np.ndarray:
        """Squared L2(Gamma) norms of the basis functions: 2*pi, then pi."""
        w = np.full(self.dim, np.pi)
        w[0] = 2.0 * np.pi
        return w

    @cached_property
    def _fft_phase(self) -> np.ndarray:
        """(-1)^k for the frequencies k = 0..N+1 of the layout: the phase e^(-ik pi)
        of the grid offset x_j = -pi + 2 pi j / M."""
        return np.where(np.arange(self.N + 2) % 2 == 0, 1.0, -1.0)

    def fft_synthesis(self, c: np.ndarray) -> np.ndarray:
        """Grid samples of a coefficient vector, or of each column of a (dim, seeds)
        block; equal to synthesis_matrix() @ c in O(M log M) per column.

        a cos kx + b sin kx = Re((a - ib)(-1)^k e^(2 pi ijk/M)) on the grid, so the
        half spectrum is X_0 = a_0, X_k = (-1)^k (a_k - i b_k) / 2 and an unscaled
        inverse real FFT of length M sums it.
        """
        c = np.asarray(c, dtype=float)
        n1 = self.N + 1
        half = _along_axis0(0.5 * self._fft_phase, c.ndim)
        X = np.zeros((self.M // 2 + 1,) + c.shape[1:], dtype=complex)
        X.real[:n1] = half[:n1] * c[:n1]
        X.real[0] = c[0]
        X.imag[1:n1 + 1] = -half[1:] * c[n1:]
        return np.fft.irfft(X, n=self.M, axis=0, norm="forward")

    def fft_analysis(self, g: np.ndarray) -> np.ndarray:
        """Coefficients of grid samples g (length M, or each column of an (M, seeds)
        block); equal to analysis_matrix() @ g, by the forward real FFT that
        inverts fft_synthesis on the layout's modes."""
        g = np.asarray(g, dtype=float)
        n1 = self.N + 1
        scale = _along_axis0((2.0 / self.M) * self._fft_phase, g.ndim)
        Y = np.fft.rfft(g, axis=0)[: n1 + 1]
        a = scale[:n1] * Y.real[:n1]
        a[0] = Y.real[0] / self.M
        return np.concatenate([a, -scale[1:] * Y.imag[1:]])

    def synthesis_matrix(self) -> np.ndarray:
        """S with S[j, i] = (i-th basis function)(x_j), shape (M, dim); the dense
        form of fft_synthesis, kept as a test oracle."""
        x = self.grid
        cos_part = np.cos(np.outer(x, self.cos_orders))
        sin_part = np.sin(np.outer(x, self.sin_orders))
        return np.hstack([cos_part, sin_part])

    def analysis_matrix(self) -> np.ndarray:
        """P with P @ S = I exactly for band-limited input, shape (dim, M)."""
        return self.transform_pair()[1]

    def transform_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, P), with P scaled from the same S instead of a second synthesis."""
        S = self.synthesis_matrix()
        P = (2.0 / self.M) * S.T
        P[0] *= 0.5
        return S, P


@dataclass(frozen=True)
class TrigVector:
    """Coefficients of a(0) + sum a(n) cos nx + sum b(m) sin mx.

    a has length N+1 (orders 0..N), b has length N+1 (orders 1..N+1).
    truncation_loss accumulates the L2 magnitude of any content an operation
    had to drop because it fell outside the layout (top-mode overflow).
    """

    layout: BasisLayout
    a: np.ndarray
    b: np.ndarray
    truncation_loss: float = 0.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != (self.layout.N + 1,) or b.shape != (self.layout.N + 1,):
            raise ValueError("coefficient arrays do not match the layout")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_coeffs(cls, layout: BasisLayout, c: np.ndarray, loss: float = 0.0) -> "TrigVector":
        c = np.asarray(c, dtype=float)
        if c.shape != (layout.dim,):
            raise ValueError("flat coefficient vector does not match the layout")
        n1 = layout.N + 1
        return cls(layout, c[:n1].copy(), c[n1:].copy(), loss)

    @classmethod
    def zero(cls, layout: BasisLayout) -> "TrigVector":
        return cls(layout, np.zeros(layout.N + 1), np.zeros(layout.N + 1))

    @classmethod
    def constant(cls, layout: BasisLayout, value: float) -> "TrigVector":
        a = np.zeros(layout.N + 1)
        a[0] = value
        return cls(layout, a, np.zeros(layout.N + 1))

    @classmethod
    def cosine(cls, layout: BasisLayout, n: int, amp: float = 1.0) -> "TrigVector":
        if not 0 <= n <= layout.N:
            raise ValueError(f"cosine order {n} outside 0..{layout.N}")
        a = np.zeros(layout.N + 1)
        a[n] = amp
        return cls(layout, a, np.zeros(layout.N + 1))

    @classmethod
    def sine(cls, layout: BasisLayout, m: int, amp: float = 1.0) -> "TrigVector":
        if not 1 <= m <= layout.N + 1:
            raise ValueError(f"sine order {m} outside 1..{layout.N + 1}")
        b = np.zeros(layout.N + 1)
        b[m - 1] = amp
        return cls(layout, np.zeros(layout.N + 1), b)

    def coeffs(self) -> np.ndarray:
        """Flat coefficient vector in layout order, length 2N+2."""
        return np.concatenate([self.a, self.b])

    def __add__(self, other: "TrigVector") -> "TrigVector":
        _check_shared_layout(self, other)
        return TrigVector(self.layout, self.a + other.a, self.b + other.b,
                          self.truncation_loss + other.truncation_loss)

    def __sub__(self, other: "TrigVector") -> "TrigVector":
        _check_shared_layout(self, other)
        return TrigVector(self.layout, self.a - other.a, self.b - other.b,
                          self.truncation_loss + other.truncation_loss)

    def __rmul__(self, scalar: float) -> "TrigVector":
        return TrigVector(self.layout, scalar * self.a, scalar * self.b,
                          abs(scalar) * self.truncation_loss)


@dataclass(frozen=True)
class GridSamples:
    """Real samples on the layout's collocation grid."""

    layout: BasisLayout
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.layout.M,):
            raise ValueError("sample array does not match the grid size")
        object.__setattr__(self, "values", v)


def _along_axis0(v: np.ndarray, ndim: int) -> np.ndarray:
    """v shaped to broadcast along axis 0 of an ndim-dimensional array."""
    return v.reshape(v.shape + (1,) * (ndim - 1))


def _check_shared_layout(u, v):
    if u.layout != v.layout:
        raise ValueError("operands do not share a layout")


def synth(v: TrigVector) -> GridSamples:
    """Evaluate the trigonometric polynomial on the collocation grid."""
    return GridSamples(v.layout, v.layout.fft_synthesis(v.coeffs()))


def analyze(g: GridSamples) -> TrigVector:
    """Project grid samples onto the layout.

    Exact coefficients for band-limited input (any trig polynomial of degree
    <= N+1, in fact <= M/2 - N - 2 beyond that stays orthogonal on this grid);
    quadrature projection otherwise.
    """
    return TrigVector.from_coeffs(g.layout, g.layout.fft_analysis(g.values))


def analysis_residual(g: GridSamples) -> float:
    """Grid L2 magnitude of the content analyze() cannot represent.

    Computed as the quadrature norm of samples minus reconstruction; nonzero
    for out-of-band input (truncation and aliasing loss, reported not hidden).
    """
    recon = synth(analyze(g)).values
    return float(np.sqrt((2.0 * np.pi / g.layout.M) * np.sum((g.values - recon) ** 2)))


def theta_norm(v: TrigVector, alpha: float) -> float:
    """Norm of A^alpha v in L2(Gamma), A = I - d2/dx2.

    ||v||_alpha^2 = 2*pi*a0^2 + pi * sum (1+n^2)^(2*alpha) (a_n^2 + b_n^2),
    with the convention ||1||^2 = 2*pi, ||cos nx||^2 = ||sin nx||^2 = pi.
    """
    lam_cos = (1.0 + v.layout.cos_orders.astype(float) ** 2) ** alpha
    lam_sin = (1.0 + v.layout.sin_orders.astype(float) ** 2) ** alpha
    total = 2.0 * np.pi * (lam_cos[0] * v.a[0]) ** 2
    total += np.pi * np.sum((lam_cos[1:] * v.a[1:]) ** 2)
    total += np.pi * np.sum((lam_sin * v.b) ** 2)
    return float(np.sqrt(total))


def pointwise_product(u: TrigVector, v: TrigVector) -> TrigVector:
    """Band-limited product analyze(synth(u) * synth(v)).

    The oversampled grid (M >= 4(N+2)) makes the quadrature exact for the
    quadratic product, so the result is the true L2 projection of u*v.
    """
    _check_shared_layout(u, v)
    return analyze(GridSamples(u.layout, synth(u).values * synth(v).values))


def random_state(layout: BasisLayout, seed: int, alpha: float, norm: float) -> TrigVector:
    """White-in-coefficients random state scaled to a prescribed alpha-norm."""
    rng = np.random.default_rng(seed)
    v = TrigVector.from_coeffs(layout, rng.standard_normal(layout.dim))
    current = theta_norm(v, alpha)
    return (norm / current) * v
