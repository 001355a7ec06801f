"""Truncated real trigonometric basis on the circle.

The state space is spanned by {cos nx : 0 <= n <= N} and {sin mx : 1 <= m <= N+1},
a block-aligned truncation of dimension 2N+2: the pairs {cos nx, sin (n+1)x},
n = 0..N, tile the space exactly, so the coupling operator K and the diagonal
part Q act inside the truncation without spill.

A state is a float array in layout order (see `BasisLayout`): a coefficient
vector of shape (dim,), or a (seeds, dim) block with one state per row.
Grid samples are plain (M,) or (seeds, M) arrays. The collocation transforms
are real FFTs along the last axis (`fft_synthesis`, `fft_analysis`); the dense
matrices S and P are built only on request, as a test oracle. Fractional
Sobolev norms live here; differentiation is one of the mode maps in
`operators`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BasisLayout",
    "analysis_residual",
    "theta_norm",
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

    def _half_spectrum(self, c: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Write the half spectrum of the coefficient rows c into the zeroed X and
        return X. a cos kx + b sin kx = Re((a - ib)(-1)^k e^(2 pi ijk/M)) on the
        grid, so X_0 = a_0, X_k = (-1)^k (a_k - i b_k) / 2, summed by an unscaled
        inverse real FFT of length M."""
        n1 = self.N + 1
        half = 0.5 * self._fft_phase
        X.real[..., :n1] = half[:n1] * c[..., :n1]
        X.real[..., 0] = c[..., 0]
        X.imag[..., 1:n1 + 1] = -half[1:] * c[..., n1:]
        return X

    def fft_synthesis(self, c: np.ndarray) -> np.ndarray:
        """Grid samples of a coefficient vector, or of each row of a (seeds, dim)
        block; equal to synthesis_matrix() @ c in O(M log M) per row."""
        c = np.asarray(c, dtype=float)
        X = self._half_spectrum(c, np.zeros(c.shape[:-1] + (self.M // 2 + 1,), dtype=complex))
        return np.fft.irfft(X, n=self.M, norm="forward")

    def fft_analysis(self, g: np.ndarray) -> np.ndarray:
        """Coefficients of grid samples g (length M, or each row of a (seeds, M)
        block); equal to analysis_matrix() @ g, by the forward real FFT that
        inverts fft_synthesis on the layout's modes.

        Exact coefficients for band-limited input (any trig polynomial of degree
        <= N+1, in fact <= M/2 - N - 2 beyond that stays orthogonal on this
        grid); quadrature projection otherwise.
        """
        g = np.asarray(g, dtype=float)
        if g.shape[-1] != self.M:
            raise ValueError(f"{g.shape[-1]} samples do not match the grid size M={self.M}")
        n1 = self.N + 1
        scale = (2.0 / self.M) * self._fft_phase
        Y = np.fft.rfft(g)[..., : n1 + 1]
        a = scale[:n1] * Y.real[..., :n1]
        a[..., 0] = Y.real[..., 0] / self.M
        return np.concatenate([a, -scale[1:] * Y.imag[..., 1:]], axis=-1)

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


def analysis_residual(layout: BasisLayout, g: np.ndarray) -> float:
    """Grid L2 magnitude of the content fft_analysis cannot represent.

    Computed as the quadrature norm of the samples g (length M) minus their
    reconstruction; nonzero for out-of-band input (truncation and aliasing loss,
    reported not hidden).
    """
    recon = layout.fft_synthesis(layout.fft_analysis(g))
    return float(np.sqrt((2.0 * np.pi / layout.M) * np.sum((g - recon) ** 2)))


def theta_norm(layout: BasisLayout, c: np.ndarray, alpha: float):
    """Norm of A^alpha c in L2(Gamma), A = I - d2/dx2: a float for a coefficient
    vector, one norm per row for a (seeds, dim) block.

    ||c||_alpha^2 = 2*pi*a0^2 + pi * sum (1+n^2)^(2*alpha) (a_n^2 + b_n^2),
    with the convention ||1||^2 = 2*pi, ||cos nx||^2 = ||sin nx||^2 = pi.
    """
    lam = (1.0 + layout.mode_orders.astype(float) ** 2) ** alpha
    sq = (lam * np.asarray(c, dtype=float)) ** 2
    n1 = layout.N + 1
    total = 2.0 * np.pi * sq[..., 0]
    total += np.pi * np.sum(sq[..., 1:n1], axis=-1)
    total += np.pi * np.sum(sq[..., n1:], axis=-1)
    return float(np.sqrt(total)) if sq.ndim == 1 else np.sqrt(total)


def random_state(layout: BasisLayout, seed: int, alpha: float, norm: float) -> np.ndarray:
    """White-in-coefficients random state scaled to a prescribed alpha-norm."""
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(layout.dim)
    return (norm / theta_norm(layout, c, alpha)) * c
