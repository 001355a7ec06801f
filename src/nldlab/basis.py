"""Truncated real trigonometric basis on the circle.

The state space is spanned by {cos nx : 0 <= n <= N} and {sin mx : 1 <= m <= N+1},
a block-aligned truncation of dimension 2N+2: the pairs {cos nx, sin (n+1)x},
n = 0..N, tile the space exactly, so the coupling operator K and the diagonal
part Q act inside the truncation without spill.

A state is a float array in layout order (see `BasisLayout`): a coefficient
vector of shape (dim,), or a (seeds, dim) block with one state per row.
Grid samples are plain (M,) or (seeds, M) arrays. The collocation transforms
are real FFTs along the last axis (`fft_synthesis`, `fft_analysis`); the dense
matrices S and P are built only on request, for the tests and the benchmark
tracer. Fractional Sobolev norms live here; differentiation is one of the mode
maps in `operators`.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.fft  # loaded here, not lazily inside the first transform

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

    The grid is uniform, x_j = -pi + 2*pi*j/M, oversampled so products of two
    band-limited functions are analyzed without aliasing: dealiasing the cubic
    nonlinearity needs only M >= 4(N+2), and any even M at least that keeps u = 0
    an exact and u = 1 a round-off fixed point of the step. The default M is the
    smallest such M whose only prime factors are 2, 3 and 5 (`_fft_size`), a
    length the real FFTs take in a few radix passes. 4(N+2) itself can hold a
    large prime factor (2056 = 2^3 257 at N = 512, 4104 = 2^3 3^3 19 at N = 1024),
    where one rfft/irfft pair took 5.7x and 1.3x as long as at 2160 and 4320
    (numpy's pocketfft, 2-core x86). An explicit M is kept as given.
    """

    N: int
    M: int = 0

    def __post_init__(self):
        if self.N < 4:
            raise ValueError(f"truncation order must be >= 4, got N={self.N}")
        if self.M == 0:
            object.__setattr__(self, "M", _fft_size(4 * (self.N + 2)))
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

    @cached_property
    def _fft_factors(self) -> tuple:
        """The spectrum packing's factors, from the phase (-1)^k of the grid offset:
        (-1)^k / 2 (k = 0..N) and its negation (k = 1..N+1), k and -k (k = 1..N),
        2 (-1)^k / M (k = 0..N) and its negation (k = 1..N+1)."""
        phase = np.where(np.arange(self.N + 2) % 2 == 0, 1.0, -1.0)
        half, scale, k = 0.5 * phase, (2.0 / self.M) * phase, np.arange(1.0, self.N + 1)
        return half[:-1], -half[1:], k, -k, scale[:-1], -scale[1:]

    def _half_spectrum(self, c: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Write the half spectrum of the coefficient rows c into the zeroed X and
        return X. a cos kx + b sin kx = Re((a - ib)(-1)^k e^(2 pi ijk/M)) on the
        grid, so X_0 = a_0, X_k = (-1)^k (a_k - i b_k) / 2, summed by an unscaled
        inverse real FFT of length M."""
        n1 = self.N + 1
        half, neg_half = self._fft_factors[:2]
        np.multiply(half, c[..., :n1], out=X.real[..., :n1])
        X.real[..., 0] = c[..., 0]
        np.multiply(neg_half, c[..., n1:], out=X.imag[..., 1:n1 + 1])
        return X

    def fft_synthesis(self, c: np.ndarray) -> np.ndarray:
        """Grid samples of a coefficient vector, or of each row of a (seeds, dim)
        block; equal to synthesis_matrix() @ c in O(M log M) per row."""
        c = np.asarray(c, dtype=float)
        X = self._half_spectrum(c, np.zeros(c.shape[:-1] + (self.M // 2 + 1,), dtype=complex))
        return np.fft.irfft(X, n=self.M, norm="forward")

    def fft_synthesis_with_derivative(self, c: np.ndarray, spectrum=None, out=None) -> np.ndarray:
        """Samples of the (width, dim) rows c in rows [:width] and of their
        derivatives D c in rows [width:], bit-equal to fft_synthesis of each, by one
        inverse FFT of c's half spectrum above ik times it, k = 1..N (D drops the
        top sine's image). spectrum (complex, zero outside the bins written, as a
        buffer of an earlier call is) and out receive both; allocated when not given."""
        width, n1 = len(c), self.N + 1
        if spectrum is None:
            spectrum = np.zeros((2 * width, self.M // 2 + 1), dtype=complex)
        half = self._half_spectrum(c, spectrum[:width])
        k, neg_k = self._fft_factors[2:4]
        np.multiply(neg_k, half.imag[:, 1:n1], out=spectrum.real[width:, 1:n1])
        np.multiply(k, half.real[:, 1:n1], out=spectrum.imag[width:, 1:n1])
        return np.fft.irfft(spectrum, n=self.M, norm="forward", out=out)

    def fft_analysis(self, g: np.ndarray, out=None, spectrum=None) -> np.ndarray:
        """Coefficients of grid samples g (length M, or each row of a (seeds, M)
        block); equal to analysis_matrix() @ g, by the forward real FFT that
        inverts fft_synthesis on the layout's modes.

        Exact coefficients for any combination of the layout's modes; every
        cos kx and sin kx with N + 2 <= k <= M - N - 2 analyzes to zero up to
        round-off, while sin (M - N - 1)x aliases onto the top sine; quadrature
        projection otherwise. out (float, (..., dim)) and
        spectrum (complex, (..., M/2 + 1)) receive the coefficients and the
        FFT; they are allocated when not given.
        """
        g = np.asarray(g, dtype=float)
        if g.shape[-1] != self.M:
            raise ValueError(f"{g.shape[-1]} samples do not match the grid size M={self.M}")
        n1 = self.N + 1
        scale, neg_scale = self._fft_factors[4:]
        Y = np.fft.rfft(g, out=spectrum)[..., : n1 + 1]
        if out is None:
            out = np.empty(g.shape[:-1] + (self.dim,))
        np.multiply(scale, Y.real[..., :n1], out=out[..., :n1])
        out[..., 0] = Y.real[..., 0] / self.M
        np.multiply(neg_scale, Y.imag[..., 1:], out=out[..., n1:])
        return out

    def synthesis_matrix(self) -> np.ndarray:
        """S with S[j, i] = (i-th basis function)(x_j), shape (M, dim); the dense
        form of fft_synthesis, kept as a test oracle."""
        x = self.grid
        cos_part = np.cos(np.outer(x, self.cos_orders))
        sin_part = np.sin(np.outer(x, self.sin_orders))
        return np.hstack([cos_part, sin_part])

    def analysis_matrix(self) -> np.ndarray:
        """P with P @ S = I exactly for band-limited input, shape (dim, M): S's
        transpose, scaled."""
        P = (2.0 / self.M) * self.synthesis_matrix().T
        P[0] *= 0.5
        return P


def _fft_size(n: int) -> int:
    """The smallest even integer >= n whose only prime factors are 2, 3 and 5:
    the least 2^a 3^b 5^c (a >= 1) at least n, over the O(log^2 n) products 3^b 5^c."""
    best, five = 2 ** max(1, (n - 1).bit_length()), 1
    while five < best:
        odd = five
        while odd < best:
            even = 2 * odd
            while even < n:
                even *= 2
            best = min(best, even)
            odd *= 3
        five *= 5
    return best


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
    A finite row whose sum of squares overflows is summed again divided by its
    largest |coefficient|, so a norm reads inf only when it exceeds the float
    range; every other row keeps the plain sum's bits.
    """
    lam = (1.0 + layout.mode_orders.astype(float) ** 2) ** alpha
    c = np.asarray(c, dtype=float)
    n1 = layout.N + 1
    with np.errstate(over="ignore"):
        norm = np.sqrt(np.atleast_1d(_square_sum(lam * c, n1)))
        over = np.isinf(norm)
        if over.any():
            rows = c.reshape(-1, layout.dim)
            over &= np.all(np.isfinite(rows), axis=1)
            scale = np.max(np.abs(rows[over]), axis=1, keepdims=True)
            norm[over] = scale[:, 0] * np.sqrt(_square_sum(lam * (rows[over] / scale), n1))
    return float(norm[0]) if c.ndim == 1 else norm


def _square_sum(weighted: np.ndarray, n1: int):
    """2*pi*w_0^2 + pi * sum of the other w_i^2, along the last axis."""
    sq = weighted**2
    total = 2.0 * np.pi * sq[..., 0]
    total += np.pi * np.sum(sq[..., 1:n1], axis=-1)
    total += np.pi * np.sum(sq[..., n1:], axis=-1)
    return total


def random_state(layout: BasisLayout, seed: int, alpha: float, norm: float) -> np.ndarray:
    """White-in-coefficients random state scaled to a prescribed alpha-norm.

    The dim standard normal coefficients are drawn by the stdlib's
    `random.Random(seed).gauss`, which loads neither numpy.random nor, through
    its use of secrets, OpenSSL's hashlib (6 MB of a fresh process). The seed
    must be a non-negative integer: ValueError otherwise (Random would take
    |seed|, so -k would repeat k)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = random.Random(seed)
    c = np.array([rng.gauss(0.0, 1.0) for _ in range(layout.dim)])
    return (norm / theta_norm(layout, c, alpha)) * c
