"""Dense oracles for the banded linearization: the Toeplitz-plus-Hankel
multiplier and T(u) assembled as full (dim, dim) matrices in layout order,
adding the same terms in the same order as the band assembly does."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from nldlab import f_p, f_s, mode_map


def multiplier_from_samples(layout, g):
    """P diag(g) S for grid samples g (length M), built from one real FFT of g:
    the Toeplitz-plus-Hankel blocks of `nldlab.operators.Multiplier`, each a
    strided view of the moments."""
    top = 2 * layout.N + 2
    k = np.arange(-top, top + 1)
    moments = np.fft.rfft(g)[np.abs(k)] * (np.where(k % 2 == 0, 1.0, -1.0) / layout.M)
    L = layout.N + 1   # cos orders 0..N and sin orders 1..N+1, so each block is L x L
    # windows[r, q] = moments[r + q] of C_k (even in k) and of S_k (odd in k)
    C = sliding_window_view(moments.real, L)
    S = sliding_window_view(-np.sign(k) * moments.imag, L)

    def plus(W, a):    # [i, j] -> moment a + i + j
        return W[top + a:top + a + L]

    def minus(W, a):   # [i, j] -> moment a + i - j
        return W[top + a - L + 1:top + a + 1, ::-1]

    def flip(W, a):    # [i, j] -> moment a - i + j
        return W[top + a - L + 1:top + a + 1][::-1]

    out = np.empty((2 * L, 2 * L))
    np.add(minus(C, 0), plus(C, 0), out=out[:L, :L])       # i = n, j = n'
    np.add(plus(S, 1), flip(S, 1), out=out[:L, L:])        # i = n, j = m' - 1
    out[0] *= 0.5                                          # w_0
    np.add(plus(S, 1), minus(S, 1), out=out[L:, :L])       # i = m - 1, j = n'
    np.subtract(minus(C, 0), plus(C, 2), out=out[L:, L:])  # i = m - 1, j = m' - 1
    return out


def dense_T(u, params):
    """T(u) = Q + K + M_{f_s} + M_{f_p} D as a dense matrix in layout order,
    every multiplier entry kept; zero samples add no multiplier."""
    lay = params.layout
    us, uxs = lay.fft_synthesis_with_derivative(u[None])
    fs = np.broadcast_to(f_s(lay.grid, us, uxs, params), (lay.M,))
    fp = np.broadcast_to(f_p(lay.grid, us, uxs, params), (lay.M,))
    entries = np.zeros((lay.dim, lay.dim))
    for op in (mode_map(lay, "Q"), mode_map(lay, "K", eps=params.eps)):
        entries[op.rows, op.cols] += op.values
    if np.any(fs):
        entries += multiplier_from_samples(lay, fs)
    if np.any(fp):
        fp_mult = multiplier_from_samples(lay, fp)
        for rows, cols, values in mode_map(lay, "D").runs:   # D[rows, cols] = values
            fp_mult[:, rows] *= values
            entries[:, cols] += fp_mult[:, rows]
    return entries
