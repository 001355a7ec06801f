"""Dense oracles for the banded linearization: the Toeplitz-plus-Hankel
multiplier and T(u) assembled as full (dim, dim) matrices in layout order,
adding the same terms in the same order as the band assembly does. Then the
report writers formatting one eigenvalue at a time, from numpy scalars."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from nldlab import f_p, f_s, mode_map
from nldlab.verdict import write_csv


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


def write_spectrum_csv(path, rep, block_index=None):
    """spectrum_*.csv, one row per eigenvalue."""
    real = rep.real_in_band_mask()
    write_csv(path, ["re", "im", "is_real", "block_index"],
              ([repr(float(z.real)), repr(float(z.imag)), str(bool(real[i])).lower(),
                "" if block_index is None else int(block_index[i])]
               for i, z in enumerate(rep.eigenvalues)))


def write_gap_csv(path, gap):
    """gap.csv, one row per jump."""
    write_csv(path, ["n", "lambda_n", "ratio"],
              ([int(n), repr(float(lam)), repr(float(ratio))]
               for n, lam, ratio in zip(gap.jump_n, gap.jump_lambda, gap.jump_ratio)))


def spectrum_svg_circles(rep0, rep1):
    """The eigenvalue circles of spectrum.svg, each placed on its own."""
    width, height, margin = 900, 480, 50

    def symlog(x):
        return np.sign(x) * np.log10(1.0 + np.abs(x))

    xs = symlog(np.concatenate([rep0.eigenvalues.real, rep1.eigenvalues.real]))
    ys = np.concatenate([rep0.eigenvalues.imag, rep1.eigenvalues.imag])
    x_lo, x_hi = float(xs.min()) - 0.3, float(xs.max()) + 0.3
    y_pad = 0.1 * max(float(np.abs(ys).max()), 1e-3)
    y_lo, y_hi = float(ys.min()) - y_pad, float(ys.max()) + y_pad

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    return [f'<circle cx="{px(symlog(np.array(z.real))):.2f}" '
            f'cy="{py(z.imag):.2f}" r="3" fill="{color}" opacity="0.7"/>'
            for rep, color in ((rep0, "#1f77b4"), (rep1, "#ff7f0e"))
            for z in rep.eigenvalues]
