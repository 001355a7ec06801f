"""Dense oracles for the banded linearization: the Toeplitz-plus-Hankel
multiplier P diag(g) S from the FFT moments of its samples, and T(u) assembled
as a full (dim, dim) matrix in layout order from the samples of the model's
f_s and f_p, every entry kept, against which the closed-form band is checked.
The closed-form eigenvalues of the 2x2 blocks of T(u0), one block at a time, and
the spectrum of a dense matrix in the order `spectra.eigenvalues` returns. The
report writers formatting one eigenvalue at a time, from numpy scalars, and
the IMEX step as written before the march's buffers: f blended through two
`Blend`s with sin x taken on every call, the spectra packed through
temporaries, and KC built from zeros and added to the analysis. The seeded
states numpy's generator drew before `random_state` moved to the stdlib, and the
L2 bound of f scanned as one grid, before the scan went by chunks."""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from nldlab import f, f_p, f_s, mode_map, theta_norm
from nldlab.cutoffs import Blend
from nldlab.verdict import write_csv


def block_spectrum_u0(n, eps):
    """Closed-form eigenvalues -(n^2+n) +- i*eps_n of the n-th 2x2 block."""
    if n < 0:
        raise ValueError("block index must be >= 0")
    re, im = -(n * n + n), eps.values(n + 1)[n]
    return complex(re, im), complex(re, -im)


def dense_eigenvalues(m):
    """All eigenvalues of the dense square matrix m, sorted by Re then Im,
    descending, as `spectra.eigenvalues` sorts them."""
    eigs = np.linalg.eigvals(m).astype(complex)
    return eigs[np.lexsort((-eigs.imag, -eigs.real))]


def multiplier_from_samples(layout, g):
    """P diag(g) S for grid samples g (length M), built from one real FFT of g.

    The moments C_k = (1/M) sum_j g_j cos kx_j and S_k = (1/M) sum_j g_j sin kx_j
    are C_k = (-1)^k Re R_k / M and S_k = -(-1)^k Im R_k / M with R = rfft(g)
    (the grid offset x_j = -pi + 2 pi j/M is the phase (-1)^k). The
    product-to-sum identities give Toeplitz-plus-Hankel blocks, each a strided
    view of the moments:

        cos n  <- cos n'   w_n (C_{n-n'} + C_{n+n'})    (w_0 = 1/2, else 1)
        sin m  <- sin m'   C_{m-m'} - C_{m+m'}
        cos n  <- sin m'   w_n (S_{m'+n} + S_{m'-n})
        sin m  <- cos n'   S_{m+n'} + S_{m-n'}

    This holds for any samples: every |k| <= 2N+2 < M/2, so no index wraps."""
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


def blended_f(x, s, p, params):
    """f = chi(s) core - (1 - chi(s)) s with w(p) = chi(p) p, every chi read off a
    Blend and the core at s clipped to [-2, 2], in f's rounding order."""
    chi = Blend(s).chi
    w_p = Blend(p).chi * p
    c = np.clip(s, -2.0, 2.0)
    core = params.kappa * c * w_p + c * c * params.eps.eps0 * ((c - 1.0) + (c - 2.0) * np.sin(x))
    return core * chi - (1.0 - chi) * s


def blended_step(params):
    """The map C -> (I - dt Q)^(-1) (C + dt (P f(x, S C, S DC) + KC)) on a (seeds, dim)
    block, with the half spectra of C and DC packed into fresh arrays."""
    lay, dt = params.layout, params.dt
    n1, bins = lay.N + 1, lay.M // 2 + 1
    phase = np.where(np.arange(lay.N + 2) % 2 == 0, 1.0, -1.0)
    half, scale = 0.5 * phase, (2.0 / lay.M) * phase
    K = mode_map(lay, "K", eps=params.eps)
    inv_implicit = 1.0 / (1.0 - dt * mode_map(lay, "Q").values)

    def step(C):
        width = len(C)
        X = np.zeros((2 * width, bins), dtype=complex)
        X.real[:width, :n1] = half[:n1] * C[:, :n1]
        X.real[:width, 0] = C[:, 0]
        X.imag[:width, 1:n1 + 1] = -half[1:] * C[:, n1:]
        k = np.arange(1.0, n1)
        X.real[width:, 1:n1] = -k * X.imag[:width, 1:n1]
        X.imag[width:, 1:n1] = k * X.real[:width, 1:n1]
        samples = np.fft.irfft(X, n=lay.M, norm="forward")
        Y = np.fft.rfft(blended_f(lay.grid, samples[:width], samples[width:], params))
        out = np.empty((width, lay.dim))
        out[:, :n1] = scale[:n1] * Y.real[:, :n1]
        out[:, 0] = Y.real[:, 0] / lay.M
        out[:, n1:] = -scale[1:] * Y.imag[:, 1:n1 + 1]
        return (C + dt * (out + K(C))) * inv_implicit

    return step


def numpy_random_state(layout, seed, alpha, norm):
    """White-in-coefficients state from numpy's default_rng(seed), scaled to the
    alpha-norm norm."""
    c = np.random.default_rng(seed).standard_normal(layout.dim)
    return (norm / theta_norm(layout, c, alpha)) * c


def single_grid_l2_bound(params):
    """sup |s + f| * sqrt(2 pi) over the two extremes of sin x and the whole
    161 x 161 grid of (s, p) in [-4, 4]^2, evaluated at once."""
    x = params.layout.grid[:: max(1, params.layout.M // 64)]
    sin_x = np.sin(x)
    X = x[[np.argmin(sin_x), np.argmax(sin_x)], None, None]
    S = np.linspace(-4.0, 4.0, 161)[None, :, None]
    p = np.linspace(-4.0, 4.0, 161)[None, None, :]
    sup = float(np.max(np.abs(S + f(X, S, p, params))))
    return sup * float(np.sqrt(2.0 * np.pi))
