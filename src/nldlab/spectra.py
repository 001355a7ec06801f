"""Linearization spectra, eigenvalue classification, and gap-condition checks.

The linearization at a frozen state u is

    T(u) h = h_xx + J h_x + f_s(x,u,u_x) h + f_p(x,u,u_x) h_x + K h
           = Q h + M_{f_s} h + M_{f_p} h_x + K h.

At the two stationary states the multipliers are closed forms (`assemble_T`):
at u0 = 0 both vanish, so T(u0) = Q + K, block 2x2 on the pairs
{cos nx, sin (n+1)x} with closed-form eigenvalues -(n^2+n) +- i eps_n, read
off the band exactly, with no solve; at u1 = 1 they are eps0 (1 - sin x) and
kappa, so T(u1) = Q_kappa + eps0 (I - M_{sin x}) + K. Each is written from
the mode-map table into a band of half-bandwidth 3 in pair order (the
constant, then (cos nx, sin nx) for n = 1..N, then the top sine), a `BandedT`
that drops no entry. T(u1), given its Gershgorin discs, is solved from small
windows of the band (below); otherwise it takes one dense eigensolve (LAPACK
geev through numpy) of `BandedT.dense`, which verify at the defaults never
builds.

Evidence, by state and truncation:

  u0: exact blocks ("blocks"), each pair of eigenvalues a +- i|e| read from
      its block [[a, e], [-e, a]] of the band. Sorted by (Re desc, Im desc),
      block n sits at positions 2n and 2n + 1 of every row, so the spectrum
      is paired by block index, in O(N), with the closed form and with the 2N
      row; any bijection within tolerance certifies it, and with every eps_n
      nonzero no eigenvalue is real, whatever any threshold says.
  u1 at N: threshold classification, |Im| < tol_im * (1 + |lambda|), of the
      spectrum (the reports list it). `disc_certificate` runs here too; when
      its discs are mutually disjoint, each holds exactly one eigenvalue, and
      T(u1), banded in pair order, yields each one from a principal window of
      the 7 pairs around its slot. All windows are solved as one batch, and
      the set is kept ("windows") only if every value lies in its own disc;
      cos and sin slots are then exact conjugates. Otherwise the row is one
      dense eigensolve, labelled "dense".
  u1 at 2N, the second row of a convergence study: a Gershgorin
      certificate (`disc_certificate`) on V^-1 T V, where V diagonalizes the
      drift part Q_kappa in closed form. When its discs prove exactly one
      in-band real eigenvalue, and where it lies, no eigensolve is made;
      otherwise the row falls back to the dense spectrum, labelled "dense",
      paired with the N row by nearest neighbour.

Verdict-grade real sets are restricted to the resolved band |Re| <= N^2/4:
the layout's dropped top-sine image plants one strongly negative real
truncation artifact near -(N^2+N) that moves with N, while everything in band
is stable under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import BasisLayout
from .model import ModelParams
from .operators import (EpsilonSequence, _drift_offset, _gamma, _require_supercritical,
                        _scaled_kappa, mode_map)

__all__ = [
    "SpectrumReport",
    "BandedT",
    "GapReport",
    "ConvergenceStudy",
    "DiscCertificate",
    "Eps0ScanReport",
    "TOL_IM_DEFAULT",
    "TOL_RE_DEFAULT",
    "DRIFT_TOL",
    "resolved_band",
    "is_real",
    "assemble_T",
    "eigenvalues",
    "disc_certificate",
    "discs_disjoint",
    "match_blocks_u0",
    "qkappa_spectrum",
    "classify_and_count",
    "convergence_study",
    "eps0_threshold_scan",
    "gap_check",
    "stationary_state",
    "stationary_spectrum",
]

TOL_IM_DEFAULT = 1e-8
TOL_RE_DEFAULT = 1e-10
DRIFT_TOL = 1e-6   # largest eigenvalue drift a convergence study accepts between N and 2N


def resolved_band(N: int) -> float:
    """Half-width N^2/4 of the trusted real-part range at truncation N."""
    return N * N / 4.0


def is_real(eigs: np.ndarray, tol_im: float) -> np.ndarray:
    """The classification rule: lambda counts as real when
    |Im lambda| < tol_im * (1 + |lambda|)."""
    eigs = np.asarray(eigs)
    return np.abs(eigs.imag) < tol_im * (1.0 + np.abs(eigs))


@dataclass(frozen=True)
class SpectrumReport:
    """Classified spectrum of one linearization.

    real_eigs / l_count follow the raw threshold rule over the full list;
    the *_in_band variants restrict to |Re| <= band and are the verdict-grade
    sets. min_abs_re and min_abs_lambda are the distances of the spectrum to
    the imaginary axis and to 0.
    """

    point_label: str
    N: int
    eigenvalues: np.ndarray
    tol_im: float
    tol_re: float
    band: float
    real_eigs: np.ndarray
    l_count: int
    real_eigs_in_band: np.ndarray
    l_count_in_band: int
    min_abs_re: float
    min_abs_lambda: float
    max_conjugate_mismatch: float

    def real_in_band_mask(self) -> np.ndarray:
        """Per eigenvalue: real under tol_im and inside the resolved band."""
        eigs = self.eigenvalues
        return is_real(eigs, self.tol_im) & (np.abs(eigs.real) <= self.band)


@dataclass(frozen=True)
class GapReport:
    """Spectral-gap diagnostics for the eigenvalues 1+n^2 of A.

    lambda_seq is the multiplicity-ordered sequence (1, 2, 2, 5, 5, ...);
    ratios are the sparseness quotients (l_{j+1}-l_j)/(l_{j+1}^theta+l_j^theta)
    over consecutive entries (zero at repeats). The jump_* arrays view the same
    data per distinct order n: jump_gap[n] = 2n+1 is the raw gap, whose
    running max witnesses the unbounded-gap trend independently of theta.
    """

    theta: float
    n_max: int
    lambda_seq: np.ndarray
    ratios: np.ndarray
    jump_n: np.ndarray
    jump_lambda: np.ndarray
    jump_gap: np.ndarray
    jump_ratio: np.ndarray
    running_max_gap: np.ndarray
    sup_estimate: float


def stationary_state(label: str, layout: BasisLayout) -> np.ndarray:
    """Coefficients of the two built-in stationary states by label."""
    if label not in ("u0", "u1"):
        raise ValueError(f"unknown stationary state {label!r}")
    u = np.zeros(layout.dim)
    if label == "u1":
        u[0] = 1.0
    return u


def stationary_spectrum(label: str, params: ModelParams, tol_im: float = TOL_IM_DEFAULT,
                        tol_re: float = TOL_RE_DEFAULT) -> SpectrumReport:
    """Classified spectrum of T at the stationary state named by label, solved
    as the N-level row of a convergence study is."""
    if label == "u1":   # T(u0) = Q + K never reads kappa
        _check_kappa(params.kappa, params.layout.N, "N")
    return _study_row(label, params, False, tol_im, tol_re)["report"]


_ROWS_PER_CHUNK = 64   # bounds row-chunk temporaries to 64 x dim entries


def _row_chunks(n: int):
    """Slices of at most _ROWS_PER_CHUNK consecutive rows covering range(n)."""
    return (slice(lo, lo + _ROWS_PER_CHUNK) for lo in range(0, n, _ROWS_PER_CHUNK))


def _pair_slots(N: int) -> np.ndarray:
    """The layout slot at each pair-order position: the constant, then cos nx
    and sin nx for n = 1..N, then the top sine."""
    slot = np.arange(2 * N + 2)
    slot[1:-1] = slot[1:-1].reshape(2, N).T.ravel()
    return slot


def _band_cells(dim: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column (pair positions) of the cells of half-bandwidth b that lie
    inside the dim x dim matrix, row by row."""
    rows = np.repeat(np.arange(dim), 2 * b + 1)
    cols = rows + np.tile(np.arange(-b, b + 1), dim)
    keep = (cols >= 0) & (cols < dim)
    return rows[keep], cols[keep]


@dataclass(frozen=True)
class BandedT:
    """T(u) in pair order: diagonals[p, b + o] = T[p, p + o] for |o| <= b (cells
    outside the matrix hold 0), every other entry zero. pair_blocks: T is Q + K
    alone, nonzero only on the pairs {cos nx, sin (n+1)x}.
    """

    N: int
    diagonals: np.ndarray
    pair_blocks: bool

    @property
    def b(self) -> int:
        """Half-bandwidth."""
        return self.diagonals.shape[1] // 2

    def __len__(self) -> int:
        return len(self.diagonals)

    def dense(self) -> np.ndarray:
        """The (dim, dim) matrix in layout order."""
        slot = _pair_slots(self.N)
        rows, cols = _band_cells(len(self), self.b)
        out = np.zeros((len(self), len(self)))
        out[slot[rows], slot[cols]] = self.diagonals[rows, cols - rows + self.b]
        return out


def assemble_T(point_label: str, params: ModelParams) -> BandedT:
    """T at the stationary state named by point_label, in pair order, as a
    `BandedT` written from the mode-map table (`operators.mode_map`).

    At u0 = 0 the samples of f_s and f_p vanish, so T(u0) = Q + K. At u1 = 1
    every sample (s, p) = (1, 0) lies on the plateau [-1, 1] of both cutoffs,
    where chi = 1 and chi' = 0, so f_s = eps0 (1 - sin x) and f_p = kappa, and

        T(u1) = Q_kappa + eps0 I - eps0 M_{sin x} + K.

    In pair order, cos nx at 2n - 1 and sin nx at 2n, K, d/dx and sin x couple
    slots at most 3 apart, so the band of half-bandwidth 3 holds every entry,
    column 0 included: that of T(u1) is exactly eps0 e_0, since Q_kappa 1 = 0
    and -eps0 sin x cancels K 1 = eps0 sin x.
    """
    lay, b, eps0 = params.layout, 3, params.eps.eps0
    u1 = stationary_state(point_label, lay)[0] == 1.0   # an unknown label raises here
    band = np.zeros((lay.dim, 2 * b + 1))
    terms = [(mode_map(lay, "Qkappa", kappa=params.kappa) if u1 else mode_map(lay, "Q"), 1.0),
             (mode_map(lay, "K", eps=params.eps), 1.0)]
    if u1:
        band[:, b] = eps0
        terms.append((mode_map(lay, "sin"), -eps0))
    pos = np.argsort(_pair_slots(lay.N))   # the pair position of each layout slot
    for op, scale in terms:
        band[pos[op.rows], pos[op.cols] - pos[op.rows] + b] += scale * op.values
    return BandedT(lay.N, band, not u1)


def eigenvalues(T: BandedT, discs: DiscCertificate | None = None,
                evidence: dict | None = None) -> np.ndarray:
    """All eigenvalues of the band T, sorted by Re then Im, descending.

    With `discs`, the `disc_certificate` of T = T(u1), the spectrum is first
    taken from small windows of the band (`_window_eigenvalues`); when the
    discs do not prove it, T takes the paths below unchanged. A band of Q + K
    alone is read off its pair blocks {cos nx, sin (n+1)x}, with no solve: block
    n is [[a, e], [-e, a]], bit for bit (a ValueError otherwise), so its
    eigenvalues are exactly a + i|e| and a + (0.0 - |e|) i. The 0.0 - |e| keeps
    e = 0 at +0.0, and no product of entries is formed, so none underflows. Any
    other band takes one dense eigensolve of `BandedT.dense`.
    `evidence["kind"]`, when given, records the path: "windows", "blocks" or
    "dense".
    """
    if not np.all(np.isfinite(T.diagonals)):
        raise ValueError("matrix has non-finite entries")
    eigs = None if discs is None else _window_eigenvalues(T, discs)
    kind = "windows"
    if eigs is None and T.pair_blocks:
        pos = np.argsort(_pair_slots(T.N))
        c, s = pos[:T.N + 1], pos[T.N + 1:]   # cos nx, sin (n+1)x
        a, e = T.diagonals[c, T.b], T.diagonals[c, T.b + s - c]
        if not (np.array_equal(T.diagonals[s, T.b], a)
                and np.array_equal(T.diagonals[s, T.b + c - s], -e)):
            raise ValueError("a pair block of Q + K is not of the form [[a, e], [-e, a]]")
        eigs, kind = np.empty((T.N + 1, 2), dtype=complex), "blocks"
        eigs.real = a[:, None]
        eigs.imag = np.stack([np.abs(e), 0.0 - np.abs(e)], axis=1)
        eigs = eigs.ravel()
    elif eigs is None:
        dense, kind = T.dense(), "dense"
        try:
            eigs = np.linalg.eigvals(dense).astype(complex)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
            cond = np.linalg.cond(dense)
            raise RuntimeError(f"eigensolver failed (condition estimate {cond:.3g})") from exc
    if evidence is not None:
        evidence["kind"] = kind
    order = np.lexsort((-eigs.imag, -eigs.real))
    return eigs[order]


_SLOT0_SCALE = 2.0**-27


@dataclass(frozen=True)
class DiscCertificate:
    """Gershgorin discs of V^-1 T(u1) V, one per layout slot, and what they prove.

    Disc 0 is the constant's, the cos nx / sin nx slots hold the discs around
    the pair -n^2 +- i n sqrt(kappa^2 - 1) of Q_kappa (conjugates of each
    other), and the last slot is the top sine's. margin is min(1 - r_i/|Im c_i|)
    over the other discs that reach the band |Re| <= N^2/4, isolation_gap is
    min(|c_i - c_0| - r_i) - r_0. When both are positive (`certified`), the
    matrix has exactly one real eigenvalue in the band; it is simple and lies
    within radii[0] of centers[0], and l_count_in_band counts it when it
    exceeds tol_re.
    """

    N: int
    centers: np.ndarray
    radii: np.ndarray
    margin: float
    isolation_gap: float
    certified: bool
    l_count_in_band: int

    @property
    def real_eigs_in_band(self) -> np.ndarray:
        """The certified real eigenvalue, as the center of its disc."""
        return self.centers[:1].real


def disc_certificate(T: BandedT, kappa: float,
                     tol_re: float = TOL_RE_DEFAULT) -> DiscCertificate:
    """Gershgorin certificate for the in-band real spectrum of T = T(u1), in O(dim b).

    On each pair {cos nx, sin nx} the drift part Q_kappa is -n^2 I + n W with
    W = [[-1, kappa], [-kappa, 1]], whose eigenvector for +i d, d = sqrt(kappa^2 - 1),
    is v = (kappa, 1 + i d). V puts v in the cos slot and conj(v) in the sin slot
    of every pair; the constant and the top sine are singletons. The constant
    is an exact eigenvector of T(u1), so V scales its slot by 1/s, s = 2^-27 (an
    exact power of two): disc 0 shrinks by s, and the other rows pay |T_i0|/s,
    which is 0 for the closed-form T(u1) of `assemble_T`. v is scaled by 2^-e,
    the power of two that brings |kappa| into [1, 2), so that neither kappa^2
    nor |v| overflows: a diagonal similarity, which leaves the centers
    unchanged and moves only the entries that couple a pair to the constant
    or the top sine.

    F = X T V, X the computed inverse of V, is formed from the band, which holds
    every entry of T (`assemble_T`): each row pair is mixed, then the column
    pairs its band reaches, with column 0, the constant's, read apart from the
    band; only the diagonal and absolute row sums are kept. T is real and X, V
    hold conjugate pairs, so the sin-slot discs are the conjugates of the
    cos-slot ones and only those are formed.

    Outward rounding (Rump, Acta Numerica 19, 2010), with u = 2^-53 and
    gamma_k = k u / (1 - k u) (Higham, ch. 3): every computed entry obeys
    |fl(F) - X T V| <= gamma_8 |X| |T| |V|; a computed sum of n nonnegative
    terms is within gamma_n of the exact one; and X V = I + Delta, one 2x2 Delta
    per pair, so V^-1 T V = (I + Delta)^-1 X T V moves row i by at most
    eta = delta / (1 - delta) times the absolute row sums of X T V in its pair,
    delta = ||Delta||_inf bounded from the computed product plus gamma_4 |X| |V|.
    Each radius is enlarged by 2 (gamma_{dim+16} + eta)(S_i + t_i), where S_i is
    the computed absolute row sum of F and t_i that of |X| |T| |V|; the factor 2
    covers the second-order terms and the rounding of the bound itself. So
    every disc contains the exact disc of V^-1 T V (underflow aside).

    By Gershgorin's theorem, the row form of Bauer-Fike (Numer. Math. 2, 1960),
    the discs cover the spectrum and a union of k discs disjoint from the others
    holds k eigenvalues. An isolated disc 0 thus holds one eigenvalue; its
    center T_00 is real and T is real, so that eigenvalue is real. Any other
    in-band real eigenvalue would lie in a disc that reaches the band and meets
    the real axis, which a positive margin excludes.
    """
    dim, L = len(T), T.N
    s = _SLOT0_SCALE
    k, one, _ = _scaled_kappa(kappa)
    v = np.array([k, complex(one, np.sqrt(k * k - one * one))])
    x = np.array([np.conj(v[1]), -np.conj(v[0])]) / (2j * (v[0] * np.conj(v[1])).imag)
    Xn, Vn = np.array([x, np.conj(x)]), np.array([v, np.conj(v)]).T
    delta = float(np.max(np.sum(np.abs(Xn @ Vn - np.eye(2))
                                + _gamma(4) * (np.abs(Xn) @ np.abs(Vn)), axis=1)))
    eta = delta / (1.0 - delta) if delta < 1.0 else np.inf

    # pair n = 0..L+1 is the pair-order rows (2n - 1, 2n), padded with a zero
    # row at -1 and at dim: pair 0 is (none, the constant), pair L + 1 (the top
    # sine, none). Its formed row is a[n] * first + b[n] * second, and it
    # reaches the column pairs n - h .. n + h (b is odd).
    h = (T.b + 1) // 2
    band = np.zeros((dim + 2, 2 * T.b + 1))
    band[1:-1] = T.diagonals
    col0 = np.zeros(dim + 2)   # T[:, 0], padded as band; it lies in the first b + 1 rows
    col0[1:T.b + 2] = T.diagonals[np.arange(T.b + 1), T.b - np.arange(T.b + 1)]
    a = np.concatenate([[0.0], np.full(L, x[0]), [1.0]])
    b = np.concatenate([[s], np.full(L, x[1]), [0.0]])
    # G frame column f of pair n is pair-order column 2(n - h) - 1 + f
    G = np.zeros((L + 2, 4 * h + 2), dtype=complex)
    G[:, 1:-2] = a[:, None] * band[0::2]
    G[:, 2:-1] += b[:, None] * band[1::2]
    Gc, Gs = G[:, 0::2], G[:, 1::2]
    m = np.arange(L + 2)[:, None] - h + np.arange(2 * h + 1)   # column pair of each frame pair
    # the constant's column is read from col0 (below), the top sine's keeps G
    H1 = np.where(m == 0, 0.0, np.where(m == L + 1, Gc, v[0] * Gc + v[1] * Gs))
    H2 = np.where((m == 0) | (m == L + 1), 0.0, np.conj(v[0]) * Gc + np.conj(v[1]) * Gs)
    H0 = (a * col0[0::2] + b * col0[1::2]) / s
    centers = np.concatenate([H0[:1], H1[1:, h]])
    # absolute row sums of F, of |X| |T| |V| (w: absolute row sums of V by
    # pair-order column, the constant's taken from col0)
    S = np.abs(H1).sum(axis=1) + np.abs(H2).sum(axis=1) + np.abs(H0)
    w = np.concatenate([[0.0], np.tile([2.0 * abs(v[0]), 2.0 * abs(v[1])], L), [1.0]])
    rows, cols = _band_cells(dim, T.b)
    Tw = np.bincount(rows, np.abs(T.diagonals[rows, cols - rows + T.b]) * w[cols], dim)
    Tw = np.concatenate([[0.0], Tw, [0.0]]) + np.abs(col0) / s
    t = np.abs(a) * Tw[0::2] + np.abs(b) * Tw[1::2]
    radii = S - np.abs(centers) + 2.0 * (_gamma(dim + 16) + eta) * (S + t)

    c0, r0 = centers[0].real, radii[0]
    c, r = centers[1:], radii[1:]   # the conjugate discs share |Im c|, |Re c| and |c - c0|
    reach = ~(np.abs(c.real) - r > resolved_band(L))   # a NaN radius reaches the band
    with np.errstate(divide="ignore", invalid="ignore"):
        margin = float(np.min(1.0 - r[reach] / np.abs(c.imag[reach]), initial=1.0))
    isolation_gap = float(np.min(np.abs(c - c0) - r) - r0)
    certified = margin > 0.0 and isolation_gap > 0.0
    pairs = slice(1, L + 1)
    return DiscCertificate(
        N=L,
        centers=np.concatenate([centers[:1], centers[pairs], np.conj(centers[pairs]),
                                centers[-1:]]),
        radii=np.concatenate([radii[:1], radii[pairs], radii[pairs], radii[-1:]]),
        margin=margin, isolation_gap=isolation_gap, certified=certified,
        l_count_in_band=int(certified and c0 - r0 > tol_re))


def discs_disjoint(centers: np.ndarray, radii: np.ndarray) -> bool:
    """Whether the closed discs |z - centers[i]| <= radii[i] are mutually disjoint
    (tangent discs meet; a negative or NaN radius proves nothing).

    Only discs whose real intervals [Re c - r, Re c + r] overlap can meet. With
    the discs sorted by the left ends, disc i can meet disc j > i only if j
    starts before i ends, so exactly those pairs are tested, one offset j - i at
    a time, and no dim x dim temporary is formed. Each interval is widened by
    8 ulps of |Re c| + r, so that every pair whose computed |c_i - c_j| is at
    most r_i + r_j reaches the exact test.
    """
    c = np.asarray(centers, dtype=complex)
    r = np.asarray(radii, dtype=float)
    if not np.all(r >= 0.0):
        return False
    reach = r + 4.0 * np.finfo(float).eps * (np.abs(c.real) + r)
    lo, hi = c.real - reach, c.real + reach
    order = np.argsort(lo, kind="stable")
    c, r, lo, hi = c[order], r[order], lo[order], hi[order]
    ends = np.searchsorted(lo, hi, side="right")   # discs i + 1 .. ends[i] - 1 start before i ends
    i = np.arange(len(c))
    for k in range(1, len(c)):
        i = i[i + k < ends[i]]
        if not len(i):
            break
        if np.any(np.abs(c[i] - c[i + k]) <= r[i] + r[i + k]):
            return False
    return True


_WINDOW_PAIRS = 3   # a window holds the pairs n - 3 .. n + 3


def _window_eigenvalues(T: BandedT, discs: DiscCertificate) -> np.ndarray | None:
    """The spectrum of T = T(u1), one eigenvalue per disc, from small windows of
    its band, or None when the discs do not prove it.

    Mutually disjoint discs hold one eigenvalue each (Gershgorin's union
    theorem). In pair order (the constant, then (cos nx, sin nx) for n = 1..N,
    then the top sine) T is banded and diagonally dominant, so its eigenvectors
    decay exponentially away from their slot (Demko, Moss & Smith, Math. Comp.
    43, 1984; Benzi & Golub, BIT 39, 1999), and the principal submatrix of the
    pairs n - w .. n + w, shifted inward at the edges, carries the eigenvalue of
    pair n. The N windows, gathered from the band (zero off it), are solved as
    one (N, 2(2w + 1), 2(2w + 1)) batch. The cos slot of pair n takes the window
    eigenvalue nearest its disc center and the sin slot its conjugate; the
    constant and the top sine take theirs from the first and last windows. The
    set is returned only if every value lies in its own disc.
    """
    dim, b = len(T), T.b
    if len(discs.centers) != dim:
        raise ValueError(f"{len(discs.centers)} discs for a matrix of dimension {dim}")
    size = 2 * (2 * _WINDOW_PAIRS + 1)
    if dim < size or not discs_disjoint(discs.centers, discs.radii):
        return None
    L = T.N
    starts = np.clip(2 * np.arange(1, L + 1) - 1 - 2 * _WINDOW_PAIRS, 0, dim - size)
    offset = np.arange(size) - np.arange(size)[:, None]   # column minus row
    gathered = T.diagonals[starts[:, None, None] + np.arange(size)[:, None],
                           b + np.clip(offset, -b, b)]
    windows = np.where(np.abs(offset) <= b, gathered, 0.0)
    try:
        vals = np.linalg.eigvals(windows).astype(complex)
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK failure
        return None
    rows = vals[np.r_[np.arange(L), 0, L - 1]]
    targets = discs.centers[np.r_[np.arange(1, L + 1), 0, dim - 1]]
    picked = rows[np.arange(L + 2), np.argmin(np.abs(rows - targets[:, None]), axis=1)]
    cos = picked[:L]
    eigs = np.concatenate([picked[L:L + 1], cos, np.conj(cos), picked[L + 1:]])
    if not np.all(np.abs(eigs - discs.centers) <= discs.radii):
        return None
    return eigs


def match_blocks_u0(eigs: np.ndarray, eps: EpsilonSequence, N: int):
    """Pair a computed spectrum with the closed-form blocks -(n^2+n) +- i eps_n,
    n = 0..N, both in (Re desc, Im desc) order, which for the blocks is block
    order: eigenvalue position p is paired with block p // 2.

    Returns (max_distance, block_index) where block_index[i] is the block n
    paired with eigs[i]. Any bijection whose max_distance is small certifies
    the whole spectrum, hence (since every eps_n != 0) the absence of real
    eigenvalues; no optimal assignment is needed. Blocks lie at least 2 apart
    in Re and a real 2x2 block's computed eigenvalues are exact conjugates, so
    on these spectra the ordered pairing is the one an optimal assignment finds.
    """
    n = np.arange(N + 1, dtype=float)
    targets = np.empty((N + 1, 2), dtype=complex)
    targets.real = -(n * n + n)[:, None]
    targets.imag = eps.values(N + 1)[:, None] * [1.0, -1.0]
    if len(eigs) != targets.size:
        raise ValueError(f"{len(eigs)} eigenvalues for {targets.size} block eigenvalues")
    rows = np.lexsort((-eigs.imag, -eigs.real))
    dist = float(np.abs(eigs[rows] - targets.ravel()).max())
    block_index = np.empty(len(eigs), dtype=int)
    block_index[rows] = np.arange(len(eigs)) // 2
    return dist, block_index


def qkappa_spectrum(n: int, kappa: float) -> tuple[complex, complex]:
    """Closed-form eigenvalues -n^2 +- i*n*d of Q_kappa on {cos nx, sin nx}."""
    if n < 1:
        raise ValueError("Y_n blocks exist for n >= 1")
    _require_supercritical(kappa)
    d = _drift_offset(kappa)
    return complex(-n * n, n * d), complex(-n * n, -n * d)


def classify_and_count(eigs: np.ndarray, tol_im: float = TOL_IM_DEFAULT,
                       tol_re: float = TOL_RE_DEFAULT, *, N: int,
                       point_label: str = "custom") -> SpectrumReport:
    """Threshold classification and the Morse count l = #{real, > tol_re}, in
    full and inside the resolved band of truncation N."""
    if not (tol_im > 0 and tol_re > 0):
        raise ValueError("tolerances must be positive")
    eigs = np.asarray(eigs, dtype=complex)
    order = np.lexsort((-eigs.imag, -eigs.real))
    eigs = eigs[order]
    band = resolved_band(N)

    real_mask = is_real(eigs, tol_im)
    band_mask = np.abs(eigs.real) <= band
    real_eigs = eigs.real[real_mask]
    real_in_band = eigs.real[real_mask & band_mask]

    # when the nonreal values are their own conjugates as a multiset (equal
    # sorted arrays), every nearest-conjugate distance is exactly 0
    nonreal = eigs[~real_mask]
    mismatch = 0.0
    if not np.array_equal(np.sort(nonreal), np.sort(np.conj(nonreal))):
        conj = np.conj(nonreal)
        mismatch = float(np.max(np.abs(conj - _nearest(conj, nonreal))))

    return SpectrumReport(
        point_label=point_label,
        N=N,
        eigenvalues=eigs,
        tol_im=tol_im,
        tol_re=tol_re,
        band=band,
        real_eigs=real_eigs,
        l_count=int(np.sum(real_eigs > tol_re)),
        real_eigs_in_band=real_in_band,
        l_count_in_band=int(np.sum(real_in_band > tol_re)),
        min_abs_re=float(np.min(np.abs(eigs.real))),
        min_abs_lambda=float(np.min(np.abs(eigs))),
        max_conjugate_mismatch=mismatch,
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """Truncation study: rows at N and 2N, and the one pair check between them.

    A row holds a classified spectrum ("report": SpectrumReport), except the
    2N row of a u1 study when `disc_certificate` certifies it ("report":
    DiscCertificate, no eigensolve). Its "evidence" records the kind, "blocks",
    "dense", "windows" (see `eigenvalues`) or "gershgorin", and, for every u1
    row, the certificate's margin and isolation gap (and for a certified row
    the anchor disc radius); "lowest" holds the 8 values nearest Re = 0.

    The rows are compared inside the stable zone |Re| <= N^2/8. Against a 2N
    spectrum every eigenvalue there must persist (relative drift to its
    partner below drift_tol, the DRIFT_TOL the study ran with) and keep its
    classification. A u0 value's partner is the 2N value at its position
    (paired by block index, in O(N)), a u1 value's its nearest neighbour in
    the 2N row.
    Against a certified row every eigenvalue there must lie in a disc and be
    real exactly when that disc is disc 0, and the anchor's worst-case drift,
    its distance to the disc-0 center plus the radius, must stay below
    drift_tol.
    """

    point_label: str
    rows: list
    pair_checks: list
    drift_tol: float
    flagged: bool


def convergence_study(point_label: str, params: ModelParams,
                      tol_im: float = TOL_IM_DEFAULT,
                      tol_re: float = TOL_RE_DEFAULT) -> ConvergenceStudy:
    """Classify T(u) at the truncations N = params.layout.N and 2N and flag
    instability under that refinement."""
    N = params.layout.N
    params.eps.values(2 * N + 1)   # an eps_n underflow fails before any spectrum
    _check_kappa(params.kappa, 2 * N, "2N")   # and so does an overflowing kappa
    row_a, row_b = (_study_row(point_label, replace(params, layout=BasisLayout(n)), n > N,
                               tol_im, tol_re)
                    for n in (N, 2 * N))
    rep_a, rep_b = row_a["report"], row_b["report"]
    zone = N**2 / 8.0
    at = np.flatnonzero(np.abs(rep_a.eigenvalues.real) <= zone)
    in_zone = rep_a.eigenvalues[at]
    if isinstance(rep_b, DiscCertificate):
        check = _disc_pair_check(in_zone, rep_a.real_eigs_in_band, rep_b, tol_im)
    else:   # u0: block n sits at positions 2n and 2n + 1 of both rows
        partners = (rep_b.eigenvalues[at] if point_label == "u0"
                    else _nearest(in_zone, rep_b.eigenvalues))
        check = _drift_check(in_zone, partners, tol_im)
    ok = (check["max_drift"] <= DRIFT_TOL and check["classification_flips"] == 0
          and check.get("outside_discs", 0) == 0
          and rep_a.l_count_in_band == rep_b.l_count_in_band)
    pair_check = {"N_pair": (N, 2 * N), "stable_zone": zone, **check,
                  "l_in_band_pair": (rep_a.l_count_in_band, rep_b.l_count_in_band), "ok": ok}
    return ConvergenceStudy(point_label, [row_a, row_b], [pair_check], DRIFT_TOL, not ok)


def _check_kappa(kappa: float, L: int, name: str):
    """A ValueError if kappa overflows `disc_certificate` at L: a row of |T(u1)| sums
    to at most L^2 + L + |kappa| L + 3, weighed by 2 |v| < 4 (S + t stay below)."""
    if not math.isfinite(4.0 * (L * L + L + abs(kappa) * L + 3.0)):
        raise ValueError(f"kappa = {kappa} overflows the largest row sum of the disc "
                         f"certificate at {name} = {L}")


def _study_row(point_label: str, params: ModelParams, count_by_discs: bool, tol_im: float,
               tol_re: float) -> dict:
    """One row of a convergence study; T(u) lives only inside this call.

    A u1 row runs `disc_certificate`. With count_by_discs a certified row is
    the certificate itself; any other u1 row passes the discs to `eigenvalues`,
    which takes the spectrum from windows when the discs allow.
    """
    N = params.layout.N
    T = assemble_T(point_label, params)
    evidence = {"kind": "dense"}   # first key of the report; `eigenvalues` sets it
    cert = None
    if point_label == "u1":
        cert = disc_certificate(T, params.kappa, tol_re)
        evidence.update(margin=cert.margin, isolation_gap=cert.isolation_gap)
        if count_by_discs and cert.certified:
            evidence.update(kind="gershgorin", anchor_radius=float(cert.radii[0]))
            order = np.argsort(np.abs(cert.centers.real), kind="stable")
            return {"N": N, "evidence": evidence, "report": cert,
                    "lowest": cert.centers[order][:8]}
    report = classify_and_count(eigenvalues(T, cert, evidence), tol_im, tol_re,
                                point_label=point_label, N=N)
    eigs = report.eigenvalues
    return {"N": N, "evidence": evidence, "report": report,
            "lowest": eigs[np.argsort(np.abs(eigs.real))][:8]}


def _nearest(z: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """The nearest neighbour in eigs of each value of z: a quadratic search."""
    matched = np.empty_like(z)
    for rows in _row_chunks(len(z)):
        matched[rows] = eigs[np.argmin(np.abs(z[rows, None] - eigs), axis=1)]
    return matched


def _drift_check(in_zone: np.ndarray, partners: np.ndarray, tol_im: float) -> dict:
    """Relative drift of each in-zone eigenvalue to its partner in the 2N row, and
    the classification flips."""
    drift = np.abs(in_zone - partners) / (1.0 + np.abs(in_zone))
    return {"max_drift": float(drift.max()) if len(drift) else 0.0,
            "classification_flips": int(np.sum(is_real(in_zone, tol_im)
                                               != is_real(partners, tol_im)))}


def _disc_pair_check(in_zone: np.ndarray, reals_a: np.ndarray, cert: DiscCertificate,
                     tol_im: float) -> dict:
    """In-zone eigenvalues against certified discs: the anchor's worst-case
    drift |a - c_0| + r_0 (a the real in-band eigenvalue nearest c_0), the
    eigenvalues whose classification disagrees with their disc (real exactly
    in disc 0), and those outside every disc."""
    c0, r0 = cert.centers[0].real, cert.radii[0]
    in_disc0 = np.abs(in_zone - cert.centers[0]) <= r0
    return {"max_drift": float(np.min(np.abs(reals_a - c0)) + r0) if len(reals_a) else np.inf,
            "classification_flips": int(np.sum(is_real(in_zone, tol_im) != in_disc0)),
            "outside_discs": int(np.sum(~_in_some_disc(in_zone, cert.centers, cert.radii)))}


def _in_some_disc(z: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Per value: whether |z - c_j| <= r_j for some disc j.

    A disc can hold z only if |Re z - Re c_j| <= max r, so with the discs
    sorted by Re c only those within that reach (widened by 8 ulps) are
    tested, one offset into the sorted window at a time. A radius that is not
    finite takes the full scan."""
    inside = np.zeros(len(z), dtype=bool)
    if not np.all(np.isfinite(radii)):
        for rows in _row_chunks(len(z)):
            inside[rows] = (np.abs(z[rows, None] - centers) <= radii).any(axis=1)
        return inside
    order = np.argsort(centers.real, kind="stable")
    c, r = centers[order], radii[order]
    reach = float(np.max(r, initial=0.0))
    reach = reach + 4.0 * np.finfo(float).eps * (np.abs(z.real) + reach)
    lo = np.searchsorted(c.real, z.real - reach, side="left")
    hi = np.searchsorted(c.real, z.real + reach, side="right")
    i = np.arange(len(z))
    for k in range(int(np.max(hi - lo, initial=0))):
        i = i[lo[i] + k < hi[i]]
        j = lo[i] + k
        inside[i] |= np.abs(z[i] - c[j]) <= r[j]
    return inside


@dataclass(frozen=True)
class Eps0ScanReport:
    """Real-eigenvalue counts of T(u1) across coupling strengths."""

    rows: list
    largest_single: float | None


def eps0_threshold_scan(params: ModelParams, eps0_list: list[float],
                        tol_im: float = TOL_IM_DEFAULT,
                        tol_re: float = TOL_RE_DEFAULT) -> Eps0ScanReport:
    """Count in-band real eigenvalues of T(u1) for each coupling strength."""
    rows = []
    for eps0 in eps0_list:
        if not 0.0 < eps0 < 1.0:
            raise ValueError(f"eps0 values must lie in (0, 1), got {eps0}")
        params_e = replace(params, eps=EpsilonSequence(eps0, params.eps.rho))
        report = stationary_spectrum("u1", params_e, tol_im, tol_re)
        reals = report.real_eigs_in_band
        anchor = float(reals[np.argmin(np.abs(reals - eps0))]) if len(reals) else None
        rows.append({"eps0": eps0, "real_count_in_band": len(reals),
                     "l_count_in_band": report.l_count_in_band, "anchor": anchor})
    singles = [r["eps0"] for r in rows if r["real_count_in_band"] == 1]
    return Eps0ScanReport(rows, max(singles) if singles else None)


def gap_check(theta: float, n_max: int) -> GapReport:
    """Sparseness quotients of the eigenvalue ladder 1+n^2 of A.

    With theta = 1/2 the quotients approach 1 from below (the sparseness
    condition fails); the raw gaps 2n+1 grow without bound, which is the
    sup = infinity trend that only helps at theta < 1/2.
    """
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must lie in [0, 1), got {theta}")
    if n_max < 10:
        raise ValueError("n_max must be >= 10")
    n = np.arange(n_max + 1, dtype=float)
    lam = 1.0 + n * n
    lambda_seq = np.concatenate([[lam[0]], np.repeat(lam[1:], 2)])
    powers = lam**theta
    jump_gap = lam[1:] - lam[:-1]
    jump_ratio = jump_gap / (powers[1:] + powers[:-1])
    ratios = np.zeros(len(lambda_seq) - 1)
    ratios[::2] = jump_ratio
    return GapReport(
        theta=theta,
        n_max=n_max,
        lambda_seq=lambda_seq,
        ratios=ratios,
        jump_n=np.arange(n_max),
        jump_lambda=lam[:-1],
        jump_gap=jump_gap,
        jump_ratio=jump_ratio,
        running_max_gap=np.maximum.accumulate(jump_gap),
        sup_estimate=float(jump_ratio.max()),
    )
