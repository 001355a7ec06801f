"""Linearization spectra, eigenvalue classification, and gap-condition checks.

The linearization at a frozen state u is

    T(u) h = h_xx + J h_x + f_s(x,u,u_x) h + f_p(x,u,u_x) h_x + K h
           = Q h + M_{f_s} h + M_{f_p} h_x + K h,

assembled as a dense matrix. Each multiplication operator is built from the
grid moments of its samples (one real FFT, Toeplitz-plus-Hankel blocks) and
M_{f_p} D is a column gather along the D mode map; the same code path serves
every u, and the stationary states are not special-cased. At u = 0 the
multiplier samples vanish identically and the matrix is exactly Q + K, block
2x2 with closed-form eigenvalues -(n^2+n) +- i eps_n.

Spectra are solved block by block: the nonzero pattern (exact zeros only, no
tolerance) splits into strongly connected components, whose diagonal blocks
carry the whole spectrum, and equal-size blocks are solved as one batch. So
the spectrum of Q + K costs N + 1 batched 2x2 solves, while an irreducible
matrix, such as T(u1), takes one dense eigensolve.

Classification is threshold-based: an eigenvalue is "real" when
|Im| < tol_im * (1 + |lambda|). Because eps_n decays exponentially, deep
blocks always fall below any fixed threshold; certifying "no real eigenvalue"
at u = 0 therefore goes through exact block identification, not thresholds.
Verdict-grade real sets are additionally restricted to the resolved band
|Re| <= N^2/4: the layout's dropped top-sine image plants one strongly
negative real truncation artifact near -(N^2+N) that moves with N, while
everything in band is stable under refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.optimize import linear_sum_assignment

from .basis import BasisLayout
from .model import ModelParams, f_p, f_s
from .operators import (EpsilonSequence, _require_supercritical, mode_map,
                        multiplier_from_samples)

__all__ = [
    "SpectrumReport",
    "GapReport",
    "ConvergenceStudy",
    "Eps0ScanReport",
    "TOL_IM_DEFAULT",
    "TOL_RE_DEFAULT",
    "resolved_band",
    "is_real",
    "assemble_T",
    "eigenvalues",
    "block_spectrum_u0",
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
    kL: float | None
    condition_2_1_holds: bool | None


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
    """Classified dense spectrum of T at the stationary state named by label."""
    u = stationary_state(label, params.layout)
    return classify_and_count(eigenvalues(assemble_T(u, params)), tol_im, tol_re,
                              point_label=label, N=params.layout.N)


def assemble_T(u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Dense (dim, dim) matrix of T(u) = Q + M_{f_s} + M_{f_p} D + K in the layout.

    Q and K are written from their mode maps into one zeroed matrix (their
    supports are disjoint), u and u_x are sampled by one FFT synthesis of a
    two-column block, each multiplier is built from the moments of its samples,
    and M_{f_p} D is a column gather along the D mode map. No dense S, P or D is
    formed.
    """
    lay = params.layout
    d = mode_map(lay, "D")
    us, uxs = lay.fft_synthesis(np.stack([u, d(u)], axis=1)).T
    fs_samp = np.broadcast_to(f_s(lay.grid, us, uxs, params), (lay.M,))
    fp_samp = np.broadcast_to(f_p(lay.grid, us, uxs, params), (lay.M,))
    entries = np.zeros((lay.dim, lay.dim))
    for op in (mode_map(lay, "Q"), mode_map(lay, "K", eps=params.eps)):
        entries[op.rows, op.cols] += op.values
    entries += multiplier_from_samples(lay, fs_samp)
    entries[:, d.cols] += multiplier_from_samples(lay, fp_samp)[:, d.rows] * d.values
    return entries


def _strong_components(entries: np.ndarray) -> list[np.ndarray]:
    """Index sets of the strongly connected components of the nonzero pattern
    (edge i -> j where entries[i, j] != 0; exact zeros only, no tolerance).

    A node whose row and column have no zero reaches and is reached by every
    node; finding one settles the dense case without building the graph.
    """
    pattern = entries != 0.0
    np.fill_diagonal(pattern, True)
    if np.any(pattern.all(axis=0) & pattern.all(axis=1)):
        return [np.arange(len(entries))]
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components
    count, labels = connected_components(csr_array(pattern), directed=True,
                                         connection="strong")
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1])


def eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of the dense square matrix m, sorted by Re then Im, descending.

    An exactly reducible matrix is permutation-similar to a block triangular
    one whose diagonal blocks are its strongly connected components, so its
    spectrum is the union of theirs: equal-size blocks are solved as one
    batch. An irreducible matrix takes one dense eigensolve.
    """
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix has non-finite entries")
    components = _strong_components(m)
    try:
        if len(components) == 1:
            eigs = scipy.linalg.eigvals(m)
        else:
            by_size: dict[int, list] = {}
            for c in components:
                by_size.setdefault(len(c), []).append(c)
            eigs = np.concatenate([_batched_eigvals(m, group)
                                   for group in by_size.values()])
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        cond = np.linalg.cond(m)
        raise RuntimeError(f"eigensolver failed (condition estimate {cond:.3g})") from exc
    order = np.lexsort((-eigs.imag, -eigs.real))
    return eigs[order]


def _batched_eigvals(entries: np.ndarray, components: list[np.ndarray]) -> np.ndarray:
    """Eigenvalues of the diagonal blocks entries[c, c], all of one size."""
    idx = np.stack(components)
    blocks = entries[idx[:, :, None], idx[:, None, :]]
    return np.linalg.eigvals(blocks).astype(complex).ravel()


def block_spectrum_u0(n: int, eps: EpsilonSequence) -> tuple[complex, complex]:
    """Closed-form eigenvalues -(n^2+n) +- i*eps_n of the n-th 2x2 block."""
    if n < 0:
        raise ValueError("block index must be >= 0")
    re = -(n * n + n)
    return complex(re, eps.value(n)), complex(re, -eps.value(n))


def match_blocks_u0(eigs: np.ndarray, eps: EpsilonSequence, N: int):
    """Optimal pairing of a computed spectrum with the closed-form blocks.

    Returns (max_distance, block_index) where block_index[i] is the block n
    assigned to eigs[i]. A small max_distance certifies the whole spectrum,
    hence (since every eps_n != 0) the absence of real eigenvalues.
    """
    targets = np.concatenate([block_spectrum_u0(n, eps) for n in range(N + 1)])
    cost = np.abs(eigs[:, None] - targets[None, :])
    rows, cols = linear_sum_assignment(cost)
    dist = float(cost[rows, cols].max())
    block_index = np.empty(len(eigs), dtype=int)
    block_index[rows] = cols // 2
    return dist, block_index


def qkappa_spectrum(n: int, kappa: float) -> tuple[complex, complex]:
    """Closed-form eigenvalues -n^2 +- i*n*d of Q_kappa on {cos nx, sin nx}."""
    if n < 1:
        raise ValueError("Y_n blocks exist for n >= 1")
    _require_supercritical(kappa)
    d = np.sqrt(kappa * kappa - 1.0)
    return complex(-n * n, n * d), complex(-n * n, -n * d)


def classify_and_count(eigs: np.ndarray, tol_im: float = TOL_IM_DEFAULT,
                       tol_re: float = TOL_RE_DEFAULT, *, band: float | None = None,
                       point_label: str = "custom", N: int | None = None) -> SpectrumReport:
    """Threshold classification and the Morse count l = #{real, > tol_re}."""
    if tol_im <= 0 or tol_re <= 0:
        raise ValueError("tolerances must be positive")
    eigs = np.asarray(eigs, dtype=complex)
    order = np.lexsort((-eigs.imag, -eigs.real))
    eigs = eigs[order]
    if N is None:
        N = (len(eigs) - 2) // 2
    if band is None:
        band = resolved_band(N)

    real_mask = is_real(eigs, tol_im)
    band_mask = np.abs(eigs.real) <= band
    real_eigs = eigs.real[real_mask]
    real_in_band = eigs.real[real_mask & band_mask]

    nonreal = eigs[~real_mask]
    if len(nonreal):
        mismatch = float(np.max(np.min(np.abs(np.conj(nonreal)[:, None] - nonreal[None, :]),
                                       axis=1)))
    else:
        mismatch = 0.0

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
    """Truncation study: per-N classified spectra plus cross-N stability checks.

    Each pair of consecutive truncations is compared inside the stable zone
    |Re| <= min(N)^2/8: every eigenvalue there must persist (relative drift
    below drift_tol) and keep its classification.
    """

    point_label: str
    rows: list
    pair_checks: list
    drift_tol: float
    flagged: bool


def convergence_study(point_label: str, params: ModelParams, N_list: list[int],
                      tol_im: float = TOL_IM_DEFAULT, tol_re: float = TOL_RE_DEFAULT,
                      k_lowest: int = 8, drift_tol: float = 1e-6) -> ConvergenceStudy:
    """Classify T(u) across truncations and flag instability under refinement."""
    if len(N_list) < 2 or any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ValueError("N_list must be increasing with at least 2 entries")
    params.eps.values(N_list[-1] + 1)   # an eps_n underflow fails before any spectrum
    rows = []
    for N in N_list:
        report = stationary_spectrum(point_label, replace(params, layout=BasisLayout(N)),
                                     tol_im, tol_re)
        eigs = report.eigenvalues
        lowest = eigs[np.argsort(np.abs(eigs.real))][:k_lowest]
        rows.append({"N": N, "report": report, "lowest": lowest})

    pair_checks = []
    flagged = False
    for row_a, row_b in zip(rows, rows[1:]):
        rep_a, rep_b = row_a["report"], row_b["report"]
        zone = min(row_a["N"], row_b["N"]) ** 2 / 8.0
        in_zone = rep_a.eigenvalues[np.abs(rep_a.eigenvalues.real) <= zone]
        idx = np.argmin(np.abs(in_zone[:, None] - rep_b.eigenvalues[None, :]), axis=1)
        matched = rep_b.eigenvalues[idx]
        drift = np.abs(in_zone - matched) / (1.0 + np.abs(in_zone))
        flips = int(np.sum(is_real(in_zone, tol_im) != is_real(matched, tol_im)))
        max_drift = float(drift.max()) if len(drift) else 0.0
        ok = max_drift <= drift_tol and flips == 0
        flagged = flagged or not ok
        pair_checks.append({
            "N_pair": (row_a["N"], row_b["N"]),
            "stable_zone": zone,
            "max_drift": max_drift,
            "classification_flips": flips,
            "l_in_band_pair": (rep_a.l_count_in_band, rep_b.l_count_in_band),
            "ok": ok,
        })
        if rep_a.l_count_in_band != rep_b.l_count_in_band:
            flagged = True
            pair_checks[-1]["ok"] = False
    return ConvergenceStudy(point_label, rows, pair_checks, drift_tol, flagged)


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


def gap_check(theta: float, n_max: int, k: float | None = None,
              L: float | None = None) -> GapReport:
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
    kL = None if k is None or L is None else float(k * L)
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
        kL=kL,
        condition_2_1_holds=None if kL is None else bool(np.any(jump_ratio > kL)),
    )
