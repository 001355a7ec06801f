"""End-to-end verification pipeline and report emission.

The pipeline checks, in order: stationarity of u0 = 0 and u1 = 1 (theta-norm
residuals), the spectra of the linearizations at both points, membership of
both points in the admissible set E (stationary, no negative real eigenvalues,
0 not an eigenvalue), stability of the classification under doubling the
truncation, and finally the parity of l(u1) - l(u0). An odd parity between two
admissible stationary points is incompatible with both lying on one smooth
finite-dimensional invariant manifold, so the verdict is OBSTRUCTED. Any
failed stage downgrades to INCONCLUSIVE; the pipeline never fabricates an
obstruction.

Membership evidence differs by point, deliberately, and verdict.json records
which evidence was used, with its margin (`e_membership.<point>.evidence`):

  u0: "exact_blocks". Both multipliers f_s and f_p vanish at u0, so the
      linearization is exactly block 2x2; its spectrum, read off the blocks
      in closed form with no eigensolve, is paired with -(n^2+n) +- i*eps_n
      in (Re, Im) order, and any pairing within BLOCK_MATCH_TOL will do (no optimal
      assignment is needed). With every eps_n nonzero that certifies "no real
      eigenvalues" exactly, which no fixed imaginary-part threshold can do
      (eps_n decays below any threshold). The margin is min eps_n, the
      smallest imaginary part.
  u1: at N, threshold classification inside the resolved band |Re| <= N^2/4,
      with an anchor requirement: the exact constant-eigenvector eigenvalue
      eps0 must appear among the positive real-classified eigenvalues. The
      anchor makes the verdict collapse to INCONCLUSIVE under broken
      tolerances instead of silently flipping parity. The N-level spectrum
      comes from small windows of T(u1) when its Gershgorin discs are
      mutually disjoint and every window value lies in its own disc
      ("windows", see `spectra.eigenvalues`); the anchor is then eps0 bit
      for bit. Otherwise it is one dense eigensolve ("dense"). Either
      row records the discs' margin and isolation gap. At 2N the count is
      certified by Gershgorin discs ("gershgorin", see
      `spectra.disc_certificate`): one isolated real disc around eps0 and no
      other in-band disc meeting the real axis prove l = 1 without an
      eigensolve. The margin is min(1 - r_i/|Im c_i|) over the in-band discs,
      reported with the isolation gap of disc 0 and its radius. Where the discs
      do not certify (kappa near 1, strong coupling) the 2N row is a dense
      spectrum checked by drift and classification, labelled "dense", with the
      failed discs' margin and gap.

verdict.json holds each spectrum CSV's CRC-32 (`csv_crc32`), not its eigenvalues.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import operator
import os
import time
import zlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .basis import BasisLayout
from .model import ModelParams
from .operators import EpsilonSequence
from .semiflow import stationary_residual
from .spectra import (TOL_IM_DEFAULT, TOL_RE_DEFAULT, ConvergenceStudy, GapReport,
                      SpectrumReport, convergence_study, gap_check, match_blocks_u0,
                      stationary_state)

__all__ = [
    "RunConfig",
    "VerdictReport",
    "run_verify",
    "emit_reports",
    "reports_equal",
    "write_csv",
    "write_json",
    "write_spectrum_csv",
    "write_gap_csv",
    "OBSTRUCTED",
    "NOT_OBSTRUCTED",
    "INCONCLUSIVE",
]

OBSTRUCTED = "OBSTRUCTED"
NOT_OBSTRUCTED = "NOT_OBSTRUCTED"
INCONCLUSIVE = "INCONCLUSIVE"

STATIONARITY_TOL = 1e-10
BLOCK_MATCH_TOL = 1e-10
ANCHOR_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; JSON files use exactly these key names. The
    model defaults are those of ModelParams and EpsilonSequence, the
    tolerance defaults those of `spectra`."""

    kappa: float = ModelParams.kappa
    eps0: float = EpsilonSequence.eps0
    rho: float = EpsilonSequence.rho
    theta: float = ModelParams.theta
    N: int = 128
    dt: float = ModelParams.dt
    T_final: float = ModelParams.T_final
    tol_im: float = TOL_IM_DEFAULT
    tol_re: float = TOL_RE_DEFAULT
    seeds: tuple = tuple(range(10))
    outdir: str = "out"

    def __post_init__(self):
        """seeds must be integers, as in a config file: TypeError for a bool or a
        float, which int() would truncate."""
        if any(isinstance(s, bool) for s in self.seeds):
            raise TypeError(f"seeds must be integers, got {self.seeds!r}")
        object.__setattr__(self, "seeds", tuple(operator.index(s) for s in self.seeds))

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kinds = {fl.name: fl.type for fl in fields(cls)}
        bad = [f"{k} must be {_KIND_NAMES[kinds[k]]}, got {v!r}"
               for k, v in sorted(data.items()) if not _fits(kinds[k], v)]
        if bad:
            raise ValueError(f"bad config values: {'; '.join(bad)}")
        return cls(**data)

    def with_overrides(self, **overrides) -> "RunConfig":
        provided = {k: v for k, v in overrides.items() if v is not None}
        unknown = set(provided) - set(CONFIG_KEYS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return replace(self, **provided)

    def model_params(self) -> ModelParams:
        return ModelParams(layout=BasisLayout(self.N), kappa=self.kappa,
                           eps=EpsilonSequence(self.eps0, self.rho),
                           theta=self.theta, dt=self.dt, T_final=self.T_final)

    def to_dict(self) -> dict:
        return {k: (list(getattr(self, k)) if k == "seeds" else getattr(self, k))
                for k in CONFIG_KEYS}


CONFIG_KEYS = tuple(fl.name for fl in fields(RunConfig))

_KIND_NAMES = {"int": "an integer", "float": "a real number", "tuple": "a list of integers",
               "str": "a string"}


def _fits(kind: str, value) -> bool:
    """Whether a JSON value fits a RunConfig field annotated kind; a bool fits
    none, and seeds (the one tuple field) is a list of integers."""
    if isinstance(value, bool):
        return False
    if kind == "tuple":
        return isinstance(value, list) and all(_fits("int", s) for s in value)
    return isinstance(value, {"int": int, "float": (int, float), "str": str}[kind])


@dataclass(frozen=True)
class VerdictReport:
    """Everything run_verify measured, plus the verdict."""

    config: RunConfig
    stationarity: dict
    spectrum_u0: SpectrumReport
    spectrum_u1: SpectrumReport
    e_membership: dict
    l_values: tuple
    parity: int
    verdict: str
    failed_stage: str | None
    convergence: dict
    gap_summary: GapReport
    block_index_u0: np.ndarray
    timestamp: str

    def spectrum_csv_texts(self) -> tuple[str, str]:
        return (_spectrum_csv_text(self.spectrum_u0, self.block_index_u0),
                _spectrum_csv_text(self.spectrum_u1))

    def to_dict(self, spectrum_csvs: tuple[str, str] | None = None) -> dict:
        """verdict.json's payload; spectrum_csvs, if given, is `spectrum_csv_texts()`."""
        csv_u0, csv_u1 = spectrum_csvs or self.spectrum_csv_texts()
        return {
            "config": self.config.to_dict(),
            "stationarity": self.stationarity,
            "spectrum_u0": _spectrum_dict(self.spectrum_u0, csv_u0),
            "spectrum_u1": _spectrum_dict(self.spectrum_u1, csv_u1),
            "e_membership": self.e_membership,
            "l_values": list(self.l_values),
            "parity": self.parity,
            "verdict": self.verdict,
            "failed_stage": self.failed_stage,
            "convergence": self.convergence,
            "gap_summary": _gap_dict(self.gap_summary),
            "timestamp": self.timestamp,
        }


def _spectrum_dict(rep: SpectrumReport, csv_text: str) -> dict:
    return {
        "point_label": rep.point_label,
        "N": rep.N,
        "tol_im": rep.tol_im,
        "tol_re": rep.tol_re,
        "band": rep.band,
        "csv_crc32": zlib.crc32(csv_text.encode("utf-8")),
        "real_eigs": rep.real_eigs.tolist(),
        "l_count": rep.l_count,
        "real_eigs_in_band": rep.real_eigs_in_band.tolist(),
        "l_count_in_band": rep.l_count_in_band,
        "min_abs_re": rep.min_abs_re,
        "min_abs_lambda": rep.min_abs_lambda,
        "max_conjugate_mismatch": rep.max_conjugate_mismatch,
    }


def _gap_dict(gap: GapReport, head: int = 64) -> dict:
    take = min(head, len(gap.jump_n))
    return {
        "theta": gap.theta,
        "n_max": gap.n_max,
        "sup_estimate": gap.sup_estimate,
        "max_running_gap": float(gap.running_max_gap[-1]),
        "head": [{"n": int(gap.jump_n[i]), "lambda_n": float(gap.jump_lambda[i]),
                  "gap": float(gap.jump_gap[i]), "ratio": float(gap.jump_ratio[i])}
                 for i in range(take)],
    }


def _convergence_dict(study: ConvergenceStudy) -> dict:
    return {
        "point_label": study.point_label,
        "drift_tol": study.drift_tol,
        "flagged": study.flagged,
        "rows": [{
            "N": row["N"],
            "evidence": row["evidence"],
            "l_count_in_band": row["report"].l_count_in_band,
            "real_eigs_in_band": row["report"].real_eigs_in_band.tolist(),
            "lowest": np.column_stack((row["lowest"].real, row["lowest"].imag)).tolist(),
        } for row in study.rows],
        "pair_checks": [{**pc, "N_pair": list(pc["N_pair"]),
                         "l_in_band_pair": list(pc["l_in_band_pair"])}
                        for pc in study.pair_checks],
    }


def run_verify(config: RunConfig) -> VerdictReport:
    """Execute the full pipeline; any failed stage yields INCONCLUSIVE."""
    params = config.model_params()
    layout = params.layout
    eps = params.eps
    stages: list[tuple[str, bool]] = []

    u0 = stationary_state("u0", layout)
    u1 = stationary_state("u1", layout)
    res0, res1 = stationary_residual(np.stack((u0, u1)), params).tolist()
    stationarity = {
        "residual_u0": res0,
        "residual_u1": res1,
        "tol": STATIONARITY_TOL,
        "ok_u0": bool(res0 <= STATIONARITY_TOL),
        "ok_u1": bool(res1 <= STATIONARITY_TOL),
    }
    stages.append(("stationarity", stationarity["ok_u0"] and stationarity["ok_u1"]))

    # The N-level rows of the convergence studies are the verdict spectra.
    conv_u0, conv_u1 = (convergence_study(label, params, config.tol_im, config.tol_re)
                        for label in ("u0", "u1"))
    rep0 = conv_u0.rows[0]["report"]
    rep1 = conv_u1.rows[0]["report"]

    block_dist, block_index = match_blocks_u0(rep0.eigenvalues, eps, layout.N)
    eps_n = eps.values(layout.N + 1)
    eps_nonzero = not eps.degenerate and bool(np.all(eps_n != 0.0))
    member_u0 = {
        "stationary": stationarity["ok_u0"],
        "block_match_distance": block_dist,
        "block_match_ok": bool(block_dist <= BLOCK_MATCH_TOL),
        "eps_nonzero": eps_nonzero,
        "no_negative_real": bool(block_dist <= BLOCK_MATCH_TOL and eps_nonzero),
        "zero_not_eigenvalue": bool(block_dist <= BLOCK_MATCH_TOL and eps.eps0 > 0.0),
        "l_consistent": rep0.l_count == rep0.l_count_in_band,
    }
    member_u0["ok"] = all(member_u0[k] for k in
                          ("stationary", "block_match_ok", "eps_nonzero",
                           "no_negative_real", "zero_not_eigenvalue", "l_consistent"))
    member_u0["evidence"] = {"kind": "exact_blocks", "margin": float(eps_n.min())}

    reals1 = rep1.real_eigs_in_band
    anchor_candidates = reals1[np.abs(reals1 - eps.eps0) <= ANCHOR_TOL] if len(reals1) else reals1
    anchor_ok = bool(len(anchor_candidates) > 0
                     and np.all(anchor_candidates > config.tol_re))
    member_u1 = {
        "stationary": stationarity["ok_u1"],
        "no_negative_real": bool(np.all(reals1 > -config.tol_re)) if len(reals1) else True,
        "zero_not_eigenvalue": bool(np.all(np.abs(reals1) > config.tol_re)) if len(reals1) else True,
        "anchor_eps0_found": anchor_ok,
        "l_consistent": rep1.l_count == rep1.l_count_in_band,
    }
    member_u1["ok"] = all(member_u1[k] for k in
                          ("stationary", "no_negative_real", "zero_not_eigenvalue",
                           "anchor_eps0_found", "l_consistent"))
    member_u1["evidence"] = conv_u1.rows[-1]["evidence"]
    stages.append(("e_membership_u0", member_u0["ok"]))
    stages.append(("e_membership_u1", member_u1["ok"]))

    anchors = []
    for row in conv_u1.rows:
        reals = row["report"].real_eigs_in_band
        anchors.append(float(reals[np.argmin(np.abs(reals - eps.eps0))])
                       if len(reals) else None)
    # a certified last row knows its anchor to within the disc-0 radius
    radius = conv_u1.rows[-1]["evidence"].get("anchor_radius", 0.0)
    anchor_drift_ok = (None not in anchors
                       and abs(anchors[0] - anchors[-1]) + radius <= conv_u1.drift_tol)
    conv_ok = not conv_u0.flagged and not conv_u1.flagged and anchor_drift_ok
    stages.append(("convergence", conv_ok))

    l_values = (rep0.l_count_in_band, rep1.l_count_in_band)
    parity = (l_values[1] - l_values[0]) % 2

    failed = next((name for name, ok in stages if not ok), None)
    if failed is not None:
        verdict = INCONCLUSIVE
    elif parity == 1:
        verdict = OBSTRUCTED
    else:
        verdict = NOT_OBSTRUCTED

    return VerdictReport(
        config=config,
        stationarity=stationarity,
        spectrum_u0=rep0,
        spectrum_u1=rep1,
        e_membership={"u0": member_u0, "u1": member_u1},
        l_values=l_values,
        parity=parity,
        verdict=verdict,
        failed_stage=failed,
        convergence={"u0": _convergence_dict(conv_u0), "u1": _convergence_dict(conv_u1),
                     "anchor_values": anchors, "anchor_drift_ok": bool(anchor_drift_ok)},
        gap_summary=gap_check(config.theta, n_max=1024),
        block_index_u0=block_index,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )


def _in_place(path: str, flags: int) -> int:
    """`open`'s opener for a report: the flags without O_TRUNC, so a rewrite goes over
    the old bytes (on ext4 mounted with discard, cutting a file to zero before writing
    it anew took several times as long)."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


@contextlib.contextmanager
def _report_file(path: str):
    """A report opened for writing in place and cut, once written, to its new length.
    A crash mid-write leaves a partial file, as a truncating open would (here the new
    head on the old tail)."""
    with open(path, "w", newline="", encoding="utf-8", opener=_in_place) as fh:
        yield fh
        fh.truncate()


def _write_text(path: str, text: str) -> None:
    with _report_file(path) as fh:
        fh.write(text)


def write_csv(path: str, header: list, rows) -> None:
    """One report table: the header row, then the rows."""
    with _report_file(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str, payload: dict) -> None:
    """One JSON report, compact and strict (no indent, so `json.dumps` is the C
    encoder). Only a payload holding NaN or Infinity, not JSON, is dumped again
    after `nulled` writes each, at any depth of dicts, lists and tuples, as null."""

    def nulled(value):
        if isinstance(value, dict):
            return {k: nulled(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [nulled(v) for v in value]
        return None if isinstance(value, float) and not math.isfinite(value) else value

    try:
        text = json.dumps(payload, allow_nan=False)
    except ValueError:
        text = json.dumps(nulled(payload), allow_nan=False)
    _write_text(path, text + "\n")


def _table(rows_format: str, columns: list) -> str:
    """The rows of a table in one `%`: rows_format, every row's format in turn, over the
    columns' cells taken row by row."""
    cells = [None] * sum(map(len, columns))
    for j, column in enumerate(columns):
        cells[j::len(columns)] = column
    return rows_format % tuple(cells)


_SPECTRUM_ROWS = ("%s,%s,%s,%s\r\n", "%s,-%s,%s,%s\r\n")


def _spectrum_csv_text(rep: SpectrumReport, block_index: np.ndarray | None = None) -> str:
    """Columns re, im (each the float's repr), is_real, block_index. Sorted by
    (Re desc, Im desc), a conjugate pair is two adjacent rows; where row k has Im > 0 and
    row k + 1 is its conjugate bit for bit, Re and Im are formatted once for both and the
    second row writes Im as "-" + repr(Im_k), which is repr(-Im_k)."""
    z = rep.eigenvalues
    re, im = z.real, z.imag
    second = np.zeros(len(z), dtype=bool)
    second[1:] = ((im[:-1] > 0.0) & (im[1:] == -im[:-1])
                  & (re.view(np.int64)[1:] == re.view(np.int64)[:-1]))
    first = ~second
    source = (np.cumsum(first) - 1).tolist()   # index of each row's formatted Re and Im
    re_text = list(map(repr, re[first].tolist()))
    im_text = list(map(repr, im[first].tolist()))
    return "re,im,is_real,block_index\r\n" + _table(
        "".join(map(_SPECTRUM_ROWS.__getitem__, second.tolist())),
        [list(map(re_text.__getitem__, source)), list(map(im_text.__getitem__, source)),
         list(map(("false", "true").__getitem__, rep.real_in_band_mask().tolist())),
         [""] * len(z) if block_index is None else block_index.tolist()])


def write_spectrum_csv(path: str, rep: SpectrumReport, block_index: np.ndarray | None = None):
    """spectrum_*.csv: columns re, im, is_real (in band), block_index."""
    _write_text(path, _spectrum_csv_text(rep, block_index))


def write_gap_csv(path: str, gap: GapReport):
    """gap.csv: columns n, lambda_n, ratio."""
    _write_text(path, "n,lambda_n,ratio\r\n" + _table(
        "%d,%r,%r\r\n" * len(gap.jump_n),
        [gap.jump_n.tolist(), gap.jump_lambda.tolist(), gap.jump_ratio.tolist()]))


def _symlog(x: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.log10(1.0 + np.abs(x))


def _write_spectrum_svg(path: str, rep0: SpectrumReport, rep1: SpectrumReport):
    """Standalone scatter of both spectra; the real axis is highlighted.

    The horizontal axis is sign(Re)*log10(1+|Re|) so the spread-out negative
    branch and the origin region are both visible without a plotting library.
    """
    width, height, margin = 900, 480, 50
    xs = _symlog(np.concatenate([rep0.eigenvalues.real, rep1.eigenvalues.real]))
    ys = np.concatenate([rep0.eigenvalues.imag, rep1.eigenvalues.imag])
    x_lo, x_hi = float(xs.min()) - 0.3, float(xs.max()) + 0.3
    y_pad = 0.1 * max(float(np.abs(ys).max()), 1e-3)
    y_lo, y_hi = float(ys.min()) - y_pad, float(ys.max()) + y_pad

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{py(0.0):.2f}" x2="{width - margin}" '
        f'y2="{py(0.0):.2f}" stroke="#d62728" stroke-width="2" opacity="0.8"/>',
        f'<text x="{width - margin}" y="{py(0.0) - 6:.2f}" text-anchor="end" '
        f'font-size="12" fill="#d62728">Im = 0 (real axis)</text>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="#444" stroke-width="1"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="#444" stroke-width="1"/>',
        f'<text x="{width / 2}" y="{height - 12}" text-anchor="middle" font-size="12" '
        f'fill="#444">sign(Re) * log10(1 + |Re|)</text>',
        f'<text x="14" y="{height / 2}" font-size="12" fill="#444" '
        f'transform="rotate(-90 14 {height / 2})" text-anchor="middle">Im</text>',
    ]
    for rep, color in ((rep0, "#1f77b4"), (rep1, "#ff7f0e")):
        xy = np.column_stack((px(_symlog(rep.eigenvalues.real)), py(rep.eigenvalues.imag)))
        parts.append("\n".join([f'<circle cx="%.2f" cy="%.2f" r="3" fill="{color}" '
                                 'opacity="0.7"/>'] * len(xy)) % tuple(xy.ravel().tolist()))
    parts.append(f'<circle cx="{width - 190}" cy="24" r="4" fill="#1f77b4"/>')
    parts.append(f'<text x="{width - 180}" y="28" font-size="12">spectrum at u0</text>')
    parts.append(f'<circle cx="{width - 190}" cy="44" r="4" fill="#ff7f0e"/>')
    parts.append(f'<text x="{width - 180}" y="48" font-size="12">spectrum at u1</text>')
    parts.append("</svg>")
    _write_text(path, "\n".join(parts))


def emit_reports(report: VerdictReport, outdir: str) -> dict:
    """Write verdict.json, both spectrum CSVs, the SVG and gap.csv, each value formatted once."""
    os.makedirs(outdir, exist_ok=True)
    paths = {
        "verdict": os.path.join(outdir, "verdict.json"),
        "spectrum_u0": os.path.join(outdir, "spectrum_u0.csv"),
        "spectrum_u1": os.path.join(outdir, "spectrum_u1.csv"),
        "svg": os.path.join(outdir, "spectrum.svg"),
        "gap": os.path.join(outdir, "gap.csv"),
    }
    texts = report.spectrum_csv_texts()
    try:
        write_json(paths["verdict"], report.to_dict(texts))
        _write_text(paths["spectrum_u0"], texts[0])
        _write_text(paths["spectrum_u1"], texts[1])
        _write_spectrum_svg(paths["svg"], report.spectrum_u0, report.spectrum_u1)
        write_gap_csv(paths["gap"], report.gap_summary)
    except OSError as exc:
        raise OSError(f"failed writing reports under {outdir!r}: {exc}") from exc
    return paths


def reports_equal(d1: dict, d2: dict) -> bool:
    """Equality of two verdict.json dicts, ignoring the timestamp field."""
    a = {k: v for k, v in d1.items() if k != "timestamp"}
    b = {k: v for k, v in d2.items() if k != "timestamp"}
    return a == b
