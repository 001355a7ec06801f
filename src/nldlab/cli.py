"""Command-line interface.

Subcommands: verify (full pipeline), spectrum, simulate, gap-check, scan-eps0,
probe-dissipativity. A JSON config file (--config) may set any RunConfig key;
each subcommand has a flag for exactly the keys it reads (any other flag is a
usage error), and an explicit flag overrides the file value. simulate and
probe-dissipativity integrate to T_final (--t-final). Exit codes: 0 for
OBSTRUCTED or plain success of the requested computation, 2 for INCONCLUSIVE
(including NOT_OBSTRUCTED, which is not a gate success), 1 for errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from .basis import random_state
from .semiflow import dissipativity_probe, integrate
from .spectra import (eps0_threshold_scan, gap_check, match_blocks_u0, stationary_spectrum,
                      stationary_state)
from .verdict import (CONFIG_KEYS, INCONCLUSIVE, NOT_OBSTRUCTED, OBSTRUCTED, RunConfig,
                      emit_reports, run_verify, write_csv, write_gap_csv, write_json,
                      write_spectrum_csv)

__all__ = ["main", "build_parser", "parse_seed_spec"]

# the flag and type of each RunConfig key a subcommand can read
_CONFIG_FLAGS = {"N": ("--N", int), "kappa": ("--kappa", float), "eps0": ("--eps0", float),
                 "rho": ("--rho", float), "theta": ("--theta", float), "dt": ("--dt", float),
                 "T_final": ("--t-final", float), "tol_im": ("--tol-im", float),
                 "tol_re": ("--tol-re", float), "outdir": ("--outdir", str)}


def _add_config_flags(p: argparse.ArgumentParser, keys: str):
    """One flag for each of the space-separated RunConfig keys."""
    for key in keys.split():
        flag, kind = _CONFIG_FLAGS[key]
        p.add_argument(flag, dest=key, type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nldlab",
        description="Spectral verification laboratory for a nonlocal-diffusion "
                    "parabolic equation on the circle")
    parser.add_argument("--config", help="JSON config file (flat keys)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="full stationarity/spectrum/parity pipeline")
    _add_config_flags(p_verify, "N kappa eps0 rho theta tol_im tol_re outdir")

    p_spec = sub.add_parser("spectrum", help="classified spectrum at one stationary point")
    p_spec.add_argument("--at", choices=("u0", "u1"), required=True)
    _add_config_flags(p_spec, "N kappa eps0 rho tol_im tol_re outdir")

    p_sim = sub.add_parser("simulate", help="integrate one initial state to T_final")
    p_sim.add_argument("--seed-spec", required=True,
                       help="u0 | u1 | u1+const:<amp> | random:<int>[:<theta-norm>]")
    _add_config_flags(p_sim, "N kappa eps0 rho theta dt T_final outdir")

    p_gap = sub.add_parser("gap-check", help="spectral gap/sparseness quotients of A")
    p_gap.add_argument("--theta", type=float, default=0.5)
    p_gap.add_argument("--nmax", type=int, default=10000)
    _add_config_flags(p_gap, "outdir")

    p_scan = sub.add_parser("scan-eps0", help="real-eigenvalue count across couplings")
    p_scan.add_argument("--list", dest="eps0_list", required=True,
                        help="comma-separated eps0 values in (0, 1)")
    _add_config_flags(p_scan, "N kappa rho tol_im tol_re outdir")

    p_probe = sub.add_parser("probe-dissipativity",
                             help="multi-seed tail-norm probe to T_final")
    p_probe.add_argument("--r-in", dest="r_in", type=float, default=10.0)
    p_probe.add_argument("--C", type=float, default=1.0)
    p_probe.add_argument("--delta", type=float)
    _add_config_flags(p_probe, "N kappa eps0 rho theta dt T_final outdir")
    return parser


def parse_seed_spec(spec: str, config: RunConfig) -> np.ndarray:
    """Initial-state grammar shared by simulate and the docs."""
    layout = config.model_params().layout
    if spec in ("u0", "u1"):
        return stationary_state(spec, layout)
    if spec.startswith("u1+const:"):
        return (1.0 + float(spec.split(":", 1)[1])) * stationary_state("u1", layout)
    if spec.startswith("random:"):
        parts = spec.split(":")
        seed = int(parts[1])
        norm = float(parts[2]) if len(parts) > 2 else 10.0
        return random_state(layout, seed, config.theta, norm)
    raise ValueError(f"unrecognized seed-spec {spec!r}")


def _load_config(args) -> RunConfig:
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    return config.with_overrides(**{k: getattr(args, k, None) for k in CONFIG_KEYS})


def _cmd_verify(args) -> int:
    config = _load_config(args)
    report = run_verify(config)
    paths = emit_reports(report, config.outdir)
    st = report.stationarity
    print(f"stationarity: residual(u0)={st['residual_u0']:.3e} "
          f"residual(u1)={st['residual_u1']:.3e} (tol {st['tol']:.1e})")
    print(f"spectrum u0: {len(report.spectrum_u0.eigenvalues)} eigenvalues, "
          f"block match distance "
          f"{report.e_membership['u0']['block_match_distance']:.3e}")
    print(f"spectrum u1: in-band reals {report.spectrum_u1.real_eigs_in_band.tolist()}")
    print(f"e-membership: u0={report.e_membership['u0']['ok']} "
          f"u1={report.e_membership['u1']['ok']}")
    print(f"l(u0)={report.l_values[0]} l(u1)={report.l_values[1]} "
          f"parity={report.parity}")
    if report.failed_stage:
        print(f"failed stage: {report.failed_stage}")
    print(f"verdict: {report.verdict}")
    print(f"reports written to {os.path.abspath(config.outdir)}")
    return {OBSTRUCTED: 0, NOT_OBSTRUCTED: 2, INCONCLUSIVE: 2}[report.verdict]


def _cmd_spectrum(args) -> int:
    config = _load_config(args)
    params = config.model_params()
    rep = stationary_spectrum(args.at, params, config.tol_im, config.tol_re)
    block_index = None
    if args.at == "u0":
        _, block_index = match_blocks_u0(rep.eigenvalues, params.eps, params.layout.N)
    for z, real in zip(rep.eigenvalues, rep.real_in_band_mask()):
        print(f"{z.real:+.12e} {z.imag:+.12e} {'real' if real else 'nonreal'}")
    print(f"{len(rep.eigenvalues)} eigenvalues at N={params.layout.N}; "
          f"in-band real count {len(rep.real_eigs_in_band)}, "
          f"l_in_band={rep.l_count_in_band}")
    os.makedirs(config.outdir, exist_ok=True)
    path = os.path.join(config.outdir, f"spectrum_{args.at}.csv")
    write_spectrum_csv(path, rep, block_index)
    print(f"wrote {path}")
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args)
    params = config.model_params()
    u0 = parse_seed_spec(args.seed_spec, config)
    traj = integrate(u0, params)
    os.makedirs(config.outdir, exist_ok=True)
    path = os.path.join(config.outdir, "trajectory.csv")
    write_csv(path, ["t", "theta_norm"],
              ([repr(float(t)), repr(float(nv))]
               for t, nv in zip(traj.times, traj.theta_norm_history)))
    print(f"integrated {args.seed_spec} to t={traj.times[-1]:g}; "
          f"final theta-norm {traj.theta_norm_history[-1]:.6g}")
    print(f"wrote {path}")
    return 0


def _cmd_gap_check(args) -> int:
    outdir = _load_config(args).outdir
    report = gap_check(args.theta, args.nmax)
    crossing = np.argmax(report.running_max_gap > 100.0)
    crossed = bool(report.running_max_gap[-1] > 100.0)
    print(f"theta={report.theta}: max ratio {report.sup_estimate:.6f} "
          f"over n <= {report.n_max}")
    print(f"raw gap 2n+1: running max {report.running_max_gap[-1]:g}"
          + (f", exceeds 100 from n={int(report.jump_n[crossing])}" if crossed else ""))
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "gap.csv")
    write_gap_csv(path, report)
    print(f"wrote {path}")
    return 0


def _cmd_scan_eps0(args) -> int:
    config = _load_config(args)
    values = [float(tok) for tok in args.eps0_list.split(",") if tok.strip()]
    scan = eps0_threshold_scan(config.model_params(), values,
                               config.tol_im, config.tol_re)
    print("eps0      reals_in_band  l_in_band  anchor")
    for row in scan.rows:
        anchor = "-" if row["anchor"] is None else f"{row['anchor']:.10f}"
        print(f"{row['eps0']:<9g} {row['real_count_in_band']:<14d} "
              f"{row['l_count_in_band']:<10d} {anchor}")
    if scan.largest_single is not None:
        print(f"largest eps0 with a single real eigenvalue: {scan.largest_single:g}")
    os.makedirs(config.outdir, exist_ok=True)
    path = os.path.join(config.outdir, "eps0_scan.csv")
    write_csv(path, ["eps0", "real_count_in_band", "l_count_in_band", "anchor"],
              ([row["eps0"], row["real_count_in_band"], row["l_count_in_band"],
                "" if row["anchor"] is None else repr(row["anchor"])] for row in scan.rows))
    print(f"wrote {path}")
    return 0


def _cmd_probe(args) -> int:
    config = _load_config(args)
    params = config.model_params()
    seeds = [(f"random:{s}", random_state(params.layout, s, config.theta, args.r_in))
             for s in config.seeds]
    report = dissipativity_probe(seeds, params, R_in=args.r_in, C=args.C, delta=args.delta)
    for label, tail, entered in zip(report.seed_labels, report.tail_norms,
                                    report.entered):
        status = "failed" if label in report.failed else f"tail={tail:.6g} entered={entered}"
        print(f"seed {label}: {status}")
    print(f"a_emp={report.a_emp:.6g} a_formula={report.a_formula:.6g} "
          f"(M_scan={report.M_scan:.6g}, C={report.C}, delta={report.delta})")
    os.makedirs(config.outdir, exist_ok=True)
    path = os.path.join(config.outdir, "dissipativity.json")
    write_json(path, asdict(report))
    print(f"wrote {path}")
    # a seed enters only with a finite tail, so a failed or unmeasured seed fails the probe
    return 0 if all(report.entered) else 2


_COMMANDS = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "simulate": _cmd_simulate,
    "gap-check": _cmd_gap_check,
    "scan-eps0": _cmd_scan_eps0,
    "probe-dissipativity": _cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, RuntimeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
