"""One workload process: set up, run the operation cold, then warm until a deadline.

    python3 bench/worker.py <spec-json> <setup|run> <deadline> <trace 0|1>

`deadline` is an absolute CLOCK_MONOTONIC time (shared by every process on
Linux), so the parent can time set-up from the moment it spawned this
process to the moment reported as `ready`. In `setup` mode the process exits
right after set-up. In `run` mode the first operation is the cold one; warm
operations follow while the next one is expected to finish before the
deadline, at least one (two when tracing, one traced and one not). Every
result is checked; the process prints one JSON object as its last line.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
R_IN = 10.0                # theta-norm of the probe seeds, as in criterion 10
GROWTH_REL_TOL = 0.1       # criterion 10's tolerance on the fitted rate


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def build(spec: dict, outdir: str):
    """Import nldlab and build the workload's inputs; return (op, check).

    op() runs one operation through module attributes, so a tracer's
    rebinding applies; check(result) returns a list of problems.
    """
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import numpy as np
    from nldlab import basis, semiflow, verdict

    config = verdict.RunConfig(**spec["config"], outdir=outdir)
    kind = spec["kind"]
    if kind == "verify":
        first_written = []

        def op():
            report = verdict.run_verify(config)
            verdict.emit_reports(report, config.outdir)
            return report

        def check(report):
            problems = []
            if report.verdict != verdict.OBSTRUCTED:
                problems.append(f"verdict {report.verdict}, failed stage {report.failed_stage}")
            if tuple(report.l_values) != (0, 1):
                problems.append(f"l_values {tuple(report.l_values)}")
            dist = report.e_membership["u0"]["block_match_distance"]
            if not dist <= verdict.BLOCK_MATCH_TOL:
                problems.append(f"block match distance {dist!r}")
            reals = report.spectrum_u1.real_eigs_in_band
            if not np.any(np.abs(reals - config.eps0) <= verdict.ANCHOR_TOL):
                problems.append(f"no u1 anchor within {verdict.ANCHOR_TOL} of eps0 in {reals}")
            with open(os.path.join(config.outdir, "verdict.json"), encoding="utf-8") as fh:
                written = json.load(fh)
            if not first_written:
                first_written.append(written)
            elif not verdict.reports_equal(first_written[0], written):
                problems.append("verdict.json differs from this process's first one")
            return problems

        return op, check

    params = config.model_params()
    if kind == "probe":
        seeds = [(f"random:{s}", basis.random_state(params.layout, s, params.theta, R_IN))
                 for s in spec["seeds"]]

        def op():
            return semiflow.dissipativity_probe(seeds, params, T=spec["T"], R_in=R_IN)

        def check(report):
            problems = [f"seed {label} failed" for label in report.failed]
            problems += [f"seed {label} tail {tail!r} not finite or above a_formula "
                         f"{report.a_formula!r}"
                         for label, tail in zip(report.seed_labels, report.tail_norms)
                         if not (math.isfinite(tail) and tail <= report.a_formula)]
            return problems

        return op, check

    if kind == "growth":
        eps0 = params.eps.eps0

        def op():
            return semiflow.instability_growth_rate(params)

        def check(rate):
            if abs(rate - eps0) <= GROWTH_REL_TOL * eps0:
                return []
            return [f"growth rate {rate!r} not within {GROWTH_REL_TOL} of eps0 {eps0}"]

        return op, check

    raise ValueError(f"unknown workload kind {kind!r}")


def environment() -> dict:
    """Interpreter, numpy/scipy, BLAS libraries and thread settings of this process."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS loaded here (numpy and scipy bundle their own)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    threads = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads[os.path.basename(lib)] = fn()
                break
    return threads


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    mode, deadline, trace = argv[2], float(argv[3]), argv[4] == "1"
    outdir = ROOT / ".bench_out" / str(os.getpid())
    try:
        op, check = build(spec, str(outdir))
        ready = monotonic()
        if mode == "setup":
            print(json.dumps({"ready": ready}))
            return 0
        tracer = None
        if trace:
            from tracer import Tracer
            tracer = Tracer()
        ops = []

        def run(traced: bool):
            if traced:
                tracer.enable()
            t0 = time.perf_counter()
            try:
                out, error = op(), None
            except Exception as exc:  # an operation that raises counts as failed
                out, error = None, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.disable()
            problems = [error] if error else check(out)
            ops.append({"s": elapsed, "traced": traced, "problems": problems,
                        "layers": tracer.snapshot() if traced else None})
            return elapsed

        last = run(False)
        min_warm = 2 if trace else 1
        warm = 0
        while warm < min_warm or monotonic() + last <= deadline:
            last = run(trace and warm % 2 == 0)
            warm += 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        print(json.dumps({"ready": ready, "ops": ops, "rss_mb": rss_mb,
                          "env": environment()}))
        return 0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
