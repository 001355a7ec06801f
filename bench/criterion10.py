"""Time the full criterion-10 run once with the benchmark's workload code.

    python3 bench/criterion10.py

The probe of tests/test_acceptance.py::test_criterion_10_empirical_dissipativity:
random seeds 0..9 of theta-norm 10 at N = 128, dt = 1e-3 and T = 50, then the
instability growth-rate fit at its defaults (N = 128, one trajectory, T = 5).
Both results are checked like the workloads' results. This is a one-off
measurement of the acceptance gate's headroom (300 s), not a repeated
workload; it takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import run
import worker

def timed(name: str, spec: dict, outdir: str) -> dict:
    op, check = worker.build(spec, outdir)
    t0 = time.perf_counter()
    result = op()
    elapsed = time.perf_counter() - t0
    return {"operation": name, "seconds": elapsed, "problems": check(result)}


def main() -> int:
    outdir = run.ROOT / ".bench_out" / "criterion10"
    probe = run.CRITERION_10_PROBE
    growth = {"kind": "growth", "config": {"N": 128}}
    try:
        rows = [timed("probe", probe, str(outdir)), timed("growth", growth, str(outdir))]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps({"inputs": {"probe": probe, "growth": growth}, "results": rows,
                      "total_s": sum(r["seconds"] for r in rows), "commit": run.git_commit(),
                      "env": worker.environment()}))
    return 1 if any(r["problems"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
