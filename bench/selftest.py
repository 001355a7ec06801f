"""Self-test of the benchmark at tiny sizes (about a minute on two cores).

    python3 bench/selftest.py

Checks that:
  - BENCHMARK.json names the workloads and metrics, with units, that run.py has;
  - every end-to-end and per-layer metric is emitted with its unit, with every
    operation correct, on tiny versions of both workloads;
  - the exact counts repeat between two traced runs with different seeds;
  - a wrong verdict counts as a failed operation: at tol_re = 0.06 the
    eps0 = 0.05 eigenvalue of T(u1) no longer counts as unstable, l = (0, 0)
    and the verdict is INCONCLUSIVE;
  - in a directory holding only BENCHMARK.json and the benchmark, run.py exits
    with a nonzero code and prints no result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run

TINY = {
    "verify-N256": {"kind": "verify", "config": {"N": 16}, "children": 2},
    "probe-N1024": {"kind": "probe", "config": {"N": 32, "dt": 5e-4}, "T": 0.005,
                    "n_seeds": 3, "children": 2},
}
WRONG_VERDICT = {"verify-N256": {"kind": "verify", "config": {"N": 16, "tol_re": 0.06},
                                 "children": 2}}
EXACT = ("basis.synthesis_matrix.calls", "spectra.eigenvalues.calls",
         "semiflow.seed_steps", "basis.dense_transform_bytes")


class SelfTestFailure(Exception):
    pass


def expect(condition, detail=""):
    if not condition:
        raise SelfTestFailure(detail)


def bench(workload: str, seed: int, trace: int, workloads: dict = TINY) -> tuple[dict, dict]:
    """Run run.main in this process; return its details and result lines."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                         "--trace", str(trace)], workloads)
    expect(code == 0, f"{workload} trace={trace} exited with {code}")
    lines = out.getvalue().splitlines()
    details, result = json.loads(lines[-2]), json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result))
    return details, result


def check_manifest():
    manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    expect(names == list(run.WORKLOADS) == list(TINY), names)
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in manifest[key]}
        expect(declared == units, (key, set(declared) ^ set(units)))


def check_metrics() -> dict:
    """Run every tiny workload with and without tracing; return the traced metrics."""
    traced = {}
    for workload in TINY:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            details, result = bench(workload, 1, trace)
            expect(result["correct"] and result["failed"] == 0, details["problems"])
            expect(result["attempted"] >= 2 * TINY[workload]["children"])
            metrics = result["metrics"]
            expect(list(metrics) == list(units), set(metrics) ^ set(units))
            for name, unit in units.items():
                expect(metrics[name]["unit"] == unit, name)
                expect(isinstance(metrics[name]["value"], (int, float)), name)
            if trace == 0:
                expect(all(metrics[m]["value"] > 0 for m in units), metrics)
            else:
                traced[workload] = metrics
            print(f"ok  {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{result['attempted']} operations")
    return traced


def check_exact_counts(traced: dict):
    for workload, first in traced.items():
        second = bench(workload, 2, 1)[1]["metrics"]
        for name in EXACT:
            expect(first[name]["value"] == second[name]["value"], (workload, name))
        print(f"ok  {workload}: exact counts repeat across seeds")


def check_wrong_verdict():
    details, result = bench("verify-N256", 1, 0, WRONG_VERDICT)
    expect(not result["correct"])
    expect(result["failed"] == result["attempted"] > 0)
    expect(details["failed_frac"] == 1.0)
    expect(any("verdict INCONCLUSIVE" in p for p in details["problems"]), details["problems"])
    print(f"ok  wrong verdict: {result['failed']}/{result['attempted']} operations failed")


def check_bare_directory():
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{run.BENCH.name}/run.py", "--workload",
                               "probe-N1024", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout))
    print("ok  bare directory: exit code", proc.returncode)


def main() -> int:
    check_manifest()
    check_exact_counts(check_metrics())
    check_wrong_verdict()
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
