"""Benchmark of the nldlab pipeline: two workloads, timed end to end and per layer.

    python3 bench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each is there):
  verify-N256   run_verify + emit_reports at RunConfig defaults, N = 256
  probe-N1024   dissipativity_probe, 3 random seeds, N = 1024, dt = 5e-4, T = 0.03

Every operation runs in a workload process started by this script (see
worker.py), a closed loop of one client: the next operation starts when the
previous one has been checked. With --trace 0 the last line of output holds
the end-to-end metrics:
  setup_s       median over fresh processes of the time from spawn to
                `import nldlab` done and inputs built
  cold_s        median over fresh processes of the first operation
  wall_s        median seconds per warm operation
  peak_rss_mb   median over workload processes of the peak resident set
With --trace 1 it holds the per-layer metrics of PER_LAYER: call counts and
self times of the traced layer functions per warm operation, exact counts,
and the tracing overhead (traced minus untraced median wall time, both taken
in that run). The line before the last one records the inputs, the
environment, every sample and every failed check.

Operations whose check fails count in `failed`; `failed / attempted` is the
failure fraction. The exact counts (calls and counts) must repeat across
every traced operation, or the run is not correct.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS
from worker import monotonic

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_LIMIT_S = 170.0        # the whole run must end within 180 s
SETUP_SAMPLES = 9          # fresh processes timed for setup_s, workload processes included

# "children" is the number of workload processes, so the number of cold_s
# samples; each splits the run's seconds with the others. Each runs at least
# two operations; the counts keep a run near 55 s even when operations take
# 1.7x their usual time, as on a 2-vCPU VM whose host is loaded by neighbours.
WORKLOADS = {
    "verify-N256": {"kind": "verify", "config": {"N": 256}, "children": 5},
    "probe-N1024": {"kind": "probe", "config": {"N": 1024, "dt": 5e-4}, "T": 0.03,
                    "n_seeds": 3, "children": 5},
}
# The criterion-10 probe at N = 128; timed once by criterion10.py, not a workload.
CRITERION_10_PROBE = {"kind": "probe", "config": {"N": 128, "dt": 1e-3}, "T": 50.0,
                      "seeds": list(range(10))}

END_TO_END = {"setup_s": "s", "cold_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Counts the tracer reads from results; every other ".calls" is a call count,
# every ".self_s" a self time (summed over a layer when the prefix is one) and
# every ".total_s" a time including child spans.
COUNTS = ("spectra.eigenvalues.max_dim", "semiflow.seed_steps", "semiflow.failed_seeds",
          "basis.dense_transform_bytes", "verdict.report_bytes")
PER_LAYER = {
    "spectra.eigenvalues.calls": "count",
    "spectra.eigenvalues.self_s": "s",
    "spectra.eigenvalues.max_dim": "count",
    "spectra.assemble_T.calls": "count",
    "spectra.assemble_T.self_s": "s",
    "spectra.convergence_study.self_s": "s",
    "spectra.convergence_study.total_s": "s",
    "spectra.match_blocks_u0.self_s": "s",
    "spectra.classify_and_count.calls": "count",
    "basis.synthesis_matrix.calls": "count",
    "basis.synthesis_matrix.self_s": "s",
    "basis.theta_norm.calls": "count",
    "basis.theta_norm.self_s": "s",
    "basis.dense_transform_bytes": "bytes-computed",
    "model.f.calls": "count",
    "model.f.self_s": "s",
    "model.f.total_s": "s",
    "model.evaluate_F.self_s": "s",
    "cutoffs.chi.calls": "count",
    "cutoffs.psi.calls": "count",
    "semiflow.integrate.self_s": "s",
    "semiflow.seed_steps": "count",
    "semiflow.seed_steps_per_s": "1/s",
    "semiflow.nonlinearity_l2_bound.self_s": "s",
    "semiflow.nonlinearity_l2_bound.total_s": "s",
    "semiflow.failed_seeds": "count",
    "operators.assemble.calls": "count",
    "operators.assemble.self_s": "s",
    "verdict.run_verify.self_s": "s",
    "verdict.emit_reports.self_s": "s",
    "verdict.report_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def workload_inputs(name: str, seed: int, workloads: dict = WORKLOADS) -> dict:
    """The spec sent to the workload processes; probe seeds follow from `seed`."""
    spec = dict(workloads[name], name=name)
    n_seeds = spec.pop("n_seeds", 0)
    spec["seeds"] = [seed * n_seeds + i for i in range(n_seeds)]
    return spec


def spawn(spec: dict, mode: str, deadline: float, trace: bool, run_end: float) -> dict:
    """Run one workload process to completion and return its result with its spawn time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), json.dumps(spec), mode,
           repr(deadline), "1" if trace else "0"]
    timeout = run_end - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a workload process")
    spawned = monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return dict(json.loads(lines[-1]), spawned=spawned)


def tail_percentile(samples: list) -> dict | None:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0):
        if n * (1.0 - p / 100.0) >= 10:
            rank = math.ceil(p / 100.0 * n) - 1
            return {"p": p, "value": sorted(samples)[rank]}
    return None


def layer_values(layers: dict) -> dict:
    """Per-layer metric values of one traced operation (trace.* and rates excluded)."""
    calls, self_s, counts = layers["calls"], layers["self_s"], layers["counts"]
    total_s = layers["total_s"]
    values = {}
    for name in PER_LAYER:
        prefix, _, field = name.rpartition(".")
        if name in COUNTS:
            values[name] = counts.get(name, 0)
        elif field == "calls":
            values[name] = calls.get(prefix, 0)
        elif field == "self_s" and prefix in LAYERS:
            values[name] = sum(v for k, v in self_s.items() if k.startswith(prefix + "."))
        elif field == "self_s":
            values[name] = self_s.get(prefix, 0.0)
        elif field == "total_s":
            values[name] = total_s.get(prefix, 0.0)
    return values


def git_commit() -> str | None:
    """HEAD of the git checkout rooted at ROOT, or None when ROOT is not one."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run(name: str, seed: int, seconds: float, trace: bool,
        workloads: dict = WORKLOADS) -> tuple[dict, dict]:
    """Run one workload; return (details, result) as printed."""
    start = monotonic()
    run_end = start + RUN_LIMIT_S
    spec = workload_inputs(name, seed, workloads)
    n_children = spec["children"]
    setups = []
    if not trace:
        for _ in range(max(0, SETUP_SAMPLES - n_children)):
            out = spawn(spec, "setup", 0.0, False, run_end)
            setups.append(out["ready"] - out["spawned"])
    t1 = monotonic()
    measure_end = max(start + seconds, t1)
    children = []
    for i in range(n_children):
        deadline = t1 + (measure_end - t1) * (i + 1) / n_children
        out = spawn(spec, "run", deadline, trace, run_end)
        setups.append(out["ready"] - out["spawned"])
        children.append(out)

    ops = [op for child in children for op in child["ops"]]
    cold = [child["ops"][0]["s"] for child in children]
    warm = [op for child in children for op in child["ops"][1:]]
    untraced = [op["s"] for op in warm if not op["traced"]]
    problems = [p for op in ops for p in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])

    if trace:
        traced = [op for op in warm if op["traced"]]
        per_op = [layer_values(op["layers"]) for op in traced]
        metrics, inexact = {}, []
        for metric in per_op[0]:
            column = [values[metric] for values in per_op]
            if metric.endswith("_s"):
                metrics[metric] = statistics.median(column)
            else:
                metrics[metric] = column[0]
                if any(v != column[0] for v in column):
                    inexact.append(metric)
        traced_wall = statistics.median(op["s"] for op in traced)
        untraced_wall = statistics.median(untraced)
        metrics["semiflow.seed_steps_per_s"] = metrics["semiflow.seed_steps"] / untraced_wall
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.untraced_wall_s"] = untraced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        problems += [f"count {m} differs between traced operations" for m in inexact]
        units = PER_LAYER
        correct = failed == 0 and not inexact
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "cold_s": statistics.median(cold),
            "wall_s": statistics.median(untraced),
            "peak_rss_mb": statistics.median(child["rss_mb"] for child in children),
        }
        units = END_TO_END
        correct = failed == 0

    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "inputs": spec,
        "commit": git_commit(),
        "env": children[0]["env"],
        "samples": {"setup_s": setups, "cold_s": cold, "wall_s": untraced,
                    "traced_wall_s": [op["s"] for op in warm if op["traced"]]},
        "wall_s_tail": tail_percentile(untraced),
        "failed_frac": failed / len(ops),
        "problems": problems,
        "elapsed_s": monotonic() - start,
    }
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items()}}
    return details, result


def main(argv=None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads) + ["all"],
                        help="a workload, or `all` to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "nldlab" / "__init__.py").is_file():
        print(f"error: no nldlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            details, result = run(name, args.seed, args.seconds, bool(args.trace), workloads)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(details))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
