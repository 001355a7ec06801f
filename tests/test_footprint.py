"""What a fresh process pays for nldlab: the modules it loads, the pages its
march faults, the memory verify holds and what the probe's one-off scans allocate. Each check runs in its own
interpreter, so that nothing the test session imported (scipy among it) hides
the cost. And what the package holds: no definition that only the tests read."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "bench"
# Unreferenced but kept: the run trace's integrator health is to report it (ROADMAP item 7).
UNREFERENCED_ALLOWED = {"analysis_residual"}


def run_fresh(code: str) -> dict:
    """Run code in a new interpreter with nldlab importable; return the JSON
    object it prints last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_pipeline_loads_neither_scipy_nor_numpy_ma(tmp_path):
    # nor hashlib, before the probe's seeds are drawn or after the probe:
    # OpenSSL's _hashlib adds about 3 MB to a fresh process, and numpy.random,
    # which would bring it through secrets, about 6 MB
    result = run_fresh(f"""
import json, sys
import nldlab
from nldlab import BasisLayout, ModelParams, RunConfig, random_state
HEAVY = ("numpy.random", "secrets", "hashlib", "_hashlib")
params = ModelParams(BasisLayout(16))
report = nldlab.run_verify(RunConfig(N=16))
nldlab.emit_reports(report, {str(tmp_path)!r})
before_seeds = sorted(m for m in sys.modules if m in HEAVY)
seeds = [(s, random_state(params.layout, s, params.theta, 10.0)) for s in range(3)]
probe = nldlab.dissipativity_probe(seeds, params, T=0.1)
print(json.dumps({{"verdict": report.verdict, "failed": probe.failed, "before_seeds": before_seeds,
                  "after_probe": sorted(m for m in sys.modules if m in HEAVY),
                  "loaded": sorted(m for m in sys.modules
                                   if m.split(".")[0] == "scipy"
                                   or m.split(".")[:2] == ["numpy", "ma"])}}))
""")
    assert result["verdict"] == "OBSTRUCTED" and result["failed"] == []
    assert result["loaded"] == []
    assert result["before_seeds"] == [] and result["after_probe"] == []


def test_l2_bound_scan_allocates_under_one_mb():
    # one (2, 161, 161) grid with f's six work arrays peaked at 3.1 MB
    result = run_fresh("""
import json, tracemalloc
from nldlab import RunConfig
from nldlab.semiflow import nonlinearity_l2_bound
params = RunConfig(N=1024, dt=5e-4).model_params()
tracemalloc.start()
bound = nonlinearity_l2_bound(params)
print(json.dumps({"bound": bound, "peak_mb": tracemalloc.get_traced_memory()[1] / 1e6}))
""")
    assert result["bound"] > 0.0
    assert result["peak_mb"] <= 1.0


def test_sup_abs_w_scan_allocates_under_half_an_mb():
    # the 40 001 points at once peaked at 1.52 MB; sliced, most of the peak is the
    # 0.32 MB linspace itself
    result = run_fresh("""
import json, tracemalloc
from nldlab.cutoffs import sup_abs_w
tracemalloc.start()
value = sup_abs_w()
print(json.dumps({"value": value, "peak_mb": tracemalloc.get_traced_memory()[1] / 1e6}))
""")
    assert result["value"] > 1.0
    assert result["peak_mb"] <= 0.5


def test_block_march_faults_no_pages_per_step():
    pytest.importorskip("resource")
    result = run_fresh("""
import json, resource
import numpy as np
from nldlab import BasisLayout, ModelParams, random_state
from nldlab.semiflow import _imex_step
params = ModelParams(BasisLayout(1024), dt=5e-4)
C = np.array([random_state(params.layout, s, params.theta, 10.0) for s in range(3)])
step = _imex_step(params)
C = step(C)   # warm-up: allocates the buffers of this block height
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    C = step(C)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps({"faults_per_step": faults / 50, "finite": bool(np.isfinite(C).all())}))
""")
    assert result["finite"]
    assert result["faults_per_step"] <= 5.0


def test_warm_block_step_allocates_little_beyond_its_result():
    # the new state is one block; the step's buffers, sin x and masks are
    # reused, so the rest of the peak is small temporaries
    result = run_fresh("""
import json, tracemalloc
import numpy as np
from nldlab import BasisLayout, ModelParams, random_state
from nldlab.semiflow import _imex_step
params = ModelParams(BasisLayout(1024), dt=5e-4)
C = np.array([random_state(params.layout, s, params.theta, 10.0) for s in range(3)])
step = _imex_step(params)
C = step(C)   # warm-up: allocates the buffers of this block height
tracemalloc.start()
C = step(C)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({"ratio": peak / C.nbytes, "finite": bool(np.isfinite(C).all())}))
""")
    assert result["finite"]
    assert result["ratio"] <= 2.5


def test_verify_holds_no_dense_linearization():
    # a dense T(u1) at 2N = 2048 alone is 134 MB; the banded verify path holds
    # a few MB, so this fails if a dim x dim matrix comes back
    result = run_fresh("""
import json, tracemalloc
from nldlab import RunConfig, run_verify
tracemalloc.start()
report = run_verify(RunConfig(N=1024, rho=0.7))
print(json.dumps({"verdict": report.verdict,
                  "peak_mb": tracemalloc.get_traced_memory()[1] / 1e6}))
""")
    assert result["verdict"] == "OBSTRUCTED"
    assert result["peak_mb"] <= 60.0


def test_every_package_definition_is_referenced():
    # a function, class or method of src/nldlab that no Name or Attribute in
    # src/nldlab or bench/ names, and no string constant in bench/ (the tracer
    # names methods by string), is read only by the tests: it belongs in
    # tests/oracles.py. Names are matched; calls are not followed.
    defined, used = {}, set()
    for path in sorted((SRC / "nldlab").glob("*.py")) + sorted(BENCH.glob("*.py")):
        in_bench = path.parent == BENCH
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not (in_bench or dunder):
                    defined.setdefault(node.name, path.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif in_bench and isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
    unreferenced = {name: where for name, where in defined.items() if name not in used}
    assert set(unreferenced) == UNREFERENCED_ALLOWED, unreferenced
