"""What a fresh process pays for nldlab: the modules it loads, the pages its
march faults and the memory verify holds. Each check runs in its own
interpreter, so that nothing the test session imported (scipy among it) hides
the cost."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> dict:
    """Run code in a new interpreter with nldlab importable; return the JSON
    object it prints last."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_pipeline_loads_neither_scipy_nor_numpy_ma(tmp_path):
    # nor does verify with its reports load hashlib: OpenSSL's _hashlib adds
    # about 3 MB to a fresh process (the probe's random seeds load it through
    # numpy.random's use of secrets)
    result = run_fresh(f"""
import json, sys
import nldlab
from nldlab import BasisLayout, ModelParams, RunConfig, random_state
params = ModelParams(BasisLayout(16))
report = nldlab.run_verify(RunConfig(N=16))
nldlab.emit_reports(report, {str(tmp_path)!r})
hashing = sorted(m for m in sys.modules if m in ("hashlib", "_hashlib"))
seeds = [(s, random_state(params.layout, s, params.theta, 10.0)) for s in range(3)]
probe = nldlab.dissipativity_probe(seeds, params, T=0.1)
print(json.dumps({{"verdict": report.verdict, "failed": probe.failed, "hashing": hashing,
                  "loaded": sorted(m for m in sys.modules
                                   if m.split(".")[0] == "scipy"
                                   or m.split(".")[:2] == ["numpy", "ma"])}}))
""")
    assert result["verdict"] == "OBSTRUCTED" and result["failed"] == []
    assert result["loaded"] == [] and result["hashing"] == []


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
