"""The benchmark under bench/ drives the library through its public names.

These checks keep that contract when the library changes: the tracer must find
every name each layer exports and the dense-transform oracle methods of
BasisLayout, and `bench/worker.build` must still set up workloads whose
operations pass their checks at small sizes.
"""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    """bench/tracer.py and bench/worker.py, imported as the benchmark imports them."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer"), importlib.import_module("worker")


def test_tracer_wraps_every_exported_name(bench):
    t = bench[0].Tracer()   # fails on an exported name or oracle method that is gone
    wrapped = {(getattr(owner, "__name__", None), attr) for owner, attr, _, _ in t._originals}
    assert ("BasisLayout", "synthesis_matrix") in wrapped
    assert ("BasisLayout", "analysis_matrix") in wrapped


@pytest.mark.parametrize("spec", [
    {"kind": "verify", "config": {"N": 16}},
    {"kind": "probe", "config": {"N": 16, "dt": 1e-3}, "T": 0.01, "seeds": [0, 1, 2]},
], ids=["verify", "probe"])
def test_workload_operations_pass_their_checks(bench, spec, tmp_path):
    tracer, worker = bench
    op, check = worker.build(spec, str(tmp_path / "out"))
    assert check(op()) == []
    t = tracer.Tracer()
    t.enable()
    try:
        traced = op()
    finally:
        t.disable()
    assert check(traced) == []
    assert t.snapshot()["calls"]


def test_traced_verify_counts_its_eigensolves(bench, tmp_path):
    # the per-layer spectra metrics count calls of `spectra.eigenvalues`, not
    # LAPACK solves: u0 at N and at 2N, each read off its pair blocks with no
    # solve, and u1 at N, solved on its windows (the 2N count of u1 comes from
    # Gershgorin discs); max_dim is the length of the largest spectrum it
    # returns, 2(2N) + 2 = 66 at N = 16, that of u0 at 2N
    tracer, worker = bench
    op, _ = worker.build({"kind": "verify", "config": {"N": 16}}, str(tmp_path / "out"))
    t = tracer.Tracer()
    t.enable()
    try:
        op()
    finally:
        t.disable()
    snap = t.snapshot()
    assert snap["calls"]["spectra.eigenvalues"] == 3
    assert snap["counts"]["spectra.eigenvalues.max_dim"] == 66
