"""Verdict pipeline: configuration, staged verification, report emission.

The soundness tests push each tolerance to an unattainable value and require
the verdict to collapse to INCONCLUSIVE. A broken threshold must never flip
the parity to the opposite verdict.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nldlab import (
    INCONCLUSIVE,
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    RunConfig,
    emit_reports,
    reports_equal,
    run_verify,
)

CFG32 = RunConfig(N=32)


@pytest.fixture(scope="module")
def report32():
    return run_verify(CFG32)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.N == 128 and cfg.kappa == 1.25 and cfg.eps0 == 0.05
        assert cfg.theta == 0.875 and cfg.dt == 1e-3 and cfg.T_final == 50.0
        assert cfg.tol_im == 1e-8 and cfg.tol_re == 1e-10
        assert cfg.seeds == tuple(range(10))

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"N": 32, "eps0": 0.1, "seeds": [1, 2, 3]}))
        cfg = RunConfig.from_file(str(path))
        assert cfg.N == 32 and cfg.eps0 == 0.1 and cfg.seeds == (1, 2, 3)
        assert cfg.kappa == 1.25  # untouched default

    def test_unknown_file_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"N": 32, "epsilon_zero": 0.1}))
        with pytest.raises(ValueError, match="epsilon_zero"):
            RunConfig.from_file(str(path))

    def test_overrides_skip_none(self):
        cfg = RunConfig().with_overrides(N=64, eps0=None)
        assert cfg.N == 64 and cfg.eps0 == 0.05
        with pytest.raises(ValueError):
            RunConfig().with_overrides(bogus=1)

    def test_to_dict_covers_every_key(self):
        d = RunConfig().to_dict()
        from nldlab.verdict import CONFIG_KEYS
        assert tuple(d.keys()) == CONFIG_KEYS
        assert d["seeds"] == list(range(10))


class TestPipeline:
    def test_default_configuration_is_obstructed(self, report32):
        assert report32.verdict == OBSTRUCTED
        assert report32.l_values == (0, 1)
        assert report32.parity == 1
        assert report32.failed_stage is None

    def test_stage_evidence(self, report32):
        st = report32.stationarity
        assert st["ok_u0"] and st["ok_u1"]
        assert st["residual_u0"] == 0.0
        assert st["residual_u1"] <= 1e-12
        m = report32.e_membership
        assert m["u0"]["ok"] and m["u1"]["ok"]
        assert m["u0"]["block_match_distance"] < 1e-12
        assert m["u1"]["anchor_eps0_found"]
        assert report32.convergence["anchor_drift_ok"]
        assert not report32.convergence["u0"]["flagged"]
        assert not report32.convergence["u1"]["flagged"]

    def test_parity_arithmetic(self, report32):
        l0, l1 = report32.l_values
        assert report32.parity == (l1 - l0) % 2

    def test_truncation_independence(self, report32):
        big = run_verify(RunConfig(N=128))
        assert big.verdict == report32.verdict == OBSTRUCTED
        assert big.l_values == report32.l_values

    def test_gap_summary_attached(self, report32):
        assert report32.gap_summary.theta == 0.875
        assert report32.gap_summary.n_max == 1024

    def test_determinism(self, report32):
        again = run_verify(CFG32)
        assert reports_equal(report32.to_dict(), again.to_dict())
        a = {k: v for k, v in report32.to_dict().items() if k != "timestamp"}
        b = {k: v for k, v in again.to_dict().items() if k != "timestamp"}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_each_spectrum_is_computed_once(self, monkeypatch):
        # u0 at N and 2N, u1 at N: the N-level spectra are reused from the
        # convergence study instead of being solved a second time, and the 2N
        # count of u1 is certified by Gershgorin discs without an eigensolve
        import nldlab.spectra
        import nldlab.verdict
        sizes = []
        original = nldlab.spectra.eigenvalues

        def counting(m, *args, **kwargs):
            sizes.append((len(m) - 2) // 2)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(nldlab.spectra, "eigenvalues", counting)
        monkeypatch.setattr(nldlab.verdict, "eigenvalues", counting, raising=False)
        run_verify(RunConfig(N=16))
        assert sorted(sizes) == [16, 16, 32]

    def test_evidence_is_recorded(self, report32):
        m = report32.e_membership
        assert m["u0"]["evidence"] == {"kind": "exact_blocks", "margin": 0.05 * 0.5**32}
        evidence = m["u1"]["evidence"]
        assert evidence["kind"] == "gershgorin"
        assert 0 < evidence["margin"] < 1 and evidence["isolation_gap"] > 0
        assert 0 < evidence["anchor_radius"] <= 1e-8
        rows = report32.convergence["u1"]["rows"]
        assert [row["evidence"]["kind"] for row in rows] == ["windows", "gershgorin"]
        assert rows[1]["evidence"] == evidence
        assert report32.convergence["u1"]["pair_checks"][0]["outside_discs"] == 0

    def test_benchmark_config_solves_u1_from_windows(self):
        # the verify-N256 workload: the N-level u1 spectrum comes from windows
        # inside its discs, with no dense eigensolve of T(u1)
        rep = run_verify(RunConfig(N=256))
        assert rep.verdict == OBSTRUCTED and rep.l_values == (0, 1)
        rows = rep.convergence["u1"]["rows"]
        assert [row["evidence"]["kind"] for row in rows] == ["windows", "gershgorin"]
        assert rep.spectrum_u1.max_conjugate_mismatch == 0.0
        assert abs(rep.convergence["anchor_values"][0] - 0.05) <= 1e-12

    def test_no_dense_synthesis_matrix_is_built(self, monkeypatch):
        # assemble_T builds its multipliers from FFT moments; the dense S is
        # only a test oracle
        from nldlab.basis import BasisLayout
        calls = []
        original = BasisLayout.synthesis_matrix

        def counting(self):
            calls.append(self.N)
            return original(self)

        monkeypatch.setattr(BasisLayout, "synthesis_matrix", counting)
        assert run_verify(RunConfig(N=16)).verdict == OBSTRUCTED
        assert calls == []

    def test_no_dense_operator_is_assembled(self, monkeypatch):
        # assemble_T writes Q and K from their mode maps; the dense assembled
        # operators are only a test oracle. Every module reference is counted.
        import sys
        import nldlab.operators
        calls = []
        original = nldlab.operators.assemble

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "nldlab" and getattr(module, "assemble", None) is original:
                monkeypatch.setattr(module, "assemble", counting)
        assert run_verify(RunConfig(N=16)).verdict == OBSTRUCTED
        assert calls == []

    def test_eps_underflow_fails_before_any_spectrum(self, monkeypatch):
        # eps_n = 0.05 * 0.01^n underflows inside the 2N = 200 truncation
        import nldlab.spectra
        solved = []
        original = nldlab.spectra.eigenvalues

        def counting(m, *args, **kwargs):
            solved.append((len(m) - 2) // 2)
            return original(m, *args, **kwargs)

        monkeypatch.setattr(nldlab.spectra, "eigenvalues", counting)
        with pytest.raises(ValueError, match="eps_n underflowed to zero"):
            run_verify(RunConfig(N=100, rho=0.01))
        assert solved == []


class TestSoundness:
    """Each broken threshold must yield INCONCLUSIVE, never a flipped verdict."""

    def test_degenerate_coupling(self):
        rep = run_verify(RunConfig(N=32, eps0=0.0))
        assert rep.verdict == INCONCLUSIVE
        assert rep.failed_stage == "e_membership_u0"
        assert not rep.e_membership["u0"]["eps_nonzero"]

    def test_huge_imaginary_tolerance(self):
        # everything classifies real: negative reals flood the band at u1
        rep = run_verify(RunConfig(N=32, tol_im=1e3))
        assert rep.verdict == INCONCLUSIVE

    def test_tiny_imaginary_tolerance_is_harmless(self):
        # the anchor eigenvalue is exactly real in floating point, so an
        # ultra-strict tol_im does not destroy the verdict: robustness, not
        # tolerance tuning, carries the result
        rep = run_verify(RunConfig(N=32, tol_im=1e-30))
        assert rep.verdict == OBSTRUCTED
        assert rep.l_values == (0, 1)

    def test_huge_real_tolerance(self):
        rep = run_verify(RunConfig(N=32, tol_re=1e3))
        assert rep.verdict == INCONCLUSIVE
        assert rep.failed_stage == "e_membership_u1"

    def test_unattainable_stationarity_tolerance(self, monkeypatch):
        import nldlab.verdict
        monkeypatch.setattr(nldlab.verdict, "STATIONARITY_TOL", 1e-30)
        rep = run_verify(CFG32)
        assert rep.verdict == INCONCLUSIVE
        assert rep.failed_stage == "stationarity"

    def test_unattainable_convergence_tolerance(self, monkeypatch):
        import nldlab.spectra
        monkeypatch.setattr(nldlab.spectra, "DRIFT_TOL", 1e-30)
        rep = run_verify(CFG32)
        assert rep.verdict == INCONCLUSIVE
        assert rep.failed_stage == "convergence"

    def test_never_not_obstructed_under_any_single_flip(self, monkeypatch):
        import nldlab.spectra
        import nldlab.verdict
        for cfg in (RunConfig(N=32, eps0=0.0),
                    RunConfig(N=32, tol_im=1e3),
                    RunConfig(N=32, tol_re=1e3)):
            assert run_verify(cfg).verdict != NOT_OBSTRUCTED
        for module, constant in ((nldlab.verdict, "STATIONARITY_TOL"),
                                 (nldlab.spectra, "DRIFT_TOL")):
            with monkeypatch.context() as patch:
                patch.setattr(module, constant, 1e-30)
                assert run_verify(CFG32).verdict != NOT_OBSTRUCTED

    def test_extreme_kappa_warns_nothing_and_records_no_nan(self):
        # kappa^2 and |v| would overflow in the disc certificate; its scaled
        # eigenvectors keep every margin and gap a number (-inf counts as one)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_verify(RunConfig(N=16, kappa=1e200))
        evidence = [rep.e_membership["u1"]["evidence"]]
        evidence += [row["evidence"] for row in rep.convergence["u1"]["rows"]]
        values = [v for e in evidence for v in e.values() if isinstance(v, float)]
        assert len(values) == 6 and not any(math.isnan(v) for v in values)

    @pytest.mark.parametrize("kappa", [1e20, 1e200, -1e200])
    def test_unresolvable_drift_is_inconclusive(self, kappa):
        # the FFT round-off of the f_p samples (about kappa u) is dropped from
        # the band into its tail; a dense 2N row is charged that tail as drift,
        # so a spectrum float64 cannot resolve ends INCONCLUSIVE
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = run_verify(RunConfig(N=16, kappa=kappa))
        assert rep.verdict == INCONCLUSIVE and rep.failed_stage == "convergence"
        check = rep.convergence["u1"]["pair_checks"][0]
        assert rep.convergence["u1"]["rows"][1]["evidence"]["kind"] == "dense"
        assert check["max_drift"] > 1e3 and not check["ok"]

    @pytest.mark.parametrize("overrides", [
        {"eps0": 0.3}, {"eps0": 0.5}, {"eps0": 0.9}, {"kappa": 1.01}, {"kappa": 1.05},
        {"kappa": 2.0, "eps0": 0.9}])
    def test_strong_coupling_and_weak_drift_stay_obstructed(self, overrides):
        # the discs certify some of these and not others; either way the
        # verdict is the one the dense 2N spectrum gave
        rep = run_verify(RunConfig(N=32, **overrides))
        assert rep.verdict == OBSTRUCTED and rep.l_values == (0, 1)
        assert rep.e_membership["u1"]["evidence"]["kind"] in ("gershgorin", "dense")

    @settings(max_examples=20, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(kappa=st.floats(1.01, 3.0), eps0=st.floats(0.01, 0.95), rho=st.floats(0.3, 0.9),
           N=st.integers(8, 32))
    def test_never_not_obstructed_across_parameters(self, kappa, eps0, rho, N):
        rep = run_verify(RunConfig(N=N, kappa=kappa, eps0=eps0, rho=rho))
        assert rep.verdict != NOT_OBSTRUCTED
        assert rep.e_membership["u1"]["evidence"]["kind"] in ("gershgorin", "dense")


class TestEmission:
    def test_emit_writes_all_artifacts(self, report32, tmp_path):
        paths = emit_reports(report32, str(tmp_path / "out"))
        for key in ("verdict", "spectrum_u0", "spectrum_u1", "svg", "gap"):
            assert (tmp_path / "out").joinpath(paths[key].split("/")[-1]).exists()

    def test_verdict_json_round_trip(self, report32, tmp_path):
        paths = emit_reports(report32, str(tmp_path / "out"))
        with open(paths["verdict"]) as fh:
            loaded = json.load(fh)
        assert loaded == report32.to_dict()
        assert loaded["verdict"] == OBSTRUCTED
        assert loaded["l_values"] == [0, 1]

    def test_finite_verdict_json_is_the_plain_dump(self, report32, tmp_path):
        # nulling non-finite values changes nothing in a report that has none
        paths = emit_reports(report32, str(tmp_path / "out"))
        with open(paths["verdict"], encoding="utf-8") as fh:
            assert fh.read() == json.dumps(report32.to_dict(), indent=2) + "\n"

    def test_report_key_order(self, report32):
        assert list(report32.to_dict().keys()) == [
            "config", "stationarity", "spectrum_u0", "spectrum_u1",
            "e_membership", "l_values", "parity", "verdict", "failed_stage",
            "convergence", "gap_summary", "timestamp"]

    def test_u1_csv_has_exactly_one_true_real(self, report32, tmp_path):
        paths = emit_reports(report32, str(tmp_path / "out"))
        with open(paths["spectrum_u1"], encoding="utf-8") as fh:
            rows = [line.split(",") for line in fh.read().strip().splitlines()[1:]]
        true_rows = [r for r in rows if r[2] == "true"]
        assert len(true_rows) == 1
        assert float(true_rows[0][0]) == pytest.approx(0.05, abs=1e-8)
        assert all(r[3] == "" for r in rows)  # block index is a u0 concept

    def test_u0_csv_blocks_and_stability(self, report32, tmp_path):
        paths = emit_reports(report32, str(tmp_path / "out"))
        with open(paths["spectrum_u0"], encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "re,im,is_real,block_index"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 2 * 32 + 2
        # no true-real row sits on the unstable side
        assert all(float(r[0]) <= 0.0 for r in rows if r[2] == "true")
        blocks = sorted(int(r[3]) for r in rows)
        assert blocks == sorted(list(range(33)) * 2)

    def test_gap_csv_shape(self, report32, tmp_path):
        paths = emit_reports(report32, str(tmp_path / "out"))
        with open(paths["gap"], encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "n,lambda_n,ratio"
        assert len(lines) == 1 + 1024
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 1.0

    def test_svg_structure(self, report32, tmp_path):
        paths = emit_reports(report32, str(tmp_path / "out"))
        with open(paths["svg"], encoding="utf-8") as fh:
            svg = fh.read()
        assert svg.startswith("<svg")
        assert "Im = 0" in svg
        assert "spectrum at u0" in svg and "spectrum at u1" in svg
        assert svg.count("<circle") > 2 * (2 * 32 + 2)

    def test_emission_failure_is_wrapped(self, report32, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "verdict.json").mkdir()  # writing the report must now fail
        with pytest.raises(OSError, match="failed writing"):
            emit_reports(report32, str(out))

    def test_reports_equal_ignores_timestamp_only(self, report32):
        d1 = report32.to_dict()
        d2 = dict(d1)
        d2["timestamp"] = "1970-01-01T00:00:00Z"
        assert reports_equal(d1, d2)
        d3 = dict(d1)
        d3["parity"] = 0
        assert not reports_equal(d1, d3)
