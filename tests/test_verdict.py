"""Verdict pipeline: configuration, staged verification, report emission.

The soundness tests push each tolerance to an unattainable value and require
the verdict to collapse to INCONCLUSIVE. A broken threshold must never flip
the parity to the opposite verdict.
"""

import dataclasses
import json
import math
import os
import stat
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nldlab import (
    INCONCLUSIVE,
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    BasisLayout,
    ModelParams,
    RunConfig,
    convergence_study,
    emit_reports,
    reports_equal,
    run_verify,
)
from nldlab.spectra import gap_check
from nldlab.verdict import _spectrum_csv_text, _write_text, write_csv, write_gap_csv, write_json
import oracles

CFG32 = RunConfig(N=32)
INF, NAN = math.inf, math.nan
# Spectra verify does not produce, in the order written: conjugates at one Re,
# signed zeros in either part, infinities, NaNs, and conjugates that are split,
# reversed or one ulp apart, each of which must be formatted on its own.
EDGE_SPECTRA = {
    "repeated-re": [1 + 2j, 1 - 2j, 1 + 1j, 1 - 1j, 1 + 0j, complex(1, -0.0), 1 - 1j],
    "signed-zeros": [complex(0.0, 1), complex(-0.0, -1), complex(-0.0, 1), complex(0.0, -1),
                     complex(-0.0, 1), complex(-0.0, -1), complex(2, 0.0), complex(2, -0.0),
                     complex(-0.0, 0.0), complex(0.0, -0.0)],
    "infinities": [complex(INF, 1), complex(INF, -1), complex(1, INF), complex(1, -INF),
                   complex(-INF, INF), complex(-INF, -INF), complex(INF, 0.0),
                   complex(-INF, -0.0)],
    "nans": [complex(NAN, 1), complex(NAN, -1), complex(1, NAN), complex(1, NAN),
             complex(NAN, NAN), complex(2, 1), complex(NAN, -1)],
    "split-pair": [2 + 1j, 3 + 0j, 2 - 1j, 2 + 1j],
    "reversed-pair": [2 - 1j, 2 + 1j],
    "ulp-apart": [complex(1, 1), complex(1, -math.nextafter(1, 2)),
                  complex(1, 1), complex(math.nextafter(1, 2), -1)],
    "empty": [],
    "one-row": [complex(0.5, 0.25)],
}
PARTS = [0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, 1e300, INF, -INF, NAN]


@pytest.fixture(scope="module")
def report32():
    return run_verify(CFG32)


def _kappa_guard_edge(N, monkeypatch):
    """The largest kappa that convergence_study at N admits and the next float
    up, by bisection on the float bits; assemble_T is stubbed to report that a
    kappa got past the guard."""
    import nldlab.spectra

    class Admitted(Exception):
        pass

    def admitted(bits):
        kappa = float(np.int64(bits).view(np.float64))
        try:
            convergence_study("u1", ModelParams(BasisLayout(N), kappa=kappa))
        except Admitted:
            return True
        except ValueError:
            return False
        raise AssertionError("the stub was not reached")

    def stop(*args):
        raise Admitted

    lo, hi = (int(np.float64(k).view(np.int64)) for k in (1.25, np.finfo(float).max))
    with monkeypatch.context() as patch:
        patch.setattr(nldlab.spectra, "assemble_T", stop)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if admitted(mid) else (lo, mid)
    return tuple(float(np.int64(bits).view(np.float64)) for bits in (lo, hi))


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

    @pytest.mark.parametrize("seeds", [(0.5, 1, 2), (1.5,), (0, True)])
    def test_seeds_must_be_integers(self, seeds):
        # int() would read 0.5, 1.5 and True as 0, 1 and 1; a config file rejects them too
        with pytest.raises(TypeError, match="integer"):
            RunConfig(seeds=seeds)

    def test_integer_seeds_become_ints(self):
        cfg = RunConfig(seeds=[np.int64(3), 4])
        assert cfg.seeds == (3, 4) and all(type(s) is int for s in cfg.seeds)

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
        # assemble_T writes T from the mode-map table; the dense S is only a
        # test oracle
        from nldlab.basis import BasisLayout
        calls = []
        original = BasisLayout.synthesis_matrix

        def counting(self):
            calls.append(self.N)
            return original(self)

        monkeypatch.setattr(BasisLayout, "synthesis_matrix", counting)
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

    @pytest.mark.parametrize("kappa", [1.7e308, -1.7e308, 2e306])
    def test_kappa_overflow_fails_before_any_spectrum(self, kappa, monkeypatch):
        # the disc certificate at 2N = 32 weighs the row of kappa * 32 by up to
        # 4: at 2e306 that overflows although kappa * 2N does not
        import nldlab.spectra
        assembled = []
        monkeypatch.setattr(nldlab.spectra, "assemble_T",
                            lambda *args: assembled.append(args))
        with pytest.raises(ValueError, match=r"kappa = .* overflows the largest row sum of the "
                                             r"disc certificate at 2N = 32"):
            run_verify(RunConfig(N=16, kappa=kappa))
        assert assembled == []

    def test_kappa_below_the_overflow_guard_runs(self):
        rep = run_verify(RunConfig(N=16, kappa=6e305))
        assert rep.verdict == OBSTRUCTED and rep.l_values == (0, 1)
        evidence = rep.convergence["u1"]["rows"][1]["evidence"]
        assert evidence["kind"] == "gershgorin" and evidence["margin"] > 0.99

    def test_largest_admitted_kappa_is_certified_without_a_warning(self, monkeypatch):
        largest, _ = _kappa_guard_edge(16, monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_verify(RunConfig(N=16, kappa=largest))
        assert rep.verdict == OBSTRUCTED and rep.l_values == (0, 1)
        evidence = rep.convergence["u1"]["rows"][1]["evidence"]
        assert evidence["kind"] == "gershgorin"
        assert evidence["margin"] > 0.0 and evidence["isolation_gap"] > 0.0

    def test_smallest_rejected_kappa_fails_before_assemble_T(self, monkeypatch):
        import nldlab.spectra
        _, smallest = _kappa_guard_edge(16, monkeypatch)
        assembled = []
        monkeypatch.setattr(nldlab.spectra, "assemble_T", lambda *args: assembled.append(args))
        with pytest.raises(ValueError, match="overflows the largest row sum"):
            run_verify(RunConfig(N=16, kappa=smallest))
        assert assembled == []


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
        # eigenvectors keep every margin, gap and anchor radius a finite number
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_verify(RunConfig(N=16, kappa=1e200))
        assert rep.verdict == OBSTRUCTED
        evidence = [rep.e_membership["u1"]["evidence"]]
        evidence += [row["evidence"] for row in rep.convergence["u1"]["rows"]]
        values = [v for e in evidence for v in e.values() if isinstance(v, float)]
        assert len(values) == 8 and all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize("kappa", [1e20, 1e200, -1e200])
    def test_extreme_drift_is_certified_by_discs(self, kappa):
        # the closed-form T(u1) carries no FFT round-off of the kappa samples,
        # and the 2N discs, scaled by 2^-e, isolate the anchor at these kappa
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = run_verify(RunConfig(N=16, kappa=kappa))
        assert rep.verdict == OBSTRUCTED and rep.l_values == (0, 1)
        evidence = rep.convergence["u1"]["rows"][1]["evidence"]
        assert evidence["kind"] == "gershgorin"
        assert evidence["margin"] > 0.99 and evidence["isolation_gap"] > 1.0
        check = rep.convergence["u1"]["pair_checks"][0]
        assert check["ok"] and check["max_drift"] <= 1e-8

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
    # CRC-32 of verify's reports at the defaults: each CSV and the SVG as written, and
    # verdict.json's payload without the timestamp and the outdir, dumped with sorted keys.
    # N = 128's verdict.json moved with the grid (M 520 -> 540): only residual_u1 changed
    GOLDEN = {
        16: {"spectrum_u0.csv": "ec932d36", "spectrum_u1.csv": "b16b4890",
             "gap.csv": "95c6cab7", "spectrum.svg": "6705b7be", "verdict.json": "df6ff132"},
        128: {"spectrum_u0.csv": "78223e35", "spectrum_u1.csv": "ab5ec37c",
              "gap.csv": "95c6cab7", "spectrum.svg": "5d3be401", "verdict.json": "d4052406"},
    }

    @pytest.mark.parametrize("N", sorted(GOLDEN))
    def test_reports_match_the_golden_bytes(self, N, tmp_path):
        config = RunConfig(N=N, outdir=str(tmp_path))
        emit_reports(run_verify(config), config.outdir)
        crcs = {name: zlib.crc32((tmp_path / name).read_bytes())
                for name in ("spectrum_u0.csv", "spectrum_u1.csv", "gap.csv", "spectrum.svg")}
        payload = json.loads((tmp_path / "verdict.json").read_text(encoding="utf-8"))
        del payload["timestamp"], payload["config"]["outdir"]
        crcs["verdict.json"] = zlib.crc32(json.dumps(payload, sort_keys=True).encode())
        assert {name: f"{crc:08x}" for name, crc in crcs.items()} == self.GOLDEN[N]

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
            assert fh.read() == json.dumps(report32.to_dict()) + "\n"

    @pytest.mark.parametrize("overrides", [{}, {"kappa": 1.01, "eps0": 0.5}],
                             ids=["defaults", "dense"])
    def test_writers_match_the_per_eigenvalue_oracle(self, overrides, tmp_path):
        rep = run_verify(RunConfig(N=32, **overrides))
        kinds = {row["evidence"]["kind"] for row in rep.convergence["u1"]["rows"]}
        assert kinds == ({"dense"} if overrides else {"windows", "gershgorin"})
        paths = emit_reports(rep, str(tmp_path / "out"))
        oracles.write_spectrum_csv(tmp_path / "u0.csv", rep.spectrum_u0, rep.block_index_u0)
        oracles.write_spectrum_csv(tmp_path / "u1.csv", rep.spectrum_u1)
        oracles.write_gap_csv(tmp_path / "gap.csv", rep.gap_summary)
        for key, name in (("spectrum_u0", "u0.csv"), ("spectrum_u1", "u1.csv"),
                          ("gap", "gap.csv")):
            with open(paths[key], "rb") as fh:
                assert fh.read() == (tmp_path / name).read_bytes(), key
        with open(paths["svg"], encoding="utf-8") as fh:
            circles = [line for line in fh.read().split("\n") if ' r="3" ' in line]
        assert circles == oracles.spectrum_svg_circles(rep.spectrum_u0, rep.spectrum_u1)

    @pytest.mark.parametrize("overrides", [{}, {"eps0": 0.0}, {"kappa": 1.01}],
                             ids=["defaults", "eps0-zero", "dense"])
    def test_csv_texts_match_the_per_row_oracle(self, overrides):
        rep = run_verify(RunConfig(**overrides))
        kinds = {row["evidence"]["kind"] for row in rep.convergence["u1"]["rows"]}
        assert ("dense" in kinds) == ("kappa" in overrides)
        # with eps0 = 0 every u0 block is real: Im = +-0.0 rows, which pair with nothing
        assert np.any(rep.spectrum_u0.eigenvalues.imag == 0.0) == ("eps0" in overrides)
        assert rep.spectrum_csv_texts() == (
            oracles.spectrum_csv_text(rep.spectrum_u0, rep.block_index_u0),
            oracles.spectrum_csv_text(rep.spectrum_u1))

    @pytest.mark.parametrize("name", sorted(EDGE_SPECTRA))
    def test_csv_text_of_edge_spectra_matches_the_oracle(self, report32, name):
        z = np.array(EDGE_SPECTRA[name], dtype=complex)
        rep = dataclasses.replace(report32.spectrum_u1, eigenvalues=z)
        blocks = np.arange(len(z))
        assert _spectrum_csv_text(rep) == oracles.spectrum_csv_text(rep)
        assert _spectrum_csv_text(rep, blocks) == oracles.spectrum_csv_text(rep, blocks)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.tuples(st.sampled_from(PARTS), st.sampled_from(PARTS), st.booleans()),
                    max_size=12))
    def test_csv_text_of_drawn_spectra_matches_the_oracle(self, report32, rows):
        # each drawn value is followed by its exact conjugate when its flag is set
        z = np.array([w for re, im, paired in rows
                      for w in [complex(re, im)] + [complex(re, -im)] * paired], dtype=complex)
        rep = dataclasses.replace(report32.spectrum_u1, eigenvalues=z)
        assert _spectrum_csv_text(rep) == oracles.spectrum_csv_text(rep)

    def test_verdict_json_holds_the_crc32_of_each_csv(self, report32, tmp_path):
        paths = emit_reports(report32, str(tmp_path / "out"))
        with open(paths["verdict"], encoding="utf-8") as fh:
            loaded = json.load(fh)
        for key in ("spectrum_u0", "spectrum_u1"):
            with open(paths[key], "rb") as fh:
                assert loaded[key]["csv_crc32"] == zlib.crc32(fh.read()), key
            assert "eigenvalues" not in loaded[key]

    def test_emission_formats_each_spectrum_once(self, report32, tmp_path, monkeypatch):
        import nldlab.verdict
        built = []
        real = nldlab.verdict._spectrum_csv_text

        def counting(rep, *args):
            built.append(rep.point_label)
            return real(rep, *args)

        monkeypatch.setattr(nldlab.verdict, "_spectrum_csv_text", counting)
        emit_reports(report32, str(tmp_path / "out"))
        assert sorted(built) == ["u0", "u1"]
        assert report32.to_dict() == report32.to_dict(report32.spectrum_csv_texts())

    @pytest.mark.parametrize("key", ["spectrum_u0", "spectrum_u1"])
    def test_reports_differing_in_one_eigenvalue_are_not_equal(self, report32, key):
        rep = getattr(report32, key)
        z = rep.eigenvalues.copy()
        z[-1] = complex(np.nextafter(z[-1].real, 0.0), z[-1].imag)
        moved = dataclasses.replace(report32, **{key: dataclasses.replace(rep, eigenvalues=z)})
        assert not reports_equal(report32.to_dict(), moved.to_dict())

    def test_gap_csv_matches_the_per_row_oracle(self, tmp_path):
        for theta in (0.5, 0.875, 0.5):
            gap = gap_check(theta, 1024)
            write_gap_csv(str(tmp_path / "gap.csv"), gap)
            oracles.write_gap_csv(tmp_path / "oracle.csv", gap)
            assert (tmp_path / "gap.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    def test_gap_csv_writes_the_report_it_is_handed(self, tmp_path):
        gap = gap_check(0.5, 1024)
        cut = dataclasses.replace(gap, jump_n=gap.jump_n[:2], jump_lambda=gap.jump_lambda[:2],
                                  jump_ratio=gap.jump_ratio[:2])
        write_gap_csv(str(tmp_path / "gap.csv"), cut)
        oracles.write_gap_csv(tmp_path / "oracle.csv", cut)
        assert (tmp_path / "gap.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert len((tmp_path / "gap.csv").read_bytes().splitlines()) == 3

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

    @pytest.mark.parametrize("name", ["spectrum_u0.csv", "spectrum_u1.csv", "spectrum.svg",
                                      "gap.csv"])
    def test_a_directory_at_any_other_report_path_is_wrapped(self, report32, tmp_path, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        with pytest.raises(OSError, match="failed writing") as info:
            emit_reports(report32, str(out))
        assert isinstance(info.value.__cause__, IsADirectoryError)

    def test_emission_over_larger_reports_matches_a_fresh_one(self, report32, tmp_path):
        emit_reports(run_verify(RunConfig(N=64)), str(tmp_path / "over"))
        over = emit_reports(report32, str(tmp_path / "over"))
        fresh = emit_reports(report32, str(tmp_path / "fresh"))
        for key in fresh:
            with open(over[key], "rb") as a, open(fresh[key], "rb") as b:
                assert a.read() == b.read(), key

    def test_reports_equal_ignores_timestamp_only(self, report32):
        d1 = report32.to_dict()
        d2 = dict(d1)
        d2["timestamp"] = "1970-01-01T00:00:00Z"
        assert reports_equal(d1, d2)
        d3 = dict(d1)
        d3["parity"] = 0
        assert not reports_equal(d1, d3)


class TestInPlaceWriter:
    """Reports are written over the old bytes and cut to the new length."""

    def test_rewriting_a_longer_file_leaves_no_tail(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_bytes(b"x" * 5000)
        _write_text(str(path), "a,b\r\n")
        assert path.read_bytes() == b"a,b\r\n"
        path.write_bytes(b"x" * 5000)
        write_csv(str(path), ["a", "b"], [[1, 0.5]])
        assert path.read_bytes() == b"a,b\r\n1,0.5\r\n"

    def test_rewriting_a_shorter_file_and_writing_a_new_one_give_the_exact_bytes(self, tmp_path):
        text = "re,im\r\n" + "0.1,-0.2\r\n" * 1000
        shorter, new = tmp_path / "shorter.csv", tmp_path / "new.csv"
        shorter.write_bytes(b"re,im\r\n9")
        for path in (shorter, new):
            _write_text(str(path), text)
            assert path.read_bytes() == text.encode("utf-8")
            write_csv(str(path), ["re", "im"], [["0.1", "-0.2"]] * 1000)
            assert path.read_bytes() == text.encode("utf-8")

    @pytest.mark.parametrize("umask", [None, 0o077, 0o002], ids=["current", "077", "002"])
    def test_a_new_report_has_the_mode_of_a_truncating_open(self, tmp_path, umask):
        saved = None if umask is None else os.umask(umask)
        try:
            _write_text(str(tmp_path / "report.csv"), "x")
            with open(tmp_path / "plain.csv", "w"):
                pass
        finally:
            if saved is not None:
                os.umask(saved)
        assert (stat.S_IMODE(os.stat(tmp_path / "report.csv").st_mode)
                == stat.S_IMODE(os.stat(tmp_path / "plain.csv").st_mode))

    def test_the_open_keeps_the_old_bytes_until_they_are_written_over(self, tmp_path,
                                                                       monkeypatch):
        flags = []
        real_open = os.open

        def recording(path, fl, mode=0o777, **kwargs):
            flags.append(fl)
            return real_open(path, fl, mode, **kwargs)

        monkeypatch.setattr(os, "open", recording)
        _write_text(str(tmp_path / "report.csv"), "x")
        assert len(flags) == 1 and flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC

    def test_a_directory_at_the_path_raises(self, tmp_path):
        (tmp_path / "report.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            _write_text(str(tmp_path / "report.csv"), "x")


class TestWriteJson:
    def test_non_finite_values_are_null_at_any_depth(self, tmp_path):
        path = tmp_path / "report.json"
        write_json(str(path), {"a": math.nan, "b": [1.0, math.inf, {"c": -math.inf}],
                               "d": (math.nan, 2, (-math.inf,))})

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh, parse_constant=reject)
        assert loaded == {"a": None, "b": [1.0, None, {"c": None}], "d": [None, 2, [None]]}

    def test_finite_payload_is_the_plain_dump(self, tmp_path):
        payload = {"x": [1.5, (2, 3e-300)], "y": {"z": "s", "w": None, "v": True},
                   "u": np.float64(0.1)}
        path = tmp_path / "report.json"
        write_json(str(path), payload)
        assert path.read_text(encoding="utf-8") == json.dumps(payload) + "\n"

    @pytest.mark.parametrize("payload", [{"a": object()}, {"a": math.nan, "b": {1, 2}}],
                             ids=["finite", "non-finite"])
    def test_unserializable_payload_raises_type_error(self, payload, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(TypeError):
            write_json(str(path), payload)
        assert not path.exists()
