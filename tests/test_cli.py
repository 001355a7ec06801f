"""Command-line behavior: argument parsing, exit codes, emitted files."""

import csv
import json
import re

import numpy as np
import pytest

from nldlab.basis import random_state, theta_norm
from nldlab.cli import build_parser, main, parse_seed_spec
from nldlab.spectra import gap_check
from nldlab.verdict import RunConfig
import oracles


@pytest.fixture()
def make_config(tmp_path):
    """Write a small JSON config file and return its path."""
    def make(**extra):
        payload = {"N": 16, "seeds": [0, 1, 2], "outdir": str(tmp_path / "out")}
        payload.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)
    return make


def eigenvalue_lines(out):
    return [ln for ln in out.splitlines() if ln[:1] in "+-"]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSeedSpec:
    def test_u0_is_zero(self):
        v = parse_seed_spec("u0", RunConfig(N=16))
        assert v.shape == (34,) and not np.any(v)

    def test_u1_is_unit_constant(self):
        v = parse_seed_spec("u1", RunConfig(N=16))
        assert v[0] == 1.0
        assert not np.any(v[1:])

    def test_constant_offset(self):
        config = RunConfig(N=16)
        assert parse_seed_spec("u1+const:0.25", config)[0] == 1.25
        assert parse_seed_spec("u1+const:-0.5", config)[0] == 0.5

    def test_random_default_norm(self):
        config = RunConfig(N=16)
        v = parse_seed_spec("random:3", config)
        layout = config.model_params().layout
        assert theta_norm(layout, v, config.theta) == pytest.approx(10.0, rel=1e-12)
        w = random_state(layout, 3, config.theta, 10.0)
        assert np.array_equal(v, w)

    def test_random_explicit_norm(self):
        config = RunConfig(N=16)
        v = parse_seed_spec("random:3:2.5", config)
        layout = config.model_params().layout
        assert theta_norm(layout, v, config.theta) == pytest.approx(2.5, rel=1e-12)

    def test_random_is_deterministic(self):
        config = RunConfig(N=16)
        va = parse_seed_spec("random:7", config)
        vb = parse_seed_spec("random:7", config)
        assert np.array_equal(va, vb)

    def test_unrecognized_spec_raises(self):
        with pytest.raises(ValueError, match="unrecognized"):
            parse_seed_spec("u2", RunConfig(N=16))
        with pytest.raises(ValueError):
            parse_seed_spec("random:xyz", RunConfig(N=16))


class TestParsing:
    def test_prog_name(self):
        assert build_parser().prog == "nldlab"

    def test_missing_subcommand_is_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_error(self, capsys):
        assert main(["verify", "--bogus"]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "verify" in out and "probe-dissipativity" in out

    def test_subcommand_help(self, capsys):
        assert main(["simulate", "--help"]) == 0
        assert "--seed-spec" in capsys.readouterr().out

    def test_bad_flag_value_is_error(self, capsys):
        assert main(["spectrum", "--at", "u0", "--N", "abc"]) == 1
        capsys.readouterr()

    def test_spectrum_requires_at(self, capsys):
        assert main(["spectrum"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("command, required, reads, unread", [
        ("verify", [], "--N --kappa --eps0 --rho --theta --tol-im --tol-re --outdir", "--dt"),
        ("spectrum", ["--at", "u0"], "--N --kappa --eps0 --rho --tol-im --tol-re --outdir",
         "--theta"),
        ("simulate", ["--seed-spec", "u1"],
         "--N --kappa --eps0 --rho --theta --dt --t-final --outdir", "--tol-im"),
        ("gap-check", [], "--theta --nmax --outdir", "--N"),
        ("scan-eps0", ["--list", "0.1"], "--N --kappa --rho --tol-im --tol-re --outdir",
         "--eps0"),
        ("probe-dissipativity", [],
         "--r-in --C --delta --N --kappa --eps0 --rho --theta --dt --t-final --outdir", "--T"),
    ])
    def test_subcommand_takes_exactly_the_flags_it_reads(self, capsys, command, required,
                                                         reads, unread):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[\w-]+", capsys.readouterr().out)) - {"--help"}
        assert listed == set(reads.split()) | set(required[::2])
        argv = [command, *required]
        for flag in reads.split():
            argv += [flag, "3"]
        assert build_parser().parse_args(argv).command == command
        assert main([command, *required, unread, "3"]) == 1
        assert f"unrecognized arguments: {unread} 3" in capsys.readouterr().err


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json"), "verify"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("not json {", encoding="utf-8")
        assert main(["--config", str(path), "verify"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"epsilon_zero": 0.1}), encoding="utf-8")
        assert main(["--config", str(path), "verify"]) == 1
        assert "epsilon_zero" in capsys.readouterr().err

    def test_null_value_rejected(self, tmp_path, capsys):
        # nulls and values of the wrong type are rejected, naming the key
        path = tmp_path / "bad.json"
        for key, value in [("kappa", None), ("N", 16.5), ("N", "16"), ("kappa", "1.25"),
                           ("seeds", 3), ("tol_im", [1]), ("N", True), ("tol_im", False)]:
            path.write_text(json.dumps({key: value}), encoding="utf-8")
            assert main(["--config", str(path), "spectrum", "--at", "u0"]) == 1, key
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err, err
            assert "Traceback" not in err

    @pytest.mark.parametrize("payload", ["5", "null", "[1, 2]", '"abc"'])
    def test_config_that_is_not_an_object_is_rejected(self, payload, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(payload, encoding="utf-8")
        assert main(["--config", str(path), "spectrum", "--at", "u0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file must hold a JSON object"), err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--tol-im", "--tol-re"])
    @pytest.mark.parametrize("command", [["spectrum", "--at", "u1"], ["verify"],
                                         ["scan-eps0", "--list", "0.05"]])
    def test_nan_tolerance_is_an_error(self, command, flag, make_config, tmp_path, capsys):
        assert main(["--config", make_config(), *command, flag, "nan"]) == 1
        assert "error: tolerances must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_eps_underflow_is_an_error(self, make_config, capsys):
        assert main(["--config", make_config(), "verify", "--N", "100", "--rho", "0.01"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eps_n underflowed to zero")
        assert "Traceback" not in err

    def test_kappa_overflow_is_an_error(self, make_config, capsys):
        # under the suite's filterwarnings = error an overflow warning in the
        # disc certificate would surface as an exception before the message
        assert main(["--config", make_config(), "verify", "--kappa", "1.7e308"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kappa = 1.7e+308 overflows the largest row sum of the "
                              "disc certificate at 2N = 32")
        assert "Traceback" not in err

    @pytest.mark.parametrize("kappa", ["1.7e308", "1e307"])
    @pytest.mark.parametrize("command", [["spectrum", "--at", "u1"],
                                         ["scan-eps0", "--list", "0.05,0.3"]],
                             ids=["spectrum", "scan-eps0"])
    def test_kappa_overflow_at_N_is_an_error(self, make_config, capsys, monkeypatch,
                                             command, kappa):
        # both fail on the guard verify's convergence study applies at 2N, here
        # at N = 16, before any T is assembled and (under the suite's
        # filterwarnings = error) without a warning
        import nldlab.spectra
        assembled = []
        monkeypatch.setattr(nldlab.spectra, "assemble_T", lambda *args: assembled.append(args))
        assert main(["--config", make_config(), *command, "--kappa", kappa]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: kappa = {float(kappa)!r} overflows the largest row sum "
                              "of the disc certificate at N = 16")
        assert "Traceback" not in err and assembled == []

    def test_u0_spectrum_ignores_kappa(self, make_config, capsys):
        # T(u0) = Q + K never reads kappa, so no kappa guard applies at u0
        assert main(["--config", make_config(), "spectrum", "--at", "u0",
                     "--kappa", "1e307"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", [["spectrum", "--at", "u0"],
                                         ["simulate", "--seed-spec", "random:1"], ["verify"]],
                             ids=["spectrum-u0", "simulate", "verify"])
    def test_nan_kappa_is_an_error(self, command, make_config, capsys, tmp_path):
        # |nan| <= 1 is false, so the supercritical guard asks |kappa| > 1 instead
        assert main(["--config", make_config(), *command, "--kappa", "nan"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: |kappa| must exceed 1, got nan")
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_flag_overrides_file_value(self, make_config, capsys):
        # config says N=16 but the flag wins
        rc = main(["--config", make_config(), "spectrum", "--at", "u0", "--N", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert len(eigenvalue_lines(out)) == 18
        assert "18 eigenvalues at N=8" in out


class TestSpectrumCommand:
    def test_u0_prints_all_nonreal(self, make_config, tmp_path, capsys):
        assert main(["--config", make_config(), "spectrum", "--at", "u0"]) == 0
        out = capsys.readouterr().out
        lines = eigenvalue_lines(out)
        assert len(lines) == 34
        assert all(ln.split()[-1] == "nonreal" for ln in lines)
        assert "in-band real count 0, l_in_band=0" in out
        header, rows = read_csv(tmp_path / "out" / "spectrum_u0.csv")
        assert header == ["re", "im", "is_real", "block_index"]
        assert len(rows) == 34
        blocks = sorted(int(r[3]) for r in rows)
        assert blocks == sorted(list(range(17)) * 2)

    def test_u1_prints_single_real_anchor(self, make_config, tmp_path, capsys):
        assert main(["--config", make_config(), "spectrum", "--at", "u1"]) == 0
        out = capsys.readouterr().out
        real_lines = [ln for ln in eigenvalue_lines(out) if ln.split()[-1] == "real"]
        assert len(real_lines) == 1
        assert float(real_lines[0].split()[0]) == pytest.approx(0.05, abs=1e-8)
        assert "in-band real count 1, l_in_band=1" in out
        _, rows = read_csv(tmp_path / "out" / "spectrum_u1.csv")
        assert all(r[3] == "" for r in rows)

    def test_eps0_flag_moves_the_anchor(self, make_config, capsys):
        cfg = make_config(eps0=0.3)
        assert main(["--config", cfg, "spectrum", "--at", "u1", "--eps0", "0.05"]) == 0
        out = capsys.readouterr().out
        real_lines = [ln for ln in eigenvalue_lines(out) if ln.split()[-1] == "real"]
        assert float(real_lines[0].split()[0]) == pytest.approx(0.05, abs=1e-8)


class TestSimulateCommand:
    def test_writes_trajectory_csv(self, make_config, tmp_path, capsys):
        rc = main(["--config", make_config(), "simulate",
                   "--seed-spec", "u1+const:0.125", "--t-final", "0.05"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        header, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert header == ["t", "theta_norm"]
        times = [float(r[0]) for r in rows]
        norms = [float(r[1]) for r in rows]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.05, abs=1e-12)
        assert all(np.isfinite(norms))
        assert norms[0] == pytest.approx(1.125 * np.sqrt(2.0 * np.pi), rel=1e-12)

    def test_horizon_from_config_when_no_flag(self, make_config, tmp_path):
        cfg = make_config(T_final=0.02)
        assert main(["--config", cfg, "simulate", "--seed-spec", "u1"]) == 0
        _, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert float(rows[-1][0]) == pytest.approx(0.02, abs=1e-12)

    def test_random_seed_starts_at_requested_norm(self, make_config, tmp_path):
        rc = main(["--config", make_config(), "simulate",
                   "--seed-spec", "random:0", "--t-final", "0.01"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "out" / "trajectory.csv")
        assert float(rows[0][1]) == pytest.approx(10.0, rel=1e-12)

    def test_bad_seed_spec_is_error(self, make_config, capsys):
        rc = main(["--config", make_config(), "simulate", "--seed-spec", "u2"])
        assert rc == 1
        assert "unrecognized seed-spec" in capsys.readouterr().err

    def test_negative_random_seed_is_error(self, make_config, tmp_path, capsys):
        rc = main(["--config", make_config(), "simulate",
                   "--seed-spec", "random:-1", "--t-final", "0.01"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: seed must be a non-negative integer")
        assert not (tmp_path / "out" / "trajectory.csv").exists()

    def test_cfl_violation_is_error(self, make_config, capsys):
        rc = main(["--config", make_config(), "simulate",
                   "--seed-spec", "u1", "--t-final", "1.0", "--dt", "0.1"])
        assert rc == 1
        assert "CFL" in capsys.readouterr().err

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_horizon_without_a_step_is_error(self, make_config, tmp_path, capsys, horizon):
        rc = main(["--config", make_config(), "simulate",
                   "--seed-spec", "random:1", "--t-final", horizon])
        assert rc == 1
        assert "T_final must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trajectory.csv").exists()


class TestGapCheckCommand:
    def test_theta_half_stays_below_one(self, tmp_path, capsys):
        rc = main(["gap-check", "--theta", "0.5", "--nmax", "200",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "theta=0.5" in out and "max ratio 0." in out
        header, rows = read_csv(tmp_path / "gap.csv")
        assert header == ["n", "lambda_n", "ratio"]
        assert len(rows) == 200
        assert rows[0][0] == "0" and float(rows[0][1]) == 1.0

    def test_raw_gaps_cross_hundred_at_fifty(self, tmp_path, capsys):
        rc = main(["gap-check", "--theta", "0.0", "--nmax", "64",
                   "--outdir", str(tmp_path)])
        assert rc == 0
        assert "exceeds 100 from n=50" in capsys.readouterr().out

    def test_gap_csv_matches_the_per_row_oracle(self, tmp_path, capsys):
        # a non-default --nmax
        assert main(["gap-check", "--theta", "0.875", "--nmax", "77",
                     "--outdir", str(tmp_path)]) == 0
        oracles.write_gap_csv(tmp_path / "oracle.csv", gap_check(0.875, 77))
        assert (tmp_path / "gap.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        capsys.readouterr()

    def test_outdir_from_config(self, make_config, tmp_path, capsys):
        rc = main(["--config", make_config(), "gap-check",
                   "--theta", "0.875", "--nmax", "32"])
        assert rc == 0
        capsys.readouterr()
        assert (tmp_path / "out" / "gap.csv").exists()


class TestScanCommand:
    def test_two_couplings(self, make_config, tmp_path, capsys):
        rc = main(["--config", make_config(), "scan-eps0", "--list", "0.05,0.2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "largest eps0 with a single real eigenvalue: 0.2" in out
        header, rows = read_csv(tmp_path / "out" / "eps0_scan.csv")
        assert header == ["eps0", "real_count_in_band", "l_count_in_band", "anchor"]
        assert len(rows) == 2
        for row in rows:
            assert float(row[3]) == pytest.approx(float(row[0]), rel=1e-6)

    def test_tokenizer_tolerates_spaces_and_trailing_comma(self, make_config,
                                                           tmp_path, capsys):
        rc = main(["--config", make_config(), "scan-eps0",
                   "--list", " 0.05 , 0.2 , "])
        assert rc == 0
        capsys.readouterr()
        _, rows = read_csv(tmp_path / "out" / "eps0_scan.csv")
        assert len(rows) == 2

    def test_out_of_range_value_is_error(self, make_config, capsys):
        rc = main(["--config", make_config(), "scan-eps0", "--list", "1.5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestProbeCommand:
    def test_three_seeds_all_finite(self, make_config, tmp_path, capsys):
        rc = main(["--config", make_config(), "probe-dissipativity",
                   "--t-final", "0.5", "--r-in", "5.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "a_emp=" in out and out.count("seed random:") == 3
        with open(tmp_path / "out" / "dissipativity.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["seed_labels"] == ["random:0", "random:1", "random:2"]
        assert payload["R_in"] == 5.0
        assert payload["failed"] == []
        assert all(np.isfinite(t) for t in payload["tail_norms"])

    def test_overflowing_tails_exit_two(self, make_config, capsys):
        # seeds of infinite theta-norm are not finite from the first step; the
        # probe must report that as failure (exit 2), not success
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["--config", make_config(), "probe-dissipativity",
                       "--t-final", "0.01", "--r-in", "inf"])
        assert rc == 2
        capsys.readouterr()

    def test_huge_finite_seeds_are_measured(self, make_config, tmp_path, capsys):
        # a 1e200-sized state stays finite, and so does its theta-norm: its
        # tail is measured (far outside the ball), not reported as failed, and
        # the probe fails because no seed entered the ball
        rc = main(["--config", make_config(), "probe-dissipativity",
                   "--t-final", "0.01", "--r-in", "1e200"])
        assert rc == 2
        assert ": failed" not in capsys.readouterr().out
        with open(tmp_path / "out" / "dissipativity.json", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["failed"] == [] and payload["entered"] == [False] * 3
        assert all(1e198 < t < 1e200 for t in payload["tail_norms"])

    def test_failed_seeds_write_strict_json(self, make_config, tmp_path, capsys):
        # every seed is infinite; its tail and a_emp are not finite, so they are
        # written as null, never as the NaN that strict JSON parsers reject
        with np.errstate(over="ignore", invalid="ignore"):
            rc = main(["--config", make_config(), "probe-dissipativity",
                       "--t-final", "0.01", "--r-in", "inf"])
        assert rc == 2
        out = capsys.readouterr().out
        assert out.count(": failed") == 3 and "a_emp=nan" in out

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with open(tmp_path / "out" / "dissipativity.json", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=reject)
        assert payload["tail_norms"] == [None, None, None]
        assert payload["a_emp"] is None
        assert payload["failed"] == ["random:0", "random:1", "random:2"]
        assert np.isfinite(payload["M_scan"]) and np.isfinite(payload["a_formula"])

    @pytest.mark.parametrize("horizon", ["0", "-1"])
    def test_horizon_without_a_step_is_error(self, make_config, tmp_path, capsys, horizon):
        rc = main(["--config", make_config(), "probe-dissipativity", "--t-final", horizon])
        assert rc == 1
        captured = capsys.readouterr()
        assert "T_final must be positive" in captured.err and "entered" not in captured.out
        assert not (tmp_path / "out" / "dissipativity.json").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--C", "inf"], "must be finite and positive"),
        (["--C", "nan"], "must be finite and positive"),
        (["--delta", "nan"], "must be finite and positive"),
        (["--delta", "inf"], "must be finite and positive"),
        (["--C", "1e308"], "absorbing radius overflows"),
    ], ids=["C-inf", "C-nan", "delta-nan", "delta-inf", "C-overflow"])
    def test_radius_constants_must_give_a_finite_radius(self, make_config, tmp_path, capsys,
                                                        flags, message):
        # an infinite radius admits every seed (a vacuous pass) and a NaN one none;
        # each is a usage error, raised before any seed is marched
        rc = main(["--config", make_config(), "probe-dissipativity", "--t-final", "0.2", *flags])
        assert rc == 1
        captured = capsys.readouterr()
        assert message in captured.err and "entered" not in captured.out
        assert not (tmp_path / "out" / "dissipativity.json").exists()

    def test_fewer_than_three_seeds_is_error(self, make_config, capsys):
        cfg = make_config(seeds=[0, 1])
        rc = main(["--config", cfg, "probe-dissipativity", "--t-final", "0.01"])
        assert rc == 1
        assert "at least 3 seeds" in capsys.readouterr().err


class TestVerifyCommand:
    def test_obstructed_exits_zero(self, make_config, tmp_path, capsys):
        cfg = make_config(N=32)
        assert main(["--config", cfg, "verify"]) == 0
        out = capsys.readouterr().out
        assert "verdict: OBSTRUCTED" in out
        assert "l(u0)=0 l(u1)=1 parity=1" in out
        assert "e-membership: u0=True u1=True" in out
        assert "failed stage" not in out
        assert "spectrum u1: in-band reals [0.05]" in out.splitlines()
        with open(tmp_path / "out" / "verdict.json", encoding="utf-8") as fh:
            assert json.load(fh)["verdict"] == "OBSTRUCTED"

    def test_extreme_kappa_writes_strict_json(self, make_config, tmp_path, capsys):
        # at kappa = 1e20 the entries of T reach 1e21 and the 2N discs still
        # certify; verdict.json parses without the non-standard constants
        # (NaN, Infinity) that strict JSON parsers reject
        assert main(["--config", make_config(), "verify", "--kappa", "1e20"]) == 0
        capsys.readouterr()

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        with open(tmp_path / "out" / "verdict.json", encoding="utf-8") as fh:
            payload = json.load(fh, parse_constant=reject)
        assert 0.0 < payload["e_membership"]["u1"]["evidence"]["margin"] < 1.0
        assert payload["convergence"]["u1"]["rows"][1]["evidence"]["kind"] == "gershgorin"

    def test_inconclusive_exits_two(self, make_config, capsys):
        cfg = make_config(N=32)
        assert main(["--config", cfg, "verify", "--eps0", "0.0"]) == 2
        out = capsys.readouterr().out
        assert "verdict: INCONCLUSIVE" in out
        assert "failed stage: e_membership_u0" in out
