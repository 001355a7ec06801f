"""Linearization spectra: block exactness, classification, refinement checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvals
from scipy.optimize import linear_sum_assignment

from nldlab import (
    BasisLayout,
    EpsilonSequence,
    ModelParams,
    assemble,
    assemble_T,
    classify_and_count,
    convergence_study,
    eigenvalues,
    eps0_threshold_scan,
    gap_check,
    qkappa_spectrum,
    resolved_band,
    stationary_state,
)
from nldlab.operators import _gamma
from nldlab.spectra import (TOL_IM_DEFAULT, TOL_RE_DEFAULT, _band_cells, _drift_check,
                            _in_some_disc, _nearest, _pair_slots, disc_certificate,
                            discs_disjoint, is_real, match_blocks_u0, stationary_spectrum)
from nldlab.verdict import BLOCK_MATCH_TOL
from oracles import block_spectrum_u0, dense_eigenvalues, dense_T, multiplier_from_samples

EPS = EpsilonSequence()


class TestBasics:
    def test_resolved_band(self):
        assert resolved_band(128) == 4096.0
        assert resolved_band(32) == 256.0

    def test_stationary_states(self, layout16):
        assert np.all(stationary_state("u0", layout16) == 0.0)
        u1 = stationary_state("u1", layout16)
        assert u1[0] == 1.0 and np.count_nonzero(u1) == 1
        with pytest.raises(ValueError):
            stationary_state("u2", layout16)

    def test_assemble_T_rejects_an_unknown_state(self, layout16):
        with pytest.raises(ValueError, match="unknown stationary state 'u2'"):
            assemble_T("u2", ModelParams(layout16))

    def test_eigenvalues_sorted_re_then_im_descending(self, layout16):
        m = np.zeros((layout16.dim, layout16.dim))
        m[0, 0] = 3.0
        m[1, 1] = 1.0
        m[2, 3] = -2.0
        m[3, 2] = 2.0  # block with eigenvalues +-2i
        eigs = dense_eigenvalues(m)
        assert eigs[0] == pytest.approx(3.0)
        assert eigs[1] == pytest.approx(1.0)
        # descending real part overall, and +2i listed before its conjugate
        assert np.all(np.diff(eigs.real) <= 1e-12)
        assert np.flatnonzero(eigs.imag > 1.0)[0] < np.flatnonzero(eigs.imag < -1.0)[0]

    def test_eigenvalues_rejects_nonfinite(self, layout16):
        for label in ("u0", "u1"):
            T = assemble_T(label, ModelParams(layout16))
            T.diagonals[5, T.b] = np.nan
            with pytest.raises(ValueError, match="non-finite"):
                eigenvalues(T)


class TestBlockEigenvalues:
    """The u0 spectrum read off the pair blocks against the closed form."""

    def test_u0_at_N512_matches_closed_form_blocks(self):
        lay = BasisLayout(512)
        eigs = eigenvalues(assemble_T("u0", ModelParams(lay)))
        dist, _ = match_blocks_u0(eigs, EPS, lay.N)
        assert dist <= BLOCK_MATCH_TOL


@pytest.fixture
def eigvals_shapes(monkeypatch):
    """Shapes of the arrays handed to np.linalg.eigvals, in call order."""
    shapes = []
    solve = np.linalg.eigvals

    def record(a):
        shapes.append(np.shape(a))
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvals", record)
    return shapes


class TestEigenvalueDispatch:
    """A band of Q + K is read off its pair blocks {cos nx, sin (n+1)x} with no
    eigensolve; every other band takes one dense solve."""

    def test_u0_is_read_off_its_pair_blocks(self, layout16, eigvals_shapes):
        evidence = {}
        eigs = eigenvalues(assemble_T("u0", ModelParams(layout16)), evidence=evidence)
        assert eigvals_shapes == [] and evidence == {"kind": "blocks"}
        assert match_blocks_u0(eigs, EPS, layout16.N)[0] == 0.0

    @pytest.mark.parametrize("entry", ["a != d", "c != -b"])
    def test_a_block_of_another_form_is_an_error(self, entry, layout16):
        T = assemble_T("u0", ModelParams(layout16))
        pos = np.argsort(_pair_slots(layout16.N))
        c, s = pos[1], pos[layout16.N + 2]   # the pair {cos x, sin 2x}
        if entry == "a != d":
            T.diagonals[s, T.b] += 1.0
        else:
            T.diagonals[s, T.b + c - s] *= 2.0
        with pytest.raises(ValueError, match=r"\[\[a, e\], \[-e, a\]\]"):
            eigenvalues(T)

    @pytest.mark.parametrize("kind", ["u1"])
    def test_other_patterns_take_one_dense_solve(self, kind, layout16, eigvals_shapes):
        band = assemble_T(kind, ModelParams(layout16))
        dense = eigvals(band.dense())
        expected = dense[np.lexsort((-dense.imag, -dense.real))]
        got = eigenvalues(band)
        assert eigvals_shapes == [(layout16.dim, layout16.dim)]
        assert np.all(np.abs(got - expected) <= 1e-12 * (1.0 + np.abs(expected)))

    @pytest.mark.parametrize("N", [128, 256])
    def test_verify_makes_one_eigensolve(self, N, eigvals_shapes):
        # u0 at N and 2N is read off its blocks and u1 at 2N certified by
        # discs, so the u1 window batch at N is the only solve
        from nldlab.verdict import RunConfig, run_verify
        report = run_verify(RunConfig(N=N))
        assert eigvals_shapes == [(N, 14, 14)]
        assert [row["evidence"]["kind"] for row in report.convergence["u0"]["rows"]] == ["blocks"] * 2


class TestScipyOracles:
    """The numpy-only block pairing and eigensolve against scipy, which only
    the tests import."""

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("N", [16, 128, 512])
    def test_block_pairing_is_the_optimal_assignment(self, N, shuffle, rng):
        lay = BasisLayout(N)
        eigs = eigenvalues(assemble_T("u0", ModelParams(lay)))
        if shuffle:
            eigs = rng.permutation(eigs)
        targets = np.concatenate([block_spectrum_u0(n, EPS) for n in range(N + 1)])
        cost = np.abs(eigs[:, None] - targets[None, :])
        rows, cols = linear_sum_assignment(cost)
        dist, block_index = match_blocks_u0(eigs, EPS, N)
        assert dist == cost[rows, cols].max()
        np.testing.assert_array_equal(block_index[rows], cols // 2)

    def test_u1_spectrum_matches_scipy_eigvals(self):
        lay = BasisLayout(256)
        T = assemble_T("u1", ModelParams(lay))
        got = eigenvalues(T)
        dense = eigvals(T.dense())
        expected = dense[np.lexsort((-dense.imag, -dense.real))]
        assert np.all(np.abs(got - expected) <= 1e-9 * np.abs(expected))


class TestLinearizationAtZero:
    def test_matrix_is_exactly_Q_plus_K(self, layout16):
        params = ModelParams(layout16)
        t = assemble_T("u0", params).dense()
        qk = assemble(layout16, "Q") + assemble(layout16, "K", eps=EPS)
        np.testing.assert_array_equal(t, qk)

    def test_block_formulas(self):
        lo, hi = block_spectrum_u0(0, EPS)
        assert lo == 0.05j and hi == -0.05j
        lo, hi = block_spectrum_u0(1, EPS)
        assert lo == -2 + 0.025j and hi == -2 - 0.025j
        with pytest.raises(ValueError):
            block_spectrum_u0(-1, EPS)

    def test_dense_spectrum_matches_blocks(self, layout32):
        params = ModelParams(layout32)
        eigs = eigenvalues(assemble_T("u0", params))
        dist, block_index = match_blocks_u0(eigs, EPS, layout32.N)
        assert dist < 1e-10
        # each eigenvalue sits on the block whose real part it carries
        for lam, n in zip(eigs, block_index):
            assert lam.real == pytest.approx(-(n**2 + n), abs=1e-10)
        assert sorted(block_index.tolist()) == sorted(list(range(33)) * 2)

    def test_no_unstable_real_eigenvalue(self, layout32):
        # deep blocks (eps_n below the relative threshold) classify as real,
        # even in band; what the verdict needs is l = 0 plus the block match
        # above certifying that all of them are conjugate pairs off the axis
        params = ModelParams(layout32)
        eigs = eigenvalues(assemble_T("u0", params))
        report = classify_and_count(eigs, N=layout32.N)
        assert report.l_count_in_band == 0
        assert report.l_count == 0
        if len(report.real_eigs_in_band):
            assert np.all(report.real_eigs_in_band < -1.0)
        # every eigenvalue genuinely leaves the axis, down to the deepest block
        assert np.min(np.abs(eigs.imag)) >= EPS.values(layout32.N + 1)[layout32.N] - 1e-10

    def test_deep_blocks_defeat_any_fixed_threshold(self):
        # at N = 64 the coupling eps_64 ~ 1e-21 sits far below the relative
        # threshold, so raw threshold classification must call those eigenvalues
        # real; the l count still vanishes because they are strongly negative.
        lay = BasisLayout(64)
        eigs = eigenvalues(assemble_T("u0", ModelParams(lay)))
        report = classify_and_count(eigs, N=64)
        assert len(report.real_eigs) > 0
        assert report.l_count == 0
        assert report.l_count == report.l_count_in_band


class TestLinearizationAtOne:
    def test_matrix_decomposition(self, layout32):
        # T(u1) = Q + K + kappa*D + eps0 * mult(1 - sin x): the multiplier
        # samples are degree-one trig data, exact on the grid
        params = ModelParams(layout32)
        t = assemble_T("u1", params).dense()
        g = 1.0 - np.sin(layout32.grid)
        manual = (assemble(layout32, "Q")
                  + assemble(layout32, "K", eps=EPS)
                  + params.kappa * assemble(layout32, "D")
                  + EPS.eps0 * multiplier_from_samples(layout32, g))
        np.testing.assert_allclose(t, manual, atol=1e-12)

    def test_constant_direction_is_exact_eigenvector(self, layout32):
        params = ModelParams(layout32)
        t = assemble_T("u1", params).dense()
        one = stationary_state("u1", layout32)
        # exactly: Q_kappa 1 = 0, and -eps0 sin x cancels K 1 = eps0 sin x
        np.testing.assert_array_equal(t @ one, EPS.eps0 * one)

    def test_exactly_one_real_in_band_at_eps0(self, layout32):
        params = ModelParams(layout32)
        eigs = eigenvalues(assemble_T("u1", params))
        report = classify_and_count(eigs, N=layout32.N)
        assert len(report.real_eigs_in_band) == 1
        assert report.real_eigs_in_band[0] == pytest.approx(EPS.eps0, abs=1e-8)
        assert report.l_count_in_band == 1

    def test_truncation_artifact_sits_outside_band(self, layout32):
        # the dropped top-sine image leaves one strongly negative real
        # eigenvalue near -(N^2+N); the band excludes it by construction
        params = ModelParams(layout32)
        eigs = eigenvalues(assemble_T("u1", params))
        report = classify_and_count(eigs, N=layout32.N)
        out_of_band = report.real_eigs[np.abs(report.real_eigs) > report.band]
        assert len(out_of_band) >= 1
        N = layout32.N
        assert np.any(np.abs(out_of_band + N * N + N) < 0.1 * (N * N + N))

    def test_nonreal_spectrum_pairs_into_conjugates(self, layout32):
        params = ModelParams(layout32)
        eigs = eigenvalues(assemble_T("u1", params))
        report = classify_and_count(eigs, N=layout32.N)
        assert report.max_conjugate_mismatch < 1e-9


def _pair_order_dense(T, params, label):
    """The dense FFT-moment oracle of T at the stationary state label, permuted
    to pair order, and the band's cells."""
    slot = _pair_slots(T.N)
    rows, cols = _band_cells(len(T), T.b)
    return dense_T(stationary_state(label, params.layout), params)[np.ix_(slot, slot)], rows, cols


def _oracle_bound(params):
    """gamma_M (|kappa| N + eps0): how far the FFT-moment oracle's entries of
    T(u1) may stray from the closed form. Its multipliers eps0 (1 - sin x) and
    kappa are M-term moment sums of samples of that size, and kappa D scales the
    second by up to N; gamma_M |kappa| N >= 4 u |kappa| N^2 also covers rounding
    the sums into the Q diagonal."""
    return _gamma(params.layout.M) * (abs(params.kappa) * params.layout.N + params.eps.eps0)


class TestBandedT:
    """The band of T(u) in pair order against the dense oracle."""

    CASES = [(kind, N) for kind in ("u0", "u1") for N in (4, 16, 128)]

    @pytest.mark.parametrize("kind, N", CASES)
    def test_band_is_the_dense_matrix_and_the_tail_bounds_the_rest(self, kind, N):
        # the oracle keeps every FFT-moment entry: at u0 it is the band bit for
        # bit with nothing outside; at u1 it differs from the band by round-off,
        # inside the band and in the tail of entries outside it
        params = ModelParams(BasisLayout(N))
        T = assemble_T(kind, params)
        dense, rows, cols = _pair_order_dense(T, params, kind)
        band = T.diagonals[rows, cols - rows + T.b]
        rest = dense.copy()
        rest[rows, cols] = 0.0
        if kind == "u0":
            assert band.tobytes() == dense[rows, cols].tobytes()
            assert not rest.any()
        else:
            assert np.abs(band - dense[rows, cols]).max() <= _oracle_bound(params)
            assert np.abs(rest).max() <= _oracle_bound(params)
        off_band = np.ones(T.diagonals.shape, dtype=bool)
        off_band[rows, cols - rows + T.b] = False
        assert not T.diagonals[off_band].any()   # cells outside the matrix
        assert T.pair_blocks == (kind == "u0") and T.b == 3

    @pytest.mark.parametrize("N", [4, 16, 128, 512])
    def test_closed_form_is_the_fft_oracle(self, N):
        # T(u1) from the mode-map table against Q + K + M_{f_s} + M_{f_p} D
        # from FFT moments of the model's f_s and f_p samples, over the
        # kappa x eps0 grid
        for kappa in (1.01, 1.05, 1.25, 2.0, 4.0):
            for eps0 in (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
                params = ModelParams(BasisLayout(N), kappa=kappa, eps=EpsilonSequence(eps0, 0.5))
                closed = assemble_T("u1", params).dense()
                oracle = dense_T(stationary_state("u1", params.layout), params)
                assert np.abs(closed - oracle).max() <= _oracle_bound(params), (kappa, eps0)

    @pytest.mark.parametrize("kind", ["u1"])
    def test_band_discs_contain_the_dense_discs(self, kind):
        # exact arithmetic (mpmath, 40 digits) on V^-1 T V with the closed-form
        # T, whose band holds every entry: the band discs must contain the
        # exact ones
        mpmath = pytest.importorskip("mpmath")
        N, kappa = 16, 1.25
        params = ModelParams(BasisLayout(N))
        T = assemble_T(kind, params)
        dense = T.dense()
        cert = disc_certificate(T, kappa)
        d = np.sqrt(kappa * kappa - 1.0)
        v = (kappa, complex(1.0, d))
        dim = len(T)
        V = np.zeros((dim, dim), dtype=complex)
        V[0, 0] = 2.0**27
        V[-1, -1] = 1.0
        for n in range(1, N + 1):
            c, s = n, N + n
            V[c, c], V[s, c] = v
            V[c, s], V[s, s] = np.conj(v[0]), np.conj(v[1])
        with mpmath.workdps(40):
            Vm = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in V])
            Tm = mpmath.matrix([[mpmath.mpf(float(z)) for z in row] for row in dense])
            A = mpmath.inverse(Vm) * Tm * Vm
            for i in range(dim):
                exact_r = mpmath.fsum(abs(A[i, j]) for j in range(dim) if j != i)
                c = cert.centers[i]
                assert abs(A[i, i] - mpmath.mpc(c.real, c.imag)) + exact_r <= cert.radii[i]

    @pytest.mark.parametrize("N", [16, 128, 256, 512])
    def test_u0_spectrum_is_the_closed_form_bit_for_bit(self, N, eigvals_shapes):
        # read off the band with no eigensolve: exactly -(n^2+n) +- i eps_n,
        # and within 7e-18 of the dense solve of the FFT-moment oracle
        params = ModelParams(BasisLayout(N))
        eigs = eigenvalues(assemble_T("u0", params))
        assert eigvals_shapes == []
        closed = np.concatenate([block_spectrum_u0(n, EPS) for n in range(N + 1)])
        assert eigs.tobytes() == closed.tobytes()
        dense = dense_eigenvalues(dense_T(stationary_state("u0", params.layout), params))
        assert np.abs(eigs - dense).max() <= 7e-18

    def test_uncoupled_blocks_read_as_positive_zeros(self):
        # eps0 = 0: every block is a I, and a - 0i keeps +0.0 as Im, as a 2x2
        # eigensolve does, so spectrum_u0.csv is unchanged at eps0 = 0
        lay = BasisLayout(16)
        eigs = eigenvalues(assemble_T("u0", ModelParams(lay, eps=EpsilonSequence(0.0))))
        n = np.arange(lay.N + 1)
        np.testing.assert_array_equal(eigs.real, np.repeat(-(n * n + n), 2))
        assert not np.signbit(eigs.imag).any() and not eigs.imag.any()

    def test_verify_rows_build_no_dense_matrix(self, monkeypatch):
        import nldlab.spectra

        def refuse(self):
            raise AssertionError("dense T built on the verify path")

        monkeypatch.setattr(nldlab.spectra.BandedT, "dense", refuse)
        params = ModelParams(BasisLayout(16))
        kinds = [[row["evidence"]["kind"] for row in convergence_study(label, params).rows]
                 for label in ("u0", "u1")]
        assert kinds == [["blocks", "blocks"], ["windows", "gershgorin"]]


class TestQkappaBlocks:
    def test_closed_form(self):
        lo, hi = qkappa_spectrum(2, 1.25)
        assert lo == pytest.approx(-4 + 1.5j, abs=1e-15)
        assert hi == pytest.approx(-4 - 1.5j, abs=1e-15)
        lo, hi = qkappa_spectrum(1, np.sqrt(2.0))
        assert lo == pytest.approx(-1 + 1j, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            qkappa_spectrum(0, 1.25)
        with pytest.raises(ValueError):
            qkappa_spectrum(2, 1.0)

    @pytest.mark.parametrize("kappa", [1.1, 1.25, 2.0])
    def test_dense_blocks_match_closed_form(self, layout16, kappa):
        m = assemble(layout16, "Qkappa", kappa=kappa)
        N = layout16.N
        d = np.sqrt(kappa**2 - 1.0)
        for n in range(1, N + 1):
            sub = m[np.ix_([n, N + n], [n, N + n])]
            got = np.sort_complex(np.linalg.eigvals(sub))
            want = np.sort_complex(np.array(qkappa_spectrum(n, kappa)))
            np.testing.assert_allclose(got, want, atol=1e-10)
            assert np.all(np.abs(got.imag) >= d - 1e-12)

    def test_constant_mode_is_a_simple_zero(self, layout16):
        m = assemble(layout16, "Qkappa", kappa=1.25)
        assert np.all(m[0, :] == 0.0) and np.all(m[:, 0] == 0.0)
        eigs = dense_eigenvalues(m)
        assert np.sum(np.abs(eigs) < 1e-12) == 1


class TestClassification:
    def test_synthetic_counts(self):
        eigs = np.array([-1.0, 2.0, 3.0 + 4.0j, 3.0 - 4.0j])
        report = classify_and_count(eigs, N=64)
        np.testing.assert_allclose(np.sort(report.real_eigs), [-1.0, 2.0])
        assert report.l_count == 1
        assert report.max_conjugate_mismatch == 0.0
        assert report.min_abs_re == 1.0
        assert report.min_abs_lambda == 1.0

    def test_relative_imaginary_threshold(self):
        # |Im| = 1e-6 is nonreal next to lambda ~ 1 but real next to 1e3
        near = classify_and_count(np.array([1.0 + 1e-6j, 1.0 - 1e-6j]), N=64)
        assert len(near.real_eigs) == 0
        far = classify_and_count(np.array([1e3 + 1e-6j, 1e3 - 1e-6j]),
                                 tol_im=1e-8, N=64)
        assert len(far.real_eigs) == 2

    def test_zero_axis_guard(self):
        # reals below tol_re in magnitude do not count toward l
        eigs = np.array([5e-11, 0.05, -3.0])
        report = classify_and_count(eigs, N=64)
        assert report.l_count == 1

    def test_unpaired_nonreal_is_flagged(self):
        report = classify_and_count(np.array([1.0 + 1.0j]), N=64)
        assert report.max_conjugate_mismatch == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_conjugate_mismatch_is_the_full_search(self, seed):
        # conjugate-closed sets take the sorted shortcut, others the search
        rng = np.random.default_rng(seed)
        z = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        for eigs in (np.concatenate([z, np.conj(z)]),
                     np.concatenate([z, np.conj(z[:-3]) + 1e-3]), z):
            report = classify_and_count(eigs, N=64)
            nonreal = report.eigenvalues[~is_real(report.eigenvalues, report.tol_im)]
            full = np.abs(np.conj(nonreal)[:, None] - nonreal[None, :]).min(axis=1).max()
            assert report.max_conjugate_mismatch == full
        assert classify_and_count(np.concatenate([z, np.conj(z)]),
                                  N=64).max_conjugate_mismatch == 0.0

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            classify_and_count(np.array([1.0]), tol_im=0.0, N=64)
        with pytest.raises(ValueError):
            classify_and_count(np.array([1.0]), tol_re=-1.0, N=64)

    def test_band_restriction(self):
        eigs = np.array([0.05, -5000.0])
        report = classify_and_count(eigs, N=20)   # resolved band |Re| <= 100
        assert report.l_count == 1 and len(report.real_eigs) == 2
        assert len(report.real_eigs_in_band) == 1


class TestConvergence:
    def test_u0_stable_under_refinement(self):
        params = ModelParams(BasisLayout(16))
        study = convergence_study("u0", params)
        assert not study.flagged
        check = study.pair_checks[0]
        assert check["ok"] and check["classification_flips"] == 0
        assert check["l_in_band_pair"] == (0, 0)
        assert check["max_drift"] <= 1e-6

    def test_u1_stable_under_refinement(self):
        params = ModelParams(BasisLayout(16))
        study = convergence_study("u1", params)
        assert not study.flagged
        assert study.pair_checks[0]["l_in_band_pair"] == (1, 1)

    def test_impossible_drift_tolerance_flags(self, monkeypatch):
        import nldlab.spectra
        monkeypatch.setattr(nldlab.spectra, "DRIFT_TOL", 1e-30)
        study = convergence_study("u1", ModelParams(BasisLayout(16)))
        assert study.flagged and study.drift_tol == 1e-30

    def test_u1_double_truncation_is_certified_by_discs(self, monkeypatch):
        import nldlab.spectra
        seen = []
        original = nldlab.spectra.eigenvalues

        def counting(m, *args, **kwargs):
            seen.append(len(m))
            return original(m, *args, **kwargs)

        monkeypatch.setattr(nldlab.spectra, "eigenvalues", counting)
        params = ModelParams(BasisLayout(16))
        study = convergence_study("u1", params)
        assert seen == [34]
        dense, certified = study.rows
        assert dense["evidence"]["kind"] == "windows"
        assert set(dense["evidence"]) == {"kind", "margin", "isolation_gap"}
        evidence = certified["evidence"]
        assert evidence["kind"] == "gershgorin"
        assert evidence["margin"] > 0 and evidence["isolation_gap"] > 0
        assert evidence["anchor_radius"] == certified["report"].radii[0]
        check = study.pair_checks[0]
        assert check["outside_discs"] == 0 and check["classification_flips"] == 0
        anchor = dense["report"].real_eigs_in_band[0]
        assert check["max_drift"] == pytest.approx(
            abs(anchor - certified["report"].centers[0].real) + evidence["anchor_radius"])
        assert check["max_drift"] <= 1e-8

    def test_discs_missing_an_eigenvalue_flag_the_study(self, monkeypatch):
        # shrink every disc but disc 0 to its center: the N-level pairs then
        # lie outside every disc, which must flag the row pair
        import dataclasses
        import nldlab.spectra
        original = nldlab.spectra.disc_certificate

        def shrunk(*args):
            cert = original(*args)
            radii = np.where(np.arange(len(cert.radii)) == 0, cert.radii, 0.0)
            return dataclasses.replace(cert, radii=radii)

        monkeypatch.setattr(nldlab.spectra, "disc_certificate", shrunk)
        study = convergence_study("u1", ModelParams(BasisLayout(16)))
        assert study.rows[1]["evidence"]["kind"] == "gershgorin"
        check = study.pair_checks[0]
        assert check["outside_discs"] > 0 and check["classification_flips"] == 0
        assert study.flagged and not check["ok"]

    def test_real_classified_pairs_flip_against_their_discs(self):
        study = convergence_study("u1", ModelParams(BasisLayout(16)), tol_im=1e3)
        check = study.pair_checks[0]
        assert check["classification_flips"] > 0 and check["outside_discs"] == 0
        assert study.flagged

    def test_uncertified_double_truncation_falls_back_to_dense(self):
        # strong coupling: the pair discs reach the real axis
        params = ModelParams(BasisLayout(16), eps=EpsilonSequence(0.5, 0.5))
        study = convergence_study("u1", params)
        evidence = study.rows[1]["evidence"]
        assert evidence["kind"] == "dense" and evidence["margin"] < 0
        assert "anchor_radius" not in evidence
        assert len(study.rows[1]["report"].eigenvalues) == 66
        assert not study.flagged
        assert "outside_discs" not in study.pair_checks[0]

    @pytest.mark.parametrize("N", [16, 32, 64, 128, 256, 512])
    def test_u0_pairing_by_block_index_is_the_nearest_neighbour(self, N):
        study = convergence_study("u0", ModelParams(BasisLayout(N)))
        rep_a, rep_b = (row["report"] for row in study.rows)
        in_zone = rep_a.eigenvalues[np.abs(rep_a.eigenvalues.real) <= N**2 / 8.0]
        nearest = _drift_check(in_zone, _nearest(in_zone, rep_b.eigenvalues), TOL_IM_DEFAULT)
        check = study.pair_checks[0]
        assert (check["max_drift"], check["classification_flips"]) == (0.0, 0)
        assert (nearest["max_drift"], nearest["classification_flips"]) == (0.0, 0)

    def test_u0_study_makes_no_nearest_neighbour_search(self, monkeypatch):
        import nldlab.spectra

        def refuse(*args):
            raise AssertionError("nearest-neighbour search on u0")

        monkeypatch.setattr(nldlab.spectra, "_nearest", refuse)
        study = convergence_study("u0", ModelParams(BasisLayout(64)))
        assert not study.flagged and study.pair_checks[0]["max_drift"] == 0.0

    def test_moved_u0_value_at_2N_flags_the_study(self, monkeypatch):
        import dataclasses
        import nldlab.spectra
        original = nldlab.spectra._study_row

        def moved(label, params, *args):
            row = original(label, params, *args)
            if params.layout.N == 32:   # the 2N row: shift block 2's upper value
                eigs = row["report"].eigenvalues.copy()
                eigs[4] += 1e-3
                row["report"] = dataclasses.replace(row["report"], eigenvalues=eigs)
            return row

        monkeypatch.setattr(nldlab.spectra, "_study_row", moved)
        study = convergence_study("u0", ModelParams(BasisLayout(16)))
        check = study.pair_checks[0]
        assert study.flagged and not check["ok"]
        assert check["max_drift"] == pytest.approx(1e-3 / (1.0 + abs(study.rows[0]["report"]
                                                                     .eigenvalues[4])))

    def test_u0_rows_are_solved_on_pair_blocks(self):
        study = convergence_study("u0", ModelParams(BasisLayout(16)))
        assert [row["evidence"] for row in study.rows] == [{"kind": "blocks"}] * 2
        assert [row["N"] for row in study.rows] == [16, 32]


def _u1_params(N, kappa=1.25, eps0=0.05):
    return ModelParams(BasisLayout(N), kappa=kappa, eps=EpsilonSequence(eps0, 0.5))


def _u1_matrix(N, kappa=1.25, eps0=0.05):
    params = _u1_params(N, kappa, eps0)
    return assemble_T("u1", params)


def _set_entry(T, i, j, value):
    """Write value into the band of T at the layout slots (i, j)."""
    pos = np.argsort(_pair_slots(T.N))
    T.diagonals[pos[i], pos[j] - pos[i] + T.b] = value


def _disc_component(centers, radii, start=0):
    """Slots of the connected component of overlapping discs that holds start."""
    overlap = np.abs(centers[:, None] - centers[None, :]) <= radii[:, None] + radii[None, :]
    seen = {start}
    frontier = [start]
    while frontier:
        new = set(np.flatnonzero(overlap[frontier].any(axis=0))) - seen
        seen |= new
        frontier = sorted(new)
    return np.array(sorted(seen))


class TestDiscCertificate:
    """Gershgorin discs of V^-1 T(u1) V against the dense spectrum and an
    exact-arithmetic oracle."""

    @pytest.mark.parametrize("N", [8, 16, 32])
    @pytest.mark.parametrize("kappa", [1.05, 1.25, 2.0])
    @pytest.mark.parametrize("eps0", [0.05, 0.3])
    def test_discs_cover_the_dense_spectrum(self, N, kappa, eps0):
        cert = disc_certificate(_u1_matrix(2 * N, kappa, eps0), kappa)
        eigs = eigvals(_u1_matrix(2 * N, kappa, eps0).dense())
        inside = np.abs(eigs[:, None] - cert.centers[None, :]) <= cert.radii[None, :]
        assert inside.any(axis=1).all()
        # a union of k discs apart from the others holds exactly k eigenvalues
        component = _disc_component(cert.centers, cert.radii)
        assert np.sum(inside[:, component].any(axis=1)) == len(component)
        if cert.certified:
            assert list(component) == [0]
            (lam,) = eigs[inside[:, 0]]
            assert lam.imag == 0.0
            assert abs(lam.real - cert.centers[0].real) <= cert.radii[0]
            assert cert.l_count_in_band == 1
        else:
            assert cert.l_count_in_band == 0
        assert cert.certified == (cert.margin > 0 and cert.isolation_gap > 0)

    def test_default_disc_zero_is_tight_and_certified(self):
        cert = disc_certificate(_u1_matrix(256), 1.25)
        assert cert.certified
        assert abs(cert.centers[0] - 0.05) <= 1e-15
        assert cert.radii[0] <= 1e-8
        assert cert.margin > 0.5 and cert.isolation_gap > 1.0
        np.testing.assert_array_equal(cert.real_eigs_in_band, cert.centers[:1].real)

    def test_conjugate_slots_hold_conjugate_discs(self):
        cert = disc_certificate(_u1_matrix(16), 1.25)
        cos, sin = slice(1, 17), slice(17, 33)
        np.testing.assert_array_equal(cert.centers[sin], np.conj(cert.centers[cos]))
        np.testing.assert_array_equal(cert.radii[sin], cert.radii[cos])
        n = np.arange(1, 17)
        # centers near the Q_kappa pair -n^2 + i n sqrt(kappa^2 - 1)
        assert np.abs(cert.centers[cos] - (-n**2 + 0.75j * n)).max() < 0.1

    def test_rounded_radii_bound_the_exact_discs(self):
        # exact arithmetic (mpmath, 50 digits) on V^-1 T V with the same float
        # V: every float disc must contain the exact disc, and the slack stays
        # round-off sized. At kappa = 3 the pair vectors are scaled by 2^-1.
        mpmath = pytest.importorskip("mpmath")
        N = 8
        for kappa, scale in ((1.25, 1.0), (3.0, 0.5)):
            T = _u1_matrix(N, kappa).dense()
            cert = disc_certificate(_u1_matrix(N, kappa), kappa)
            dim = len(T)
            d = np.sqrt(kappa * kappa - 1.0)
            v = (scale * kappa, scale * complex(1.0, d))
            V = np.zeros((dim, dim), dtype=complex)
            V[0, 0] = 2.0**27
            V[-1, -1] = 1.0
            for n in range(1, N + 1):
                c, s = n, N + n
                V[c, c], V[s, c] = v
                V[c, s], V[s, s] = np.conj(v[0]), np.conj(v[1])
            with mpmath.workdps(50):
                Vm = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in V])
                Tm = mpmath.matrix([[mpmath.mpf(float(z)) for z in row] for row in T])
                A = mpmath.inverse(Vm) * Tm * Vm
                for i in range(dim):
                    exact_r = mpmath.fsum(abs(A[i, j]) for j in range(dim) if j != i)
                    c = cert.centers[i]
                    reach = abs(A[i, i] - mpmath.mpc(c.real, c.imag)) + exact_r
                    assert reach <= cert.radii[i]
                    assert cert.radii[i] - reach <= 1e-11 * (1 + abs(c))

    def test_extreme_kappa_has_one_real_eigenvalue_in_band(self):
        # kappa = 1e20, the 2N = 16 truncation: an mpmath eigensolve at 80
        # digits of the closed-form T(u1) finds the one in-band real eigenvalue
        # that the discs certify, eps0; every other one lies 1e19 off the axis
        # or, the top-sine artifact, outside the band
        mpmath = pytest.importorskip("mpmath")
        L, kappa = 16, 1e20
        T = _u1_matrix(L, kappa)
        cert = disc_certificate(T, kappa)
        assert cert.certified and cert.l_count_in_band == 1
        with mpmath.workdps(80):
            eigs = mpmath.eig(mpmath.matrix(T.dense().tolist()), left=False, right=False)
            real = [z for z in eigs if abs(mpmath.im(z)) <= mpmath.mpf(10)**-40 * (1 + abs(z))]
            in_band = [z for z in real if abs(mpmath.re(z)) <= resolved_band(L)]
            assert len(in_band) == 1 and len(real) == 2
            assert abs(in_band[0] - mpmath.mpf(0.05)) <= mpmath.mpf(10)**-60
            assert min(abs(mpmath.im(z)) for z in eigs if z not in real) > 1e19
        assert abs(cert.centers[0].real - 0.05) <= cert.radii[0]

    def test_two_real_eigenvalues_in_band_are_never_certified(self):
        # cut the drift coupling of the n = 1 pair: that block turns real
        # (about -2 and 0), so the band holds three real eigenvalues
        N = 16
        T = _u1_matrix(N)
        _set_entry(T, 1, N + 1, 0.0)
        _set_entry(T, N + 1, 1, 0.0)
        reals = eigvals(T.dense())
        in_band = reals[(reals.imag == 0) & (np.abs(reals.real) <= resolved_band(N))]
        assert len(in_band) >= 2
        cert = disc_certificate(T, 1.25)
        assert not cert.certified and cert.l_count_in_band == 0

    def test_nan_radius_reaches_the_band_and_never_certifies(self):
        # a NaN row sum gives its disc a NaN radius: the disc counts as
        # reaching the band, so the margin is NaN instead of a perfect 1.0
        T = _u1_matrix(16)
        _set_entry(T, 1, 2, np.nan)
        cert = disc_certificate(T, 1.25)
        assert np.isnan(cert.radii[1]) and np.isnan(cert.margin)
        assert not cert.certified and cert.l_count_in_band == 0

    def test_wrong_kappa_does_not_certify(self):
        # V built for another drift leaves the n-scaled drift in the radii
        assert not disc_certificate(_u1_matrix(32, kappa=2.0), 1.01).certified


class TestWindowedSpectrum:
    """The N-level T(u1) spectrum from windows inside its isolated discs, against
    the dense eigensolve."""

    @pytest.mark.parametrize("N, kappa, eps0", [
        (16, 1.25, 0.05), (16, 2.0, 0.3), (128, 1.25, 0.05), (128, 2.0, 0.3),
        (128, 1.25, 0.3), (256, 1.25, 0.05), (256, 4.0, 0.9), (512, 1.25, 0.05)])
    def test_windows_match_the_dense_spectrum(self, N, kappa, eps0):
        T = _u1_matrix(N, kappa, eps0)
        cert = disc_certificate(T, kappa)
        evidence = {}
        eigs = eigenvalues(T, cert, evidence)
        assert evidence == {"kind": "windows"}
        dense = eigenvalues(T)
        assert np.all(np.abs(eigs - dense) <= 1e-9 * (1.0 + np.abs(dense)))
        reals = eigs[eigs.imag == 0.0].real
        assert np.min(np.abs(reals - eps0)) <= 1e-12
        # sorted by (Re, Im) descending, each conjugate pair is adjacent
        pairs = eigs[eigs.imag != 0.0].reshape(-1, 2)
        np.testing.assert_array_equal(pairs[:, 1], np.conj(pairs[:, 0]))
        assert classify_and_count(eigs, N=N).max_conjugate_mismatch == 0.0

    def test_meeting_discs_keep_the_dense_spectrum(self):
        T = _u1_matrix(128, kappa=1.01)
        cert = disc_certificate(T, 1.01)
        assert not discs_disjoint(cert.centers, cert.radii)
        evidence = {}
        np.testing.assert_array_equal(eigenvalues(T, cert, evidence), eigenvalues(T))
        assert evidence == {"kind": "dense"}
        params = ModelParams(BasisLayout(128), kappa=1.01)
        row = convergence_study("u1", params).rows[0]
        assert row["evidence"]["kind"] == "dense"
        np.testing.assert_array_equal(row["report"].eigenvalues, eigenvalues(T))

    def test_values_outside_their_discs_fall_back_to_dense(self, monkeypatch):
        # radii shrunk to zero: the discs stay disjoint, but no window value
        # lies in its disc
        import dataclasses
        import nldlab.spectra
        original = nldlab.spectra.disc_certificate

        def shrunk(*args):
            cert = original(*args)
            return dataclasses.replace(cert, radii=np.zeros_like(cert.radii))

        monkeypatch.setattr(nldlab.spectra, "disc_certificate", shrunk)
        study = convergence_study("u1", ModelParams(BasisLayout(16)))
        row = study.rows[0]
        assert row["evidence"]["kind"] == "dense"
        np.testing.assert_array_equal(row["report"].eigenvalues, eigenvalues(_u1_matrix(16)))

    def test_discs_must_match_the_matrix(self):
        cert = disc_certificate(_u1_matrix(16), 1.25)
        with pytest.raises(ValueError, match="34 discs"):
            eigenvalues(_u1_matrix(32), cert)


def _brute_force_disjoint(centers, radii):
    return not any(abs(centers[i] - centers[j]) <= radii[i] + radii[j]
                   for i in range(len(centers)) for j in range(i + 1, len(centers)))


_grid = st.integers(-8, 8).map(lambda k: k / 2.0)
_disc = st.tuples(_grid, _grid, _grid.map(abs)) | st.tuples(
    st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 20))


class TestDiscsDisjoint:
    @settings(max_examples=400, deadline=None)
    @given(discs=st.lists(_disc, max_size=12),
           conjugates=st.lists(st.tuples(_grid, _grid), max_size=4))
    def test_sweep_agrees_with_brute_force(self, discs, conjugates):
        # half-integer discs are often tangent; a conjugate pair with
        # r = |Im c| touches the real axis, and so its partner, at one point
        centers = [complex(x, y) for x, y, _ in discs]
        radii = [r for _, _, r in discs]
        for x, y in conjugates:
            centers += [complex(x, y), complex(x, -y)]
            radii += [abs(y), abs(y)]
        centers, radii = np.array(centers, dtype=complex), np.array(radii, dtype=float)
        assert discs_disjoint(centers, radii) == _brute_force_disjoint(centers, radii)

    def test_tangent_discs_meet(self):
        assert not discs_disjoint(np.array([0.0, 2.0j]), np.array([1.0, 1.0]))
        assert discs_disjoint(np.array([0.0, 2.0j]), np.array([1.0, 0.999]))
        assert not discs_disjoint(np.array([1.0 + 0.5j, 1.0 - 0.5j]), np.array([0.5, 0.5]))
        # |c_0 - c_1| and r_0 + r_1 both round to 4.19, but Re c_1 - r_1 rounds
        # one ulp above Re c_0 + r_0: only the widened intervals overlap
        centers, radii = np.array([2.681, 6.871]), np.array([0.82, 3.37])
        assert centers[1] - radii[1] > centers[0] + radii[0]
        assert not _brute_force_disjoint(centers, radii)
        assert not discs_disjoint(centers, radii)

    def test_unproven_radii(self):
        assert discs_disjoint(np.array([0.0, 10.0]), np.array([1.0, 1.0]))
        assert not discs_disjoint(np.array([0.0, 10.0]), np.array([1.0, np.nan]))
        assert not discs_disjoint(np.array([0.0, 10.0]), np.array([1.0, np.inf]))


_point = st.tuples(_grid, _grid) | st.tuples(st.floats(-60, 60), st.floats(-60, 60))


class TestDiscMembership:
    @settings(max_examples=300, deadline=None)
    @given(discs=st.lists(_disc, min_size=1, max_size=12), points=st.lists(_point, max_size=12),
           broken=st.sampled_from([None, np.inf, np.nan]))
    def test_sorted_scan_agrees_with_brute_force(self, discs, points, broken):
        centers = np.array([complex(x, y) for x, y, _ in discs])
        radii = np.array([r for _, _, r in discs], dtype=float)
        if broken is not None:   # a radius that is not finite takes the full scan
            radii[0] = broken
        z = np.array([complex(x, y) for x, y in points], dtype=complex)
        brute = (np.abs(z[:, None] - centers[None, :]) <= radii[None, :]).any(axis=1)
        np.testing.assert_array_equal(_in_some_disc(z, centers, radii), brute)


class TestEps0Scan:
    def test_anchor_tracks_eps0(self, layout32):
        params = ModelParams(layout32)
        report = eps0_threshold_scan(params, [0.05, 0.2])
        assert [r["real_count_in_band"] for r in report.rows] == [1, 1]
        for row in report.rows:
            assert row["anchor"] == pytest.approx(row["eps0"], rel=1e-6)
            assert row["l_count_in_band"] == 1
        assert report.largest_single == 0.2

    def test_strong_coupling_row_reports(self, layout32):
        params = ModelParams(layout32)
        report = eps0_threshold_scan(params, [0.9])
        assert len(report.rows) == 1
        assert report.rows[0]["eps0"] == 0.9
        assert np.isfinite(report.rows[0]["real_count_in_band"])

    def test_rejects_out_of_range(self, layout32):
        params = ModelParams(layout32)
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                eps0_threshold_scan(params, [bad])


class TestStationarySpectrumKappaGuard:
    # the row-sum guard of convergence_study, applied at N: at N = 16 it admits
    # kappa up to LARGEST, twice the largest that verify admits at 2N = 32
    LARGEST = 2.8088955232223683e306

    @pytest.mark.parametrize("label", ["u0", "u1"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_largest_admitted_kappa_runs_without_a_warning(self, label, sign):
        rep = stationary_spectrum(label, ModelParams(BasisLayout(16), kappa=sign * self.LARGEST))
        assert rep.l_count_in_band == (label == "u1")

    def test_next_kappa_up_is_rejected(self):
        kappa = float(np.nextafter(self.LARGEST, np.inf))
        with pytest.raises(ValueError, match=r"kappa = .* overflows the largest row sum of the "
                                             r"disc certificate at N = 16"):
            stationary_spectrum("u1", ModelParams(BasisLayout(16), kappa=kappa))

    @pytest.mark.parametrize("kappa", [float(np.nextafter(LARGEST, np.inf)), 1.7e308])
    def test_u0_runs_above_the_bound(self, kappa):
        # T(u0) = Q + K never reads kappa
        rep = stationary_spectrum("u0", ModelParams(BasisLayout(16), kappa=kappa))
        assert rep.l_count_in_band == 0


class TestGapCheck:
    def test_ladder_structure(self):
        rep = gap_check(0.5, 10)
        np.testing.assert_array_equal(rep.lambda_seq[:5], [1.0, 2.0, 2.0, 5.0, 5.0])
        assert len(rep.lambda_seq) == 2 * 10 + 1
        np.testing.assert_array_equal(rep.jump_gap, 2.0 * np.arange(10) + 1.0)
        assert np.all(rep.ratios[1::2] == 0.0)  # repeated eigenvalues
        np.testing.assert_array_equal(rep.ratios[::2], rep.jump_ratio)

    def test_sqrt_weight_saturates_below_one(self):
        rep = gap_check(0.5, 2000)
        assert rep.sup_estimate < 1.0
        assert rep.jump_ratio[-1] > 0.999
        assert np.all(np.diff(rep.jump_ratio) > 0)

    def test_raw_gaps_grow_without_bound(self):
        rep = gap_check(0.0, 60)
        assert rep.running_max_gap[49] == 99.0
        assert rep.running_max_gap[50] == 101.0
        assert np.all(np.diff(rep.running_max_gap) >= 0)

    def test_large_theta_collapses_ratios(self):
        rep = gap_check(0.875, 500)
        assert rep.sup_estimate < 0.6
        assert rep.jump_ratio[-1] < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            gap_check(1.0, 100)
        with pytest.raises(ValueError):
            gap_check(0.5, 5)
