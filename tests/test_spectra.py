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
    block_spectrum_u0,
    classify_and_count,
    convergence_study,
    eigenvalues,
    eps0_threshold_scan,
    gap_check,
    multiplier_from_samples,
    qkappa_spectrum,
    resolved_band,
    stationary_state,
)
from nldlab.spectra import (TOL_IM_DEFAULT, TOL_RE_DEFAULT, disc_certificate, discs_disjoint,
                            match_blocks_u0)
from nldlab.verdict import BLOCK_MATCH_TOL

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

    def test_eigenvalues_sorted_re_then_im_descending(self, layout16):
        m = np.zeros((layout16.dim, layout16.dim))
        m[0, 0] = 3.0
        m[1, 1] = 1.0
        m[2, 3] = -2.0
        m[3, 2] = 2.0  # block with eigenvalues +-2i
        eigs = eigenvalues(m)
        assert eigs[0] == pytest.approx(3.0)
        assert eigs[1] == pytest.approx(1.0)
        # descending real part overall, and +2i listed before its conjugate
        assert np.all(np.diff(eigs.real) <= 1e-12)
        assert np.flatnonzero(eigs.imag > 1.0)[0] < np.flatnonzero(eigs.imag < -1.0)[0]

    def test_eigenvalues_rejects_nonfinite(self, layout16):
        m = np.zeros((layout16.dim, layout16.dim))
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            eigenvalues(m)


def _permuted_block_triangular(rng, dim):
    """A random upper block-triangular matrix with mixed 1x1, 2x2 and 3x3
    diagonal blocks, symmetrically permuted.

    Block i is centred at -3i, so the blocks' spectra stay apart and the dense
    solve of the whole (non-normal) matrix is an accurate oracle.
    """
    sizes = []
    while sum(sizes) < dim:
        sizes.append(int(min(rng.integers(1, 4), dim - sum(sizes))))
    starts = np.cumsum([0] + sizes)
    m = np.zeros((dim, dim))
    for i, (a, b) in enumerate(zip(starts[:-1], starts[1:])):
        m[a:b, a:b] = -3.0 * i * np.eye(b - a) + 0.5 * rng.standard_normal((b - a, b - a))
        m[a:b, b:] = rng.standard_normal((b - a, dim - b)) * (rng.random((b - a, dim - b)) < 0.3)
    perm = rng.permutation(dim)
    return m[perm][:, perm]


class TestBlockEigenvalues:
    """eigenvalues() on reducible and irreducible zero patterns agrees with the
    dense oracle, whichever path it takes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_permuted_block_triangular_matches_dense(self, seed, layout16):
        rng = np.random.default_rng(seed)
        m = _permuted_block_triangular(rng, layout16.dim)
        eigs = eigenvalues(m)
        dense = eigvals(m)
        rows, cols = linear_sum_assignment(np.abs(eigs[:, None] - dense[None, :]))
        assert np.abs(eigs[rows] - dense[cols]).max() <= 1e-12
        assert np.all(np.diff(eigs.real) <= 0.0)

    @pytest.mark.parametrize("triangle", [np.triu, np.tril])
    def test_triangular_splits_into_exact_diagonal(self, triangle, layout16, rng):
        # a triangular matrix's eigenvalues are its diagonal, exactly
        m = triangle(1.0 + rng.random((layout16.dim, layout16.dim)))
        eigs = eigenvalues(m)
        assert eigs.dtype == complex   # as from the dense solve, though all are real
        np.testing.assert_array_equal(eigs, np.sort(np.diag(m))[::-1])

    @pytest.mark.parametrize("kind", ["dense", "sparse cycle"])
    def test_irreducible_is_one_dense_solve(self, kind, layout16, rng):
        dim = layout16.dim
        if kind == "dense":
            m = rng.standard_normal((dim, dim))
        else:   # one cycle through every node, most entries zero
            m = np.diag(rng.standard_normal(dim))
            m[np.arange(dim), np.roll(np.arange(dim), 1)] = rng.standard_normal(dim)
        dense = eigvals(m)
        expected = dense[np.lexsort((-dense.imag, -dense.real))]
        got = eigenvalues(m)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    def test_u0_at_N512_matches_closed_form_blocks(self):
        lay = BasisLayout(512)
        eigs = eigenvalues(assemble_T(stationary_state("u0", lay), ModelParams(lay)))
        dist, _ = match_blocks_u0(eigs, EPS, lay.N)
        assert dist <= BLOCK_MATCH_TOL


def _pair_block_matrix(rng, half):
    """A random (2 half, 2 half) matrix whose nonzero entries all lie in the 2x2
    blocks of the slot pairs (n, half + n)."""
    m = np.zeros((2 * half, 2 * half))
    n = np.arange(half)
    for a in (0, half):
        for b in (0, half):
            m[a + n, b + n] = rng.standard_normal(half)
    return m


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
    """A matrix supported on the K-pair blocks {cos nx, sin (n+1)x} is solved as
    one batch of 2x2 blocks; every other matrix takes one dense solve."""

    def test_u0_is_one_batch_of_pair_blocks(self, layout16, eigvals_shapes):
        eigs = eigenvalues(assemble_T(stationary_state("u0", layout16), ModelParams(layout16)))
        assert eigvals_shapes == [(17, 2, 2)]
        dist, _ = match_blocks_u0(eigs, EPS, layout16.N)
        assert dist <= BLOCK_MATCH_TOL

    def test_pair_block_matrix_matches_dense(self, layout16, rng, eigvals_shapes):
        m = _pair_block_matrix(rng, layout16.N + 1)
        dense = eigvals(m)
        eigs = eigenvalues(m)
        assert eigvals_shapes == [(17, 2, 2)]
        rows, cols = linear_sum_assignment(np.abs(eigs[:, None] - dense[None, :]))
        assert np.abs(eigs[rows] - dense[cols]).max() <= 1e-12
        assert np.all(np.diff(eigs.real) <= 0.0)

    @pytest.mark.parametrize("kind", ["u1", "stray entry", "odd dimension"])
    def test_other_patterns_take_one_dense_solve(self, kind, layout16, rng, eigvals_shapes):
        if kind == "u1":
            m = assemble_T(stationary_state("u1", layout16), ModelParams(layout16))
        elif kind == "stray entry":   # slot 5 is outside the pair (0, 17)
            m = _pair_block_matrix(rng, layout16.N + 1)
            m[0, 5] = 1.0
        else:
            m = _pair_block_matrix(rng, layout16.N + 1)[:-1, :-1]
        dense = eigvals(m)
        expected = dense[np.lexsort((-dense.imag, -dense.real))]
        got = eigenvalues(m)
        assert eigvals_shapes == [m.shape]
        assert np.all(np.abs(got - expected) <= 1e-12 * (1.0 + np.abs(expected)))


class TestScipyOracles:
    """The numpy-only block pairing and eigensolve against scipy, which only
    the tests import."""

    @pytest.mark.parametrize("shuffle", [False, True])
    @pytest.mark.parametrize("N", [16, 128, 512])
    def test_block_pairing_is_the_optimal_assignment(self, N, shuffle, rng):
        lay = BasisLayout(N)
        eigs = eigenvalues(assemble_T(stationary_state("u0", lay), ModelParams(lay)))
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
        T = assemble_T(stationary_state("u1", lay), ModelParams(lay))
        got = eigenvalues(T)
        dense = eigvals(T)
        expected = dense[np.lexsort((-dense.imag, -dense.real))]
        assert np.all(np.abs(got - expected) <= 1e-9 * np.abs(expected))


class TestLinearizationAtZero:
    def test_matrix_is_exactly_Q_plus_K(self, layout16):
        params = ModelParams(layout16)
        t = assemble_T(stationary_state("u0", layout16), params)
        qk = assemble(layout16, "Q") + assemble(layout16, "K", eps=EPS)
        np.testing.assert_array_equal(t, qk)

    def test_zero_multipliers_are_skipped_bit_for_bit(self, layout16, monkeypatch):
        # the samples of f_s and f_p vanish at u0: no multiplier is built, and
        # the matrix is the one the zero multipliers would have given
        import nldlab.spectra
        params = ModelParams(layout16)
        u0 = stationary_state("u0", layout16)
        lazy = assemble_T(u0, params)
        zero = np.zeros((layout16.dim, layout16.dim))
        d = nldlab.spectra.mode_map(layout16, "D")
        eager = lazy + zero
        eager[:, d.cols] += zero[:, d.rows] * d.values
        assert lazy.tobytes() == eager.tobytes()
        built = []
        monkeypatch.setattr(nldlab.spectra, "multiplier_from_samples",
                            lambda *args: built.append(args) or multiplier_from_samples(*args))
        assemble_T(u0, params)
        assert built == []
        assemble_T(stationary_state("u1", layout16), params)
        assert len(built) == 2

    def test_block_formulas(self):
        lo, hi = block_spectrum_u0(0, EPS)
        assert lo == 0.05j and hi == -0.05j
        lo, hi = block_spectrum_u0(1, EPS)
        assert lo == -2 + 0.025j and hi == -2 - 0.025j
        with pytest.raises(ValueError):
            block_spectrum_u0(-1, EPS)

    def test_dense_spectrum_matches_blocks(self, layout32):
        params = ModelParams(layout32)
        eigs = eigenvalues(assemble_T(stationary_state("u0", layout32), params))
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
        eigs = eigenvalues(assemble_T(stationary_state("u0", layout32), params))
        report = classify_and_count(eigs, N=layout32.N)
        assert report.l_count_in_band == 0
        assert report.l_count == 0
        if len(report.real_eigs_in_band):
            assert np.all(report.real_eigs_in_band < -1.0)
        # every eigenvalue genuinely leaves the axis, down to the deepest block
        assert np.min(np.abs(eigs.imag)) >= EPS.value(layout32.N) - 1e-10

    def test_deep_blocks_defeat_any_fixed_threshold(self):
        # at N = 64 the coupling eps_64 ~ 1e-21 sits far below the relative
        # threshold, so raw threshold classification must call those eigenvalues
        # real; the l count still vanishes because they are strongly negative.
        lay = BasisLayout(64)
        eigs = eigenvalues(assemble_T(stationary_state("u0", lay), ModelParams(lay)))
        report = classify_and_count(eigs, N=64)
        assert len(report.real_eigs) > 0
        assert report.l_count == 0
        assert report.l_count == report.l_count_in_band


class TestLinearizationAtOne:
    def test_matrix_decomposition(self, layout32):
        # T(u1) = Q + K + kappa*D + eps0 * mult(1 - sin x): the multiplier
        # samples are degree-one trig data, exact on the grid
        params = ModelParams(layout32)
        t = assemble_T(stationary_state("u1", layout32), params)
        g = 1.0 - np.sin(layout32.grid)
        manual = (assemble(layout32, "Q")
                  + assemble(layout32, "K", eps=EPS)
                  + params.kappa * assemble(layout32, "D")
                  + EPS.eps0 * multiplier_from_samples(layout32, g))
        np.testing.assert_allclose(t, manual, atol=1e-12)

    def test_constant_direction_is_exact_eigenvector(self, layout32):
        params = ModelParams(layout32)
        t = assemble_T(stationary_state("u1", layout32), params)
        one = stationary_state("u1", layout32)
        np.testing.assert_allclose(t @ one, EPS.eps0 * one, atol=1e-15)

    def test_exactly_one_real_in_band_at_eps0(self, layout32):
        params = ModelParams(layout32)
        eigs = eigenvalues(assemble_T(stationary_state("u1", layout32), params))
        report = classify_and_count(eigs, N=layout32.N)
        assert len(report.real_eigs_in_band) == 1
        assert report.real_eigs_in_band[0] == pytest.approx(EPS.eps0, abs=1e-8)
        assert report.l_count_in_band == 1

    def test_truncation_artifact_sits_outside_band(self, layout32):
        # the dropped top-sine image leaves one strongly negative real
        # eigenvalue near -(N^2+N); the band excludes it by construction
        params = ModelParams(layout32)
        eigs = eigenvalues(assemble_T(stationary_state("u1", layout32), params))
        report = classify_and_count(eigs, N=layout32.N)
        out_of_band = report.real_eigs[np.abs(report.real_eigs) > report.band]
        assert len(out_of_band) >= 1
        N = layout32.N
        assert np.any(np.abs(out_of_band + N * N + N) < 0.1 * (N * N + N))

    def test_nonreal_spectrum_pairs_into_conjugates(self, layout32):
        params = ModelParams(layout32)
        eigs = eigenvalues(assemble_T(stationary_state("u1", layout32), params))
        report = classify_and_count(eigs, N=layout32.N)
        assert report.max_conjugate_mismatch < 1e-9


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
        eigs = eigenvalues(m)
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

    def test_u0_rows_are_solved_on_pair_blocks(self):
        study = convergence_study("u0", ModelParams(BasisLayout(16)))
        assert [row["evidence"] for row in study.rows] == [{"kind": "blocks"}] * 2
        assert [row["N"] for row in study.rows] == [16, 32]


def _u1_matrix(N, kappa=1.25, eps0=0.05):
    params = ModelParams(BasisLayout(N), kappa=kappa, eps=EpsilonSequence(eps0, 0.5))
    return assemble_T(stationary_state("u1", params.layout), params)


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
        T = _u1_matrix(2 * N, kappa, eps0)
        cert = disc_certificate(T, kappa)
        eigs = eigvals(T)
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
            T = _u1_matrix(N, kappa)
            cert = disc_certificate(T, kappa)
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

    def test_two_real_eigenvalues_in_band_are_never_certified(self):
        # cut the drift coupling of the n = 1 pair: that block turns real
        # (about -2 and 0), so the band holds three real eigenvalues
        N = 16
        T = _u1_matrix(N)
        T[1, N + 1] = T[N + 1, 1] = 0.0
        reals = eigvals(T)
        in_band = reals[(reals.imag == 0) & (np.abs(reals.real) <= resolved_band(N))]
        assert len(in_band) >= 2
        cert = disc_certificate(T, 1.25)
        assert not cert.certified and cert.l_count_in_band == 0

    def test_nan_radius_reaches_the_band_and_never_certifies(self):
        # a NaN row sum gives its disc a NaN radius: the disc counts as
        # reaching the band, so the margin is NaN instead of a perfect 1.0
        T = _u1_matrix(16)
        T[1, 5] = np.nan
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
