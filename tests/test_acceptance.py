"""Acceptance gate: the ten headline guarantees, one pass/fail line each.

Each test is self-contained and states its tolerance inline. Budgeted wall
times are asserted where the guarantee includes one.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import linear_sum_assignment

from nldlab.basis import random_state, theta_norm
from nldlab.model import f
from nldlab.semiflow import (absorbing_radius, dissipativity_probe, integrate,
                             instability_growth_rate, stationary_residual)
from nldlab.spectra import (assemble_T, classify_and_count, eigenvalues,
                            gap_check, match_blocks_u0, stationary_state)
from nldlab.verdict import OBSTRUCTED, RunConfig, run_verify
from oracles import assemble, dense_eigenvalues, f_p, f_s, qkappa_spectrum


@pytest.fixture(scope="module")
def defaults():
    return RunConfig().model_params()  # N=128, kappa=1.25, eps0=0.05, rho=0.5


def test_criterion_01_operator_identities(defaults):
    layout = defaults.layout
    N = layout.N
    t0 = time.perf_counter()
    J = assemble(layout, "J")
    B = assemble(layout, "B")
    D = assemble(layout, "D")
    R = assemble(layout, "reflect")
    G = assemble(layout, "G")
    K = assemble(layout, "K", eps=defaults.eps)
    # zero-mean modes cos 1..N and sin 1..N (the top sine leaves the band
    # under J and d/dx, so the involution holds away from it)
    modes = list(range(1, N + 1)) + list(range(N + 1, 2 * N + 1))
    eye = np.eye(layout.dim)
    assert np.abs((J @ J)[:, modes] - eye[:, modes]).max() <= 1e-12
    assert np.abs((D @ B)[:, modes] - J[:, modes]).max() <= 1e-12
    assert np.abs(J - R @ G).max() <= 1e-12
    assert np.linalg.norm(K, 2) == defaults.eps.eps0
    assert np.array_equal(K.T, -K)
    assert np.array_equal(B.T, B)
    assert np.array_equal(J.T, J)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_block_spectrum_at_zero_state(defaults):
    layout = defaults.layout
    N = layout.N
    T = assemble_T("u0", defaults)
    # everything outside the 2x2 blocks {cos n, sin(n+1)} is exactly zero
    mask = np.zeros((layout.dim, layout.dim), bool)
    for n in range(N + 1):
        pair = (n, N + 1 + n)
        mask[np.ix_(pair, pair)] = True
    assert not T.dense()[~mask].any()
    eigs = eigenvalues(T)
    dist, _ = match_blocks_u0(eigs, defaults.eps, N)
    assert dist <= 1e-10
    assert np.abs(eigs.imag).min() >= defaults.eps.values(N + 1)[N] - 1e-10
    # no positive real eigenvalue, raw or band-restricted (deep blocks have
    # imaginary parts below any fixed threshold, but their real parts are
    # strictly negative, which is what the count tracks)
    rep = classify_and_count(eigs, point_label="u0", N=N)
    assert rep.l_count == 0
    assert rep.l_count_in_band == 0


def test_criterion_03_shifted_drift_blocks(defaults):
    layout = defaults.layout
    N = layout.N
    for kappa in (1.1, 1.25, 2.0):
        d = np.sqrt(kappa**2 - 1.0)
        m = assemble(layout, "Qkappa", kappa=kappa)
        for n in range(1, N + 1):
            sub = m[np.ix_([n, N + n], [n, N + n])]
            got = np.sort_complex(np.linalg.eigvals(sub))
            want = np.sort_complex(np.array(qkappa_spectrum(n, kappa)))
            assert np.abs(got - want).max() <= 1e-10
        eigs = dense_eigenvalues(assemble(layout, "Qkappa", kappa=kappa))
        assert np.sum(np.abs(eigs) < 1e-10) == 1  # simple zero at the constant
        nonzero = eigs[np.abs(eigs) >= 1e-10]
        # the unpaired top sine is a pure truncation mode; identify it exactly
        # rather than ignore it
        artifact = np.abs(nonzero - (-(N**2 + N))) < 1e-6
        assert artifact.sum() == 1 and nonzero[artifact].imag[0] == 0.0
        assert np.abs(nonzero[~artifact].imag).min() >= d - 1e-10


def test_criterion_04_single_real_eigenvalue_at_unit_state():
    anchors = {}
    for N in (128, 256):
        params = RunConfig(N=N).model_params()
        T = assemble_T("u1", params)
        one = stationary_state("u1", params.layout)
        np.testing.assert_allclose(T.dense() @ one, params.eps.eps0 * one,
                                   atol=1e-15)
        rep = classify_and_count(eigenvalues(T), point_label="u1", N=N)
        assert len(rep.real_eigs_in_band) == 1
        assert rep.l_count_in_band == 1
        anchors[N] = rep.real_eigs_in_band[0]
        assert anchors[N] == pytest.approx(0.05, abs=1e-8)
    assert abs(anchors[128] - anchors[256]) <= 1e-8


def test_criterion_05_verdict_pipeline_obstructed():
    t0 = time.perf_counter()
    report = run_verify(RunConfig())
    elapsed = time.perf_counter() - t0
    assert report.verdict == OBSTRUCTED
    assert report.l_values == (0, 1)
    assert report.parity == 1
    assert report.failed_stage is None
    assert elapsed < 120.0


def test_criterion_06_stationarity_and_integrator_drift(defaults):
    layout = defaults.layout
    u0 = stationary_state("u0", layout)
    u1 = stationary_state("u1", layout)
    assert stationary_residual(u0, defaults) <= 1e-10
    assert stationary_residual(u1, defaults) <= 1e-10
    for u in (u0, u1):
        final = integrate(u, defaults, T=1e4 * defaults.dt).states[-1]
        drift = theta_norm(layout, final - u, defaults.theta)
        assert drift <= 1e-9


def test_criterion_07_nonlinearity_contract(defaults):
    eps0, kappa = defaults.eps.eps0, defaults.kappa
    x = np.linspace(-np.pi, np.pi, 33, endpoint=False)
    s = np.linspace(-4.0, 4.0, 161)
    p = np.linspace(-4.0, 4.0, 161)
    X, S, P = np.meshgrid(x, s, p, indexing="ij")
    F, FS, FP = (g(X, S, P, defaults) for g in (f, f_s, f_p))
    assert np.abs(S + F).max() <= 3.5
    assert np.abs(FS).max() <= 10.0
    assert np.abs(FP).max() <= 5.0
    h = 1e-4
    fs_fd = (f(X, S + h, P, defaults) - f(X, S - h, P, defaults)) / (2 * h)
    fp_fd = (f(X, S, P + h, defaults) - f(X, S, P - h, defaults)) / (2 * h)
    assert np.abs(FS - fs_fd).max() <= 1e-6
    assert np.abs(FP - fp_fd).max() <= 1e-6
    # pointwise identities pinning both stationary states and both
    # linearization multipliers
    zero = np.zeros_like(x)
    assert np.abs(f(x, zero, zero, defaults)).max() <= 1e-12
    assert np.abs(f_s(x, zero, zero, defaults)).max() <= 1e-12
    assert np.abs(f_p(x, zero, zero, defaults)).max() <= 1e-12
    one = np.ones_like(x)
    assert np.abs(f(x, one, zero, defaults) + eps0 * np.sin(x)).max() <= 1e-12
    assert np.abs(f_s(x, one, zero, defaults)
                  - eps0 * (1.0 - np.sin(x))).max() <= 1e-12
    assert np.abs(f_p(x, one, zero, defaults) - kappa).max() <= 1e-12
    far = np.array([-4.0, -2.5, -2.0, 2.0, 2.5, 4.0])
    XF, SF = np.meshgrid(x, far, indexing="ij")
    assert np.abs(SF + f(XF, SF, np.zeros_like(SF), defaults)).max() <= 1e-12


def test_criterion_08_gap_ratios():
    mid = gap_check(0.5, 10000)
    assert mid.sup_estimate < 1.0
    raw = gap_check(0.0, 10000)
    assert raw.running_max_gap[49] < 100.0
    assert raw.running_max_gap[50] > 100.0


def test_criterion_09_absorbing_radius():
    assert absorbing_radius(1.0, 1.0, 1.0, 0.5) == pytest.approx(
        np.sqrt(np.pi), abs=1e-10)
    for theta in (0.0, 0.25, 0.5, 0.875):
        for delta in (1.0, 0.8):
            # substitute t = v^(1/(1-theta)) so the integrand is smooth at 0,
            # then truncate where the tail is below 1e-25
            power = 1.0 / (1.0 - theta)
            upper = (60.0 / delta) ** (1.0 - theta)
            val, err = quad(lambda v: power * np.exp(-delta * v**power),
                            0.0, upper, epsabs=1e-12, limit=200)
            assert err < 1e-7
            assert abs(absorbing_radius(1.0, 1.0, delta, theta) - val) <= 1e-8


def test_criterion_10_empirical_dissipativity(defaults):
    t0 = time.perf_counter()
    seeds = [(f"random:{s}", random_state(defaults.layout, s, defaults.theta, 10.0))
             for s in range(10)]
    report = dissipativity_probe(seeds, defaults, R_in=10.0)
    assert report.failed == []
    assert all(np.isfinite(t) for t in report.tail_norms)
    rate = instability_growth_rate(defaults)
    assert rate == pytest.approx(defaults.eps.eps0, rel=0.1)
    assert time.perf_counter() - t0 < 300.0
