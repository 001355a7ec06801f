"""Spectral laboratory for a parabolic equation with nonlocal diffusion on the
circle: exact operator bank, cutoff nonlinearity, IMEX semiflow, eigenvalue
classification, and a machine-checked parity-obstruction verdict."""

from .basis import BasisLayout, analysis_residual, random_state, theta_norm
from .cutoffs import chi, eta, gamma, mu, omega, psi, w
from .model import ModelParams, evaluate_F, f, f_p, f_s
from .operators import (B_CONSTANT_VALUE, EpsilonSequence, assemble, l2_operator_norm,
                        mode_map)
from .semiflow import (DissipativityReport, Trajectory, absorbing_radius,
                       dissipativity_probe, instability_growth_rate, integrate,
                       stationary_residual, step_imex)
from .spectra import (BandedT, GapReport, SpectrumReport, assemble_T, classify_and_count,
                      convergence_study, eigenvalues, eps0_threshold_scan, gap_check,
                      qkappa_spectrum, resolved_band, stationary_state)
from .verdict import (INCONCLUSIVE, NOT_OBSTRUCTED, OBSTRUCTED, RunConfig,
                      VerdictReport, emit_reports, reports_equal, run_verify)

__version__ = "0.1.0"
