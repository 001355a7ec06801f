"""Spectral laboratory for a parabolic equation with nonlocal diffusion on the
circle: exact operator bank, cutoff nonlinearity, IMEX semiflow, eigenvalue
classification, and a machine-checked parity-obstruction verdict. The package
holds what its subcommands run; the cutoff shapes and their slopes, the partial
derivatives f_s and f_p and the dense operators are test oracles."""

from .basis import BasisLayout, analysis_residual, random_state, theta_norm
from .cutoffs import chi
from .model import ModelParams, evaluate_F, f
from .operators import B_CONSTANT_VALUE, EpsilonSequence, mode_map
from .semiflow import (DissipativityReport, Trajectory, absorbing_radius,
                       dissipativity_probe, instability_growth_rate, integrate,
                       stationary_residual)
from .spectra import (BandedT, GapReport, SpectrumReport, assemble_T, classify_and_count,
                      convergence_study, eigenvalues, eps0_threshold_scan, gap_check,
                      resolved_band, stationary_state)
from .verdict import (INCONCLUSIVE, NOT_OBSTRUCTED, OBSTRUCTED, RunConfig,
                      VerdictReport, emit_reports, reports_equal, run_verify)

__version__ = "0.1.0"
