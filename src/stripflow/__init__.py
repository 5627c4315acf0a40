"""Desk-scale laboratory for nonlocal diffusion driven through a boundary
strip: grids, kernel operators, stationary extensions, strip dynamics, and
the decay diagnostics that go with them."""

from ._accel import backend
from .analysis import (DIAG_COLUMNS, EXPONENTIAL, POLYNOMIAL, DecayFit,
                       GapResult, counterexample_sequence, estimate_beta_p,
                       fit_decay, lq_distance_to_mean, mass, rayleigh_quotient,
                       schur_complement, spectral_gap_beta)
from .config import ExperimentConfig, build_problem, initial_field, load_config, parse_config
from .elliptic import (energy, energy_gradient, extend, extend_linear,
                       extend_plaplace, interior_residual)
from .errors import (ConfigInvalid, NoConvergence, NoContraction, SolverError,
                     StripflowError)
from .evolution import (EXPLICIT, IMPLICIT, VARIANTS, ProblemSpec, Trajectory,
                        evolve, picard_solve, rhs, stability_bound,
                        step_explicit, step_implicit)
from .fields import EnergyReport, FullField, StripField
from .fixtures import toy3, toy3_grid
from .geometry import INTERIOR, STRIP, DomainBox, Grid, build_grid
from .kernels import (BUMP, EXCLUDE_STRIP_STRIP, FULL, SINGULAR, TENT,
                      KernelSpec, NonlocalOperator, assemble, bump_kernel,
                      eval_kernel, normalization, singular_kernel, tent_kernel)
from .svg import emit_svg

__version__ = "0.1.0"

__all__ = [
    "backend",
    "DIAG_COLUMNS", "EXPONENTIAL", "POLYNOMIAL", "DecayFit", "GapResult",
    "counterexample_sequence", "estimate_beta_p", "fit_decay",
    "lq_distance_to_mean", "mass", "rayleigh_quotient", "schur_complement", "spectral_gap_beta",
    "ExperimentConfig", "build_problem", "initial_field", "load_config",
    "parse_config",
    "energy", "energy_gradient", "extend", "extend_linear", "extend_plaplace",
    "interior_residual",
    "ConfigInvalid", "NoConvergence", "NoContraction", "SolverError",
    "StripflowError",
    "EXPLICIT", "IMPLICIT", "VARIANTS", "ProblemSpec", "Trajectory", "evolve",
    "picard_solve", "rhs", "stability_bound", "step_explicit", "step_implicit",
    "EnergyReport", "FullField", "StripField",
    "toy3", "toy3_grid",
    "INTERIOR", "STRIP", "DomainBox", "Grid", "build_grid",
    "BUMP", "EXCLUDE_STRIP_STRIP", "FULL", "SINGULAR", "TENT", "KernelSpec",
    "NonlocalOperator", "assemble", "bump_kernel",
    "eval_kernel", "normalization", "singular_kernel", "tent_kernel",
    "emit_svg",
]
