"""Residual-minimisation PDE solving with certified a posteriori error bounds.

The pieces, bottom to top: packed Taylor jets and geometry, closed-form
fields, Gauss-Legendre quadrature, a jet-propagating tanh network, ansatz
construction that satisfies Dirichlet data exactly, residual losses with
hand-derived gradients, full-batch Adam, and the certification layer that
turns a training loss into a Sobolev-norm error bound.
"""

from .ansatz import AnsatzSpec
from .certify import (BoundViolation, CertifiedReport, c_div_form, c_heat,
                      c_reg_convex, certified_h2_bound, parabolic_bound)
from .experiments import (ConfigError, ExperimentConfig, fit_ratio_slope,
                          harmonic_failure_records, load_config,
                          parse_config_text, run_certified, run_failure_demo,
                          run_fd_check, run_penalty_vs_exact)
from .fields import AnalyticField, harmonic_mode
from .geometry import Disk, Rectangle, SpaceTimeBox
from .jets import TaylorJet, coeff_layout, seed_point
from .losses import LossConfig, build_objective, make_config
from .network import NetworkParams, forward_jets
from .problems import PdeProblem, builtin_problems, default_spec, get_problem
from .quadrature import (QuadratureRule, build_rule, h_half_surrogate,
                         integrate_values, sobolev_errors_upto, x_norm_error)
from .training import (AdamSchedule, DivergenceError, FdCheckReport, TrainState,
                       fd_check, train)

__version__ = "0.1.0"

__all__ = [
    "AdamSchedule", "AnalyticField", "AnsatzSpec", "BoundViolation",
    "CertifiedReport", "ConfigError", "Disk", "DivergenceError",
    "ExperimentConfig", "FdCheckReport",
    "LossConfig", "NetworkParams", "PdeProblem",
    "QuadratureRule", "Rectangle", "SpaceTimeBox", "TaylorJet",
    "TrainState", "build_objective", "build_rule",
    "builtin_problems", "c_div_form", "c_heat", "c_reg_convex",
    "certified_h2_bound", "coeff_layout", "default_spec", "fd_check",
    "fit_ratio_slope", "forward_jets", "get_problem", "h_half_surrogate",
    "harmonic_failure_records", "harmonic_mode", "integrate_values",
    "load_config", "make_config", "parabolic_bound",
    "parse_config_text", "run_certified",
    "run_failure_demo", "run_fd_check", "run_penalty_vs_exact",
    "seed_point",
    "sobolev_errors_upto", "train", "x_norm_error",
]
