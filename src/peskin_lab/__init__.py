"""Spectral lab for a closed elastic string driven by its own tension in 2D Stokes flow."""

__version__ = "0.1.0"

from .curve import Curve, arc_chord
from .tension import TensionLaw, hookean, power_law, arctan_law, globalize
from .kernels import kernel_K, kernel_K0, kernel_A, cancellation_residual
from .operators import lambda_sine, lp_project
from .besov import MuWeight, BesovParams, besov_diff, besov_lp, cl_norm, construct_mu
from .evolution import SimConfig, SimState, Trajectory, right_hand_sides, simulate, step

__all__ = [
    "Curve",
    "arc_chord",
    "TensionLaw",
    "hookean",
    "power_law",
    "arctan_law",
    "globalize",
    "kernel_K",
    "kernel_K0",
    "kernel_A",
    "cancellation_residual",
    "lambda_sine",
    "lp_project",
    "MuWeight",
    "BesovParams",
    "besov_diff",
    "besov_lp",
    "cl_norm",
    "construct_mu",
    "SimConfig",
    "SimState",
    "Trajectory",
    "right_hand_sides",
    "simulate",
    "step",
]
