"""Exact phase-space dynamics of a damped quantum harmonic oscillator.

Simulates a harmonic oscillator coupled to a high-temperature Ohmic
reservoir beyond the Markov approximation: time-dependent rate coefficients
evaluated in closed form on arrays, exact Gaussian-state propagation into
array-backed trajectories, Wigner-function grids, and a truncated
number-basis master-equation integrator used as a test oracle.
"""

from .coefficients import (
    CoefficientGrid,
    LindbladClassification,
    PhysicalParams,
    big_gamma,
    classify_lindblad,
    closed_forms,
    coefficient_grid,
    delta_big_gamma,
    delta_coeff,
    gamma_coeff,
)
from .gaussian import (
    GaussianState,
    Trajectory,
    detect_squeezing_intervals,
    evolve_trajectory,
    make_coherent,
    make_squeezed,
    mean_quanta,
    oscillation_period,
    propagate,
    squeeze_from_sigma2,
)
from .quadrature import IntegrationError, integrate_fixed
from .wigner import (
    GridMoments,
    GridSpec,
    WignerGrid,
    grid_moments,
    propagator,
    wigner_by_convolution,
    wigner_coherent_closed,
    wigner_gaussian,
)

__version__ = "0.1.0"

__all__ = [
    "CoefficientGrid",
    "GaussianState",
    "GridMoments",
    "GridSpec",
    "IntegrationError",
    "LindbladClassification",
    "PhysicalParams",
    "Trajectory",
    "WignerGrid",
    "big_gamma",
    "classify_lindblad",
    "closed_forms",
    "coefficient_grid",
    "delta_big_gamma",
    "delta_coeff",
    "detect_squeezing_intervals",
    "evolve_trajectory",
    "gamma_coeff",
    "grid_moments",
    "integrate_fixed",
    "make_coherent",
    "make_squeezed",
    "mean_quanta",
    "oscillation_period",
    "propagate",
    "propagator",
    "squeeze_from_sigma2",
    "wigner_by_convolution",
    "wigner_coherent_closed",
    "wigner_gaussian",
]
