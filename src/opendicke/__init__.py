"""Critical behavior of the driven-damped (open) Dicke model.

Mean-field phase diagram, quasi-normal-mode spectrum, steady-state and
ground-state fluctuations, Gaussian entanglement, and critical exponents of
a transversally pumped condensate coupled to a lossy cavity mode, in the
thermodynamic-limit linearized description.  Recoil units, omega_r = 1.
"""

from .analysis import (DEFAULT_WINDOW, ExponentFit, ScanKind, Side, Table,
                       critical_exponent, depletion_curve, exponent_fit,
                       exponent_grid, figure_scan)
from .entanglement import (QuadCovariance, log_negativity, pt_nu_minus,
                           pt_symplectic_min, quad_covariance,
                           symplectic_eigenvalues, two_mode_squeezed_covariance)
from .errors import (CutoffTooSmall, DefectiveMatrix, DegenerateBranch,
                     DivergentSteadyState, DynamicalInstability, InvalidCurve,
                     NoThreshold, NumericalFailure, OpenDickeError,
                     UnstableState)
from .fluctuations import (NoiseSpec, QuasiNormalSystem, SecondMoments,
                           SpectrumScan, StabilityMatrix,
                           build_stability_matrix, decompose,
                           mode_correlations, observables, spectrum_scan,
                           steady_state_moments, system_moments)
from .groundstate import (BogoliubovModes, bogoliubov_modes,
                          ground_state_moments)
from .model import (MeanField, ModelParams, Phase, critical_pump,
                    mean_field_curve, mean_field_residuals, solve_mean_field)
from .oracle import FockGroundState, fock_ground_state, lyapunov_moments

__version__ = "0.1.0"

__all__ = [
    "BogoliubovModes", "CutoffTooSmall", "DEFAULT_WINDOW", "DefectiveMatrix",
    "DegenerateBranch", "DivergentSteadyState", "DynamicalInstability",
    "ExponentFit", "FockGroundState", "InvalidCurve", "MeanField",
    "ModelParams", "NoThreshold", "NoiseSpec", "NumericalFailure",
    "OpenDickeError", "Phase", "QuadCovariance", "QuasiNormalSystem",
    "ScanKind", "SecondMoments", "Side", "SpectrumScan", "StabilityMatrix",
    "Table", "UnstableState", "bogoliubov_modes", "build_stability_matrix",
    "critical_exponent", "critical_pump", "decompose", "depletion_curve",
    "exponent_fit", "exponent_grid", "figure_scan", "fock_ground_state",
    "ground_state_moments", "log_negativity", "lyapunov_moments",
    "mean_field_curve", "mean_field_residuals", "mode_correlations",
    "observables", "pt_nu_minus", "pt_symplectic_min", "quad_covariance",
    "solve_mean_field", "spectrum_scan", "steady_state_moments",
    "symplectic_eigenvalues", "system_moments", "two_mode_squeezed_covariance",
]
