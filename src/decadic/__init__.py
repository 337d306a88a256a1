"""Exact bound-state multiplets of the spiked decadic oscillator.

Solvers for the closed-form N-plets of V(r) = r^10 + a r^8 + b r^6 + c r^4
+ d r^2 + f/r^2, independent residual verification, asymptotic decay-wedge
enumeration with left-right mirror pairing, and complex-contour shooting
cross-checks.
"""

__version__ = "0.1.0"

from .model import (
    ModelSpec,
    Multiplet,
    MultipletEntry,
    PotentialCoeffs,
    angular_momentum,
    potential_coeffs,
    potential_eval,
    spike_strength,
    wavefunction_eval,
)
from .polynomial import (
    BiPoly,
    DegenerateResultantError,
    Poly,
    Root,
    RootSet,
    char_poly,
    det,
    det_bipoly,
    real_filter,
    resultant,
    roots,
)
from .recurrence import coeffs, full_system, main_matrix, small_matrix
from .shooting import (
    Contour,
    PoleError,
    ShootingResult,
    find_eigenvalue,
    integrate_log_derivative,
    wronskian_mismatch,
)
from .solvers import (
    NotRankDeficientError,
    SturmianResult,
    WrongModeError,
    null_vector,
    shifted_coupling,
    shifted_coupling_poly,
    solve_coupled,
    solve_energies,
    solve_sturmian,
    sturmian_multiplet,
)
from .verify import VerificationReport, ode_residual_poly, recurrence_residual, verify_solution, wedge_decay
from .wedges import LowerPairs, Sector, WedgePair, lower_sector_pairs, pt_pairs, sectors_for_degree

__all__ = [
    "__version__",
    "ModelSpec", "Multiplet", "MultipletEntry", "PotentialCoeffs",
    "angular_momentum", "potential_coeffs", "potential_eval", "spike_strength",
    "wavefunction_eval",
    "Poly", "BiPoly", "Root", "RootSet", "DegenerateResultantError",
    "det", "char_poly", "det_bipoly", "roots", "resultant", "real_filter",
    "coeffs", "main_matrix", "small_matrix", "full_system",
    "SturmianResult",
    "WrongModeError", "NotRankDeficientError",
    "solve_sturmian", "sturmian_multiplet", "shifted_coupling_poly",
    "solve_energies", "solve_coupled", "null_vector", "shifted_coupling",
    "VerificationReport", "recurrence_residual", "ode_residual_poly",
    "wedge_decay", "verify_solution",
    "Sector", "WedgePair", "LowerPairs",
    "sectors_for_degree", "pt_pairs", "lower_sector_pairs",
    "Contour", "ShootingResult", "PoleError",
    "find_eigenvalue", "integrate_log_derivative", "wronskian_mismatch",
]
