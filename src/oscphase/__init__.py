"""Generalized Fresnel integrals, oscillatory quadrature and asymptotic expansions."""

from .amplitudes import (
    Amplitude,
    RegularizerSpec,
    builtin,
    default_regularizer,
    rational_regularizer,
    reflected,
)
from .cgamma import gamma, gamma_residue
from .errors import (
    BudgetError,
    ClassError,
    ConvergenceError,
    DomainError,
    NoiseFloorError,
    OrderError,
    OscPhaseError,
    PoleError,
    UnknownAmplitude,
)
from .expand import (
    ExpansionResult,
    SlopeFit,
    evaluate_expansion,
    expand_fullline,
    expand_halfline,
    remainder_slope,
    stationary_phase_quadratic,
)
from .fresnel import (
    FresnelValue,
    PoleReport,
    c_tilde,
    generalized_beta,
    generalized_fresnel,
    generalized_fresnel_continued,
    signed_fresnel_m,
)
from .ibp import (
    DepthParams,
    IbpTable,
    ibp_coefficients,
    ibp_depth,
)
from .oscillatory import (
    DEFAULT_EPS_LADDER,
    QuadratureConfig,
    QuadratureReport,
    epsilon_regularized,
    os_integral_fullline,
    os_integral_halfline,
    rotated_contour_reference,
)

__version__ = "0.1.0"

__all__ = [
    "Amplitude", "RegularizerSpec", "builtin", "default_regularizer",
    "rational_regularizer", "reflected",
    "gamma", "gamma_residue",
    "OscPhaseError", "PoleError", "DomainError", "ClassError", "OrderError",
    "BudgetError", "ConvergenceError", "NoiseFloorError", "UnknownAmplitude",
    "ExpansionResult", "SlopeFit", "evaluate_expansion", "expand_fullline",
    "expand_halfline", "remainder_slope", "stationary_phase_quadratic",
    "FresnelValue", "PoleReport", "c_tilde", "generalized_beta",
    "generalized_fresnel", "generalized_fresnel_continued", "signed_fresnel_m",
    "DepthParams", "IbpTable", "ibp_coefficients", "ibp_depth",
    "DEFAULT_EPS_LADDER", "QuadratureConfig", "QuadratureReport",
    "epsilon_regularized", "os_integral_fullline", "os_integral_halfline",
    "rotated_contour_reference",
]
