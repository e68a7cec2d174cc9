"""Time-varying additive hazard regression with TV-penalized step coefficients.

Fits hazard models of the form ``lambda(x, t) = w_0(t) + sum_j x_j(t) w_j(t)``
to interval- and right-censored survival data, where every coefficient path
is a piecewise-constant step function with candidate jumps at the censoring
boundaries and feature change times, selected by a total-variation penalty
(optionally under monotone constraints).
"""

from .baseline import (
    ConstantAdditiveModel,
    ProportionalModel,
    SeparationWarning,
    fit_constant_additive,
    fit_proportional,
    proportional_nll,
)
from .datagen import CampaignSpec, default_scenario, generate, truth_model
from .formats import (
    FormatError,
    read_model,
    read_observations,
    write_model,
    write_observations,
)
from .likelihood import (
    CensoredDesign,
    HazardModel,
    NumericalError,
    ZeroBracketWarning,
    model_matrix,
    nll_dataset,
)
from .penalty import (
    PenaltyConfig,
    fused_lasso_prox,
    isotonic_project,
)
from .solver import (
    FitResult,
    SolverConfig,
    SolverWarning,
    fit,
    nonzero_parameter_count,
)
from .timeline import (
    FeaturePath,
    KnotSet,
    Observation,
    build_knot_set,
)

__version__ = "0.1.0"

__all__ = [
    "CampaignSpec",
    "CensoredDesign",
    "ConstantAdditiveModel",
    "FeaturePath",
    "FitResult",
    "FormatError",
    "HazardModel",
    "KnotSet",
    "NumericalError",
    "Observation",
    "PenaltyConfig",
    "ProportionalModel",
    "SeparationWarning",
    "SolverConfig",
    "SolverWarning",
    "ZeroBracketWarning",
    "build_knot_set",
    "default_scenario",
    "fit",
    "fit_constant_additive",
    "fit_proportional",
    "fused_lasso_prox",
    "generate",
    "isotonic_project",
    "model_matrix",
    "nll_dataset",
    "nonzero_parameter_count",
    "proportional_nll",
    "read_model",
    "read_observations",
    "truth_model",
    "write_model",
    "write_observations",
]
