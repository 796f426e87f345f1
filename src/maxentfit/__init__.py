"""Maximum-entropy basis functions for scattered-data approximation and
data-driven surrogate dynamics.

The package computes nonnegative, partition-of-unity basis functions
anchored at user-chosen nodes (global, or localized through a Gaussian
prior), fits l1-regularized linear approximants of unknown functions on
those bases, and assembles component-wise vector-field surrogates that can
be integrated forward in time. A dictionary-regression baseline and a set
of deterministic benchmark experiments round out the toolkit.
"""

from .errors import (
    AugmentationWarning,
    ConfigError,
    DimensionError,
    DomainError,
    FitError,
    MaxentError,
    NumericalBlowup,
    OutsideHullError,
)
from .geometry import (
    DEFAULT_HULL_TOL,
    HullLocation,
    NodeSet,
    ShiftedNodes,
    as_point,
    augment_nodes,
    grid_nodes,
    hull_weights,
    in_hull,
    shift,
)
from .maxent import (
    BasisEval,
    Prior,
    SolverOptions,
    basis_matrix,
    dual_objective,
    entropy,
    gaussian_prior,
    relative_entropy,
    solve_basis,
)
from .approximator import (
    Approximant,
    Dataset,
    FitReport,
    active_nodes,
    fit,
    predict,
    predict_batch,
    rms_error,
)
from .dynamics import (
    DomainExit,
    SurrogateModel,
    Trajectory,
    angular_momentum_error,
    eval_field,
    fit_dynamics,
    integrate,
    trajectory_rms,
)
from .baselines import Dictionary, DictionaryModel, dict_fit, dict_predict, dict_predict_batch
from .bench import (
    EXPERIMENTS,
    ExperimentConfig,
    Report,
    default_config,
    gen_gauss2d,
    gen_lorenz,
    gen_orbit,
    gen_rosenbrock,
    gen_sine,
    lorenz_rhs,
    orbit_constants,
    orbit_rhs,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentationWarning",
    "ConfigError",
    "DimensionError",
    "DomainError",
    "FitError",
    "MaxentError",
    "NumericalBlowup",
    "OutsideHullError",
    "DEFAULT_HULL_TOL",
    "HullLocation",
    "NodeSet",
    "ShiftedNodes",
    "as_point",
    "augment_nodes",
    "grid_nodes",
    "hull_weights",
    "in_hull",
    "shift",
    "BasisEval",
    "Prior",
    "SolverOptions",
    "basis_matrix",
    "dual_objective",
    "entropy",
    "gaussian_prior",
    "relative_entropy",
    "solve_basis",
    "Approximant",
    "Dataset",
    "FitReport",
    "active_nodes",
    "fit",
    "predict",
    "predict_batch",
    "rms_error",
    "DomainExit",
    "SurrogateModel",
    "Trajectory",
    "angular_momentum_error",
    "eval_field",
    "fit_dynamics",
    "integrate",
    "trajectory_rms",
    "Dictionary",
    "DictionaryModel",
    "dict_fit",
    "dict_predict",
    "dict_predict_batch",
    "EXPERIMENTS",
    "ExperimentConfig",
    "Report",
    "default_config",
    "gen_gauss2d",
    "gen_lorenz",
    "gen_orbit",
    "gen_rosenbrock",
    "gen_sine",
    "lorenz_rhs",
    "orbit_constants",
    "orbit_rhs",
    "run_experiment",
]
