"""Maximum-entropy basis functions for scattered-data approximation and
data-driven surrogate dynamics.

The package computes nonnegative, partition-of-unity basis functions
anchored at user-chosen nodes (global, or localized through a Gaussian
prior), fits l1-regularized linear approximants of unknown functions on
those bases, and assembles component-wise vector-field surrogates that can
be integrated forward in time. A dictionary-regression baseline and a set
of deterministic benchmark experiments (``maxentfit.bench``) round out the
toolkit.

The names imported below are the public API; there is no separate
``__all__`` list to keep in step with them.
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
    augment_nodes,
    grid_nodes,
    hull_weights,
    in_hull,
)
from .maxent import BasisEval, SolverOptions, basis_matrix, solve_basis
from .approximator import (
    Approximant,
    Dataset,
    FitReport,
    fit,
    predict,
    predict_batch,
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

__version__ = "0.1.0"
