"""Composite social-mobility index engine.

Min-max rescaling of directional indicators, principal-component weighting
via a LAPACK-seeded, Jacobi-polished eigensolver, weighted composite scores with
percentile-based categories, and inequality cross-tabulation. The `smi`
command line drives the same pipeline end to end.
"""

__version__ = "0.1.0"

from .dataset import load_indicator_metadata, load_observations
from .errors import InputError, NumericalError
from .normalize import normalize_matrix
from .pca import correlation_matrix, eigendecompose, loading_matrix, select_components
from .scoring import composite_index, compute_weights, state_scores, thresholds_from_scores

__all__ = [
    "InputError",
    "NumericalError",
    "composite_index",
    "compute_weights",
    "correlation_matrix",
    "eigendecompose",
    "load_indicator_metadata",
    "load_observations",
    "loading_matrix",
    "normalize_matrix",
    "select_components",
    "state_scores",
    "thresholds_from_scores",
]
