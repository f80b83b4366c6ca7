"""Composite social-mobility index engine.

Min-max rescaling of directional indicators, principal-component weighting
via a LAPACK-seeded, Jacobi-polished eigensolver, weighted composite scores with
percentile-based categories, and inequality cross-tabulation. The `smi`
command line drives the same pipeline end to end.
"""

__version__ = "0.1.0"

from .analysis import (
    InequalityClass,
    PillarScore,
    ScatterData,
    ScenarioTable,
    classify_inequality,
    inequality_classes,
    pillar_scores,
    pillar_weight_totals,
    scatter_data,
    scenario_table,
)
from .dataset import (
    DataMatrix,
    Direction,
    GiniTable,
    IndicatorRegistry,
    IndicatorSpec,
    ValidationReport,
    load_gini,
    load_indicator_metadata,
    load_observations,
    validate_matrix,
)
from .errors import DegenerateColumnError, InputError, NumericalError
from .normalize import NormalizedMatrix, normalize_column, normalize_matrix
from .pca import (
    Basis,
    ComponentSelection,
    LoadingConvention,
    Spectrum,
    correlation_matrix,
    eigendecompose,
    loading_matrix,
    select_components,
)
from .scoring import (
    Category,
    CategoryThresholds,
    PercentileMethod,
    StateScore,
    categorize,
    composite_index,
    compute_weights,
    percentile,
    rank_states,
    state_scores,
    thresholds_from_scores,
)

__all__ = [
    "Basis",
    "Category",
    "CategoryThresholds",
    "ComponentSelection",
    "DataMatrix",
    "DegenerateColumnError",
    "Direction",
    "GiniTable",
    "IndicatorRegistry",
    "IndicatorSpec",
    "InequalityClass",
    "InputError",
    "LoadingConvention",
    "NormalizedMatrix",
    "NumericalError",
    "PercentileMethod",
    "PillarScore",
    "ScatterData",
    "ScenarioTable",
    "Spectrum",
    "StateScore",
    "ValidationReport",
    "categorize",
    "classify_inequality",
    "composite_index",
    "compute_weights",
    "correlation_matrix",
    "eigendecompose",
    "inequality_classes",
    "load_gini",
    "load_indicator_metadata",
    "load_observations",
    "loading_matrix",
    "normalize_column",
    "normalize_matrix",
    "percentile",
    "pillar_scores",
    "pillar_weight_totals",
    "rank_states",
    "scatter_data",
    "scenario_table",
    "select_components",
    "state_scores",
    "thresholds_from_scores",
    "validate_matrix",
]
