"""Indicator weights, composite index, ranking, percentile categorization.

Weights come from absolute loadings scaled by their component's
eigenvalue; each state's index is the weight-normalized mean of its
rescaled indicators, so it always lands in [0, 1]. Categories cut the
score distribution at two of its own percentiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import DataMatrix
from .errors import InputError, NumericalError
from .pca import _ordered_sum

# eigenvalues this far below zero are round-off from a PSD source and clamp to 0
PSD_SLACK = 1e-10


class Category(Enum):
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"


class PercentileMethod(Enum):
    EXCLUSIVE = "exclusive"
    INCLUSIVE = "inclusive"
    NEAREST_RANK = "nearest_rank"


@dataclass(frozen=True)
class CategoryThresholds:
    """Score cutoffs: below t_low is Low, at or above t_high is High."""

    t_low: float
    t_high: float
    percentile_method: PercentileMethod

    def __post_init__(self):
        if self.t_low > self.t_high:
            raise InputError(f"t_low {self.t_low} exceeds t_high {self.t_high}")


@dataclass(frozen=True)
class StateScore:
    state: str
    smi: float
    rank: int
    category: Category


# per-indicator weights, registry order
WeightVector = np.ndarray


def compute_weights(loadings, eigenvalues) -> WeightVector:
    """Weight each indicator by the eigenvalue-scaled sum of its absolute loadings.

    W_i = sum_j |L_ij| * E_j over the selected components, accumulated one
    component column at a time in component order, so results are
    bit-reproducible and trivially sign-invariant under eigenvector flips.
    Eigenvalues within round-off below zero count as 0.
    """
    l_matrix = np.asarray(loadings, dtype=np.float64)
    if l_matrix.ndim == 1:
        l_matrix = l_matrix[:, np.newaxis]
    e_values = [float(e) for e in np.atleast_1d(np.asarray(eigenvalues, dtype=np.float64))]
    if l_matrix.shape[1] != len(e_values):
        raise InputError(
            f"{l_matrix.shape[1]} loading columns for {len(e_values)} eigenvalues")
    for e in e_values:
        if e < -PSD_SLACK:
            raise NumericalError(f"eigenvalue {e} is negative beyond round-off")
    if not e_values:
        return np.zeros(l_matrix.shape[0])
    l_abs = np.abs(l_matrix)
    return _ordered_sum(l_abs[:, j] * max(e, 0.0) for j, e in enumerate(e_values))


def _weighted_mean(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Row-wise sum_j x_ij w_j / sum_j w_j, both sums accumulated in column order."""
    total_weight = _ordered_sum(weights)
    if total_weight <= 0.0:
        raise NumericalError("total weight is zero, the index is undefined")
    return _ordered_sum(values[:, j] * w for j, w in enumerate(weights)) / total_weight


def composite_index(norm: DataMatrix, weights: WeightVector) -> dict[str, float]:
    """Weighted mean of each state's rescaled indicators, in matrix row order."""
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != norm.n_indicators:
        raise InputError(f"{len(w)} weights for {norm.n_indicators} indicators")
    if np.any(w < 0.0):
        raise InputError("weights must be non-negative")
    return dict(zip(norm.states, _weighted_mean(norm.values, w).tolist()))


def rank_states(scores: dict[str, float]) -> list[tuple[str, int]]:
    """Ranks 1..n by descending score; exact ties fall back to state name order."""
    if not scores:
        raise InputError("cannot rank an empty score map")
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(state, position) for position, (state, _) in enumerate(ordered, start=1)]


def percentile(values, p: float, method: PercentileMethod = PercentileMethod.EXCLUSIVE) -> float:
    """Sample percentile of values for p in (0, 100).

    Exclusive is the Weibull plotting position h = (n+1)p/100 with linear
    interpolation (h clamped to [1, n]); Inclusive uses h = 1 + (n-1)p/100;
    NearestRank returns the ceil(np/100)-th order statistic.
    """
    if not (0.0 < p < 100.0):
        raise InputError(f"percentile p must lie in (0, 100), got {p}")
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if method is PercentileMethod.EXCLUSIVE:
        if n < 3:
            raise InputError(f"exclusive percentile needs at least 3 values, got {n}")
        h = (n + 1) * p / 100.0
    elif method is PercentileMethod.INCLUSIVE:
        if n < 1:
            raise InputError("inclusive percentile needs at least 1 value")
        h = 1.0 + (n - 1) * p / 100.0
    else:
        if n < 1:
            raise InputError("nearest-rank percentile needs at least 1 value")
        rank = max(1, math.ceil(n * p / 100.0))
        return xs[rank - 1]

    h = min(max(h, 1.0), float(n))
    i = int(math.floor(h))
    if i >= n:
        return xs[n - 1]
    return xs[i - 1] + (h - i) * (xs[i] - xs[i - 1])


def thresholds_from_scores(scores: dict[str, float], low_percentile: float = 25.0,
                           high_percentile: float = 75.0,
                           method: PercentileMethod = PercentileMethod.EXCLUSIVE) -> CategoryThresholds:
    """Cut points taken from the score distribution itself."""
    if not (0.0 < low_percentile < high_percentile < 100.0):
        raise InputError(
            f"need 0 < low < high < 100, got low={low_percentile} high={high_percentile}")
    values = list(scores.values())
    return CategoryThresholds(
        t_low=percentile(values, low_percentile, method),
        t_high=percentile(values, high_percentile, method),
        percentile_method=method,
    )


def categorize(scores: dict[str, float], thresholds: CategoryThresholds) -> dict[str, Category]:
    """High at or above t_high, Low strictly below t_low, Medium between."""
    out: dict[str, Category] = {}
    for state, value in scores.items():
        if value >= thresholds.t_high:
            out[state] = Category.HIGH
        elif value < thresholds.t_low:
            out[state] = Category.LOW
        else:
            out[state] = Category.MEDIUM
    return out


def state_scores(scores: dict[str, float], thresholds: CategoryThresholds) -> list[StateScore]:
    """Assemble ranked, categorized per-state records in rank order."""
    categories = categorize(scores, thresholds)
    return [
        StateScore(state=state, smi=scores[state], rank=position, category=categories[state])
        for state, position in rank_states(scores)
    ]
