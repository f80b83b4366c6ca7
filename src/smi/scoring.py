"""Indicator weights, composite index, ranking, percentile categorization.

Weights come from absolute loadings scaled by their component's
eigenvalue; each state's index is the weight-normalized mean of its
rescaled indicators, so it always lands in [0, 1]. Categories cut the
score distribution at two of its own percentiles. Ranking is two C
sorts; each state's result is one StateScore named tuple, built
positionally with the cutoffs and categories held in locals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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

    def __post_init__(self):
        # thresholds_from_scores reaches it: where a score spread overflows, percentile
        # interpolates a lower p to inf, above a higher p's order statistic
        if self.t_low > self.t_high:
            raise InputError(f"t_low {self.t_low} exceeds t_high {self.t_high}")


class StateScore(NamedTuple):
    """One state's result; a tuple, so a list of them transposes with zip(*ranked)."""

    state: str
    smi: float
    rank: int
    category: Category


# per-indicator weights, registry order
WeightVector = np.ndarray


def _negative_eigenvalues(eigenvalues) -> list[tuple[int, float]]:
    """The negative-eigenvalue rule: (position, value) of each eigenvalue below -PSD_SLACK."""
    return [(j, e) for j, e in enumerate(eigenvalues) if e < -PSD_SLACK]


def compute_weights(loadings: np.ndarray, eigenvalues) -> WeightVector:
    """Weight each indicator by the eigenvalue-scaled sum of its absolute loadings.

    loadings is the p x k block of the selected components, k >= 1, and
    eigenvalues their k eigenvalues. W_i = sum_j |L_ij| * E_j, accumulated
    one component column at a time in component order, so results are
    bit-reproducible and trivially sign-invariant under eigenvector flips.
    Eigenvalues within round-off below zero count as 0.
    """
    e_values = [float(e) for e in eigenvalues]
    if loadings.shape[1] != len(e_values) or not e_values:
        raise InputError(f"{loadings.shape[1]} loading columns for {len(e_values)} eigenvalues;"
                         " need one eigenvalue per column, and at least one column")
    if negative := _negative_eigenvalues(e_values):
        raise NumericalError(f"eigenvalue {negative[0][1]} is negative beyond round-off")
    l_abs = np.abs(loadings)
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


def percentile(values, p: float, method: PercentileMethod = PercentileMethod.EXCLUSIVE) -> float:
    """Sample percentile of values for p in (0, 100), which its caller checks.

    Exclusive is the Weibull plotting position h = (n+1)p/100 with linear
    interpolation (h clamped to [1, n]); Inclusive uses h = 1 + (n-1)p/100;
    NearestRank returns the ceil(np/100)-th order statistic.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    minimum = 3 if method is PercentileMethod.EXCLUSIVE else 1
    if n < minimum:
        raise InputError(f"{method.value} percentile needs at least {minimum} "
                         f"value{'s' if minimum > 1 else ''}, got {n}")
    if method is PercentileMethod.EXCLUSIVE:
        h = (n + 1) * p / 100.0
    elif method is PercentileMethod.INCLUSIVE:
        h = 1.0 + (n - 1) * p / 100.0
    else:
        # n * p / 100 underflows to 0 for a p as small as 5e-324
        rank = max(1, math.ceil(n * p / 100.0))
        return xs[rank - 1]

    h = min(max(h, 1.0), float(n))
    i = int(math.floor(h))
    if i >= n:
        return xs[n - 1]
    return xs[i - 1] + (h - i) * (xs[i] - xs[i - 1])


def _percentile_pair_problems(low: float, high: float) -> list[str]:
    """The percentile-pair rule: no problem when 0 < low < high < 100, else its one message."""
    return [] if 0.0 < low < high < 100.0 else [
        f"percentiles must satisfy 0 < low < high < 100, got low={low} high={high}"]


def thresholds_from_scores(scores: dict[str, float], low_percentile: float = 25.0,
                           high_percentile: float = 75.0,
                           method: PercentileMethod = PercentileMethod.EXCLUSIVE) -> CategoryThresholds:
    """Cut points taken from the score distribution itself."""
    if problems := _percentile_pair_problems(low_percentile, high_percentile):
        raise InputError(problems)
    values = list(scores.values())
    return CategoryThresholds(
        t_low=percentile(values, low_percentile, method),
        t_high=percentile(values, high_percentile, method),
    )


def state_scores(scores: dict[str, float], thresholds: CategoryThresholds) -> list[StateScore]:
    """Rank and categorize every state in one pass, in rank order.

    Ranks run 1..n by descending score, exact ties in state name order:
    a stable descending sort of the names in name order. High is at or
    above t_high, Low strictly below t_low, Medium between.
    """
    if not scores:
        raise InputError("cannot rank an empty score map")
    ordered = sorted(sorted(scores), key=scores.__getitem__, reverse=True)
    t_low, t_high = thresholds.t_low, thresholds.t_high
    low, medium, high = Category.LOW, Category.MEDIUM, Category.HIGH
    return [StateScore(state, value, position,
                       high if value >= t_high else low if value < t_low else medium)
            for position, state in enumerate(ordered, start=1) for value in [scores[state]]]
