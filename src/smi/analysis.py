"""Inequality cross-tabulation and per-pillar sub-scores, as the artifacts hold them.

States are split into low/high inequality by a Gini cutoff and crossed
with their mobility category into the 3x2 scenario grid of
scenarios.json; states with no Gini value are listed unclassified, never
dropped silently. scatter.csv pairs each state's Gini with its score.
Pillar sub-scores restrict the composite-index formula to one pillar's
indicators, so the pillar scores decompose the index exactly.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .dataset import DataMatrix, GiniTable, IndicatorRegistry
from .pca import _ordered_sum
from .scoring import Category, WeightVector, _weighted_mean

DEFAULT_GINI_THRESHOLD = 0.30


class InequalityClass(Enum):
    LOW = "LowInequality"
    HIGH = "HighInequality"


def inequality_classes(states, gini: GiniTable,
                       threshold: float = DEFAULT_GINI_THRESHOLD) -> dict[str, InequalityClass]:
    """Classify each state that has a Gini value; states without one are left out.

    Low inequality lies strictly below the threshold; the boundary counts as high.
    The values are taken as load_gini checked them, in [0, 1].
    """
    out = {}
    for state in states:
        if state in gini:
            out[state] = InequalityClass.LOW if gini[state] < threshold else InequalityClass.HIGH
    return out


def scenario_table(categories: dict[str, Category], inequality: dict[str, InequalityClass],
                   gini_threshold: float = DEFAULT_GINI_THRESHOLD) -> dict:
    """The scenarios.json object: the mobility-by-inequality grid of state names.

    Every state in the inequality map lands in exactly one of the six
    cells; the rest go to the unclassified list. Names are sorted.
    """
    # rows High, Medium, Low; columns in InequalityClass order
    grid = {cat.value: {ineq.value: [] for ineq in InequalityClass}
            for cat in (Category.HIGH, Category.MEDIUM, Category.LOW)}
    unclassified = []
    for state in sorted(categories):
        if state in inequality:
            grid[categories[state]._value_][inequality[state]._value_].append(state)
        else:
            unclassified.append(state)
    return {"gini_threshold": gini_threshold, "grid": grid, "unclassified": unclassified}


def scatter_data(scores: dict[str, float], gini: GiniTable) -> list[tuple[str, float, float]]:
    """(state, gini, score) rows of the states with a Gini value, sorted by state."""
    return [(state, gini[state], scores[state]) for state in sorted(scores) if state in gini]


def _pillar_columns(registry: IndicatorRegistry) -> dict[str, list[int]]:
    """Registry column indices of each pillar, pillars in order of first appearance."""
    columns: dict[str, list[int]] = {}
    for j, spec in enumerate(registry):
        columns.setdefault(spec.pillar, []).append(j)
    return columns


def pillar_weight_totals(weights: WeightVector, registry: IndicatorRegistry) -> dict[str, float]:
    """Total weight carried by each pillar, in order of first appearance."""
    w = np.asarray(weights, dtype=np.float64)
    return {pillar: _ordered_sum(w[columns])
            for pillar, columns in _pillar_columns(registry).items()}


def pillar_scores(norm: DataMatrix, weights: WeightVector) -> dict[str, tuple[list[float], int]]:
    """Each weighted pillar's sub-scores, in matrix row order, and the row of its best state.

    A sub-score is the composite index's weighted mean restricted to the
    pillar's columns, so the pillar scores are an exact weight-proportional
    decomposition of the composite index. Pillars come in registry order;
    one whose indicators all carry zero weight is left out. The best state
    has the highest sub-score, ties going to the first state name.
    """
    w = np.asarray(weights, dtype=np.float64)
    totals = pillar_weight_totals(w, norm.registry)
    out = {}
    for pillar, columns in _pillar_columns(norm.registry).items():
        if totals[pillar] > 0.0:
            means = _weighted_mean(norm.values[:, columns], w[columns])
            tied = np.flatnonzero(means == means.max()).tolist()
            out[pillar] = means.tolist(), min(tied, key=norm.states.__getitem__)
    return out
