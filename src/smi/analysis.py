"""Inequality cross-tabulation and per-pillar sub-scores.

States are split into low/high inequality by a Gini cutoff and crossed
with their mobility category into a 3x2 scenario grid; states with no
Gini value are reported unclassified, never dropped silently. Pillar
sub-scores restrict the composite-index formula to one pillar's
indicators, so the pillar scores decompose the index exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import DataMatrix, GiniTable, IndicatorRegistry
from .errors import InputError
from .pca import _ordered_sum
from .scoring import CATEGORY_ORDER, Category, WeightVector, _weighted_mean

DEFAULT_GINI_THRESHOLD = 0.30


class InequalityClass(Enum):
    LOW = "LowInequality"
    HIGH = "HighInequality"
    UNCLASSIFIED = "Unclassified"


@dataclass
class ScenarioTable:
    """3x2 grid of state sets by (mobility category, inequality class)."""

    cells: dict[tuple[Category, InequalityClass], tuple[str, ...]]
    unclassified: tuple[str, ...]

    def cell(self, category: Category, inequality: InequalityClass) -> tuple[str, ...]:
        return self.cells.get((category, inequality), ())


@dataclass(frozen=True)
class PillarScore:
    state: str
    pillar: str
    value: float
    is_best: bool


@dataclass
class ScatterData:
    """Per-state (gini, score) pairs, plus the states left out for lack of a Gini value."""

    records: list[tuple[str, float, float]]
    omitted: tuple[str, ...]


def classify_inequality(gini: float, threshold: float = DEFAULT_GINI_THRESHOLD) -> InequalityClass:
    """Low inequality strictly below the threshold; the boundary counts as high."""
    if not (0.0 <= gini <= 1.0):
        raise InputError(f"gini {gini} outside [0, 1]")
    return InequalityClass.LOW if gini < threshold else InequalityClass.HIGH


def inequality_classes(states, gini: GiniTable,
                       threshold: float = DEFAULT_GINI_THRESHOLD) -> dict[str, InequalityClass]:
    """Classify each state, marking those without a Gini value unclassified."""
    out = {}
    for state in states:
        if state in gini:
            out[state] = classify_inequality(gini[state], threshold)
        else:
            out[state] = InequalityClass.UNCLASSIFIED
    return out


def scenario_table(categories: dict[str, Category],
                   inequality: dict[str, InequalityClass]) -> ScenarioTable:
    """Partition states into the mobility-by-inequality grid.

    States absent from the inequality map (or explicitly unclassified) go
    to the unclassified list; every classified state lands in exactly one
    of the six cells.
    """
    buckets: dict[tuple[Category, InequalityClass], list[str]] = {
        (cat, ineq): []
        for cat in CATEGORY_ORDER
        for ineq in (InequalityClass.LOW, InequalityClass.HIGH)
    }
    unclassified: list[str] = []
    for state in sorted(categories):
        ineq = inequality.get(state, InequalityClass.UNCLASSIFIED)
        if ineq is InequalityClass.UNCLASSIFIED:
            unclassified.append(state)
        else:
            buckets[(categories[state], ineq)].append(state)
    return ScenarioTable(
        cells={key: tuple(states) for key, states in buckets.items()},
        unclassified=tuple(unclassified),
    )


def scatter_data(scores: dict[str, float], gini: GiniTable) -> ScatterData:
    """Pair each state's Gini with its score for external plotting; sorted by state."""
    records = []
    omitted = []
    for state in sorted(scores):
        if state in gini:
            records.append((state, gini[state], scores[state]))
        else:
            omitted.append(state)
    return ScatterData(records=records, omitted=tuple(omitted))


def _pillar_columns(registry: IndicatorRegistry) -> dict[str, list[int]]:
    """Registry column indices of each pillar, pillars in order of first appearance."""
    columns: dict[str, list[int]] = {}
    for j, spec in enumerate(registry):
        columns.setdefault(spec.pillar, []).append(j)
    return columns


def pillar_weight_totals(weights: WeightVector, registry: IndicatorRegistry) -> dict[str, float]:
    """Total weight carried by each pillar, in order of first appearance."""
    w = np.asarray(weights, dtype=np.float64)
    if len(w) != len(registry):
        raise InputError(f"{len(w)} weights for a registry of {len(registry)}")
    return {pillar: _ordered_sum(w[columns])
            for pillar, columns in _pillar_columns(registry).items()}


def pillar_scores(norm: DataMatrix, weights: WeightVector,
                  registry: IndicatorRegistry) -> list[PillarScore]:
    """Weighted mean of each state's rescaled values within each pillar.

    The composite index's weighted mean restricted to the pillar's
    columns, so the pillar scores are an exact weight-proportional
    decomposition of the composite index. A pillar whose indicators all
    carry zero weight is skipped; callers find it in pillar_weight_totals
    and warn. The best performer per pillar (highest value, ties to the
    first state name) is flagged.
    """
    w = np.asarray(weights, dtype=np.float64)
    totals = pillar_weight_totals(w, registry)
    out: list[PillarScore] = []
    for pillar, columns in _pillar_columns(registry).items():
        if totals[pillar] <= 0.0:
            continue
        means = _weighted_mean(norm.values[:, columns], w[columns])
        values = dict(zip(norm.states, means.tolist()))
        best_state = max(sorted(values), key=lambda s: values[s])
        for state in norm.states:
            out.append(PillarScore(
                state=state, pillar=pillar, value=values[state],
                is_best=state == best_state,
            ))
    return out
