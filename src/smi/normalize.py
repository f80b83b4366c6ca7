"""Directional min-max rescaling of indicator columns.

Positive indicators map min -> 0 and max -> 1, negative indicators the
reverse, with min and max taken over the observed sample. The result is
a DataMatrix whose entries lie in [0, 1]. Constant columns have no
defined rescaling and raise DegenerateColumnError. load_normalized reads
that matrix back from a previous stage's normalized.csv and rejects
values outside [0, 1].
"""

from __future__ import annotations

import numpy as np

from .dataset import DataMatrix, Direction, IndicatorRegistry, load_observations
from .errors import DegenerateColumnError, InputError


def normalize_column(values, direction: Direction, name: str = "<column>") -> np.ndarray:
    """Min-max rescale one column into [0, 1], honoring its direction.

    The sample min maps to exactly 0 and the sample max to exactly 1
    (flipped for negative indicators); ties at the extremes all land on
    the endpoint.
    """
    col = np.asarray(values, dtype=np.float64)
    lo = float(np.min(col))
    hi = float(np.max(col))
    if hi == lo:
        raise DegenerateColumnError(name)
    if direction is Direction.POSITIVE:
        return (col - lo) / (hi - lo)
    return (hi - col) / (hi - lo)


def normalize_matrix(matrix: DataMatrix) -> DataMatrix:
    """Rescale every column of a validated matrix by its indicator's direction."""
    out = np.empty_like(matrix.values)
    for j, spec in enumerate(matrix.registry):
        out[:, j] = normalize_column(matrix.values[:, j], spec.direction, name=spec.id)
    return DataMatrix(states=matrix.states, values=out, registry=matrix.registry)


def load_normalized(path, registry: IndicatorRegistry) -> DataMatrix:
    """Read a normalized.csv produced by a previous stage (observations.csv layout)."""
    matrix = load_observations(path, registry)
    if np.min(matrix.values) < 0.0 or np.max(matrix.values) > 1.0:
        raise InputError(f"{path}: normalized values must lie in [0, 1]")
    return matrix
