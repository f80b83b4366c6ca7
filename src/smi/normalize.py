"""Directional min-max rescaling of indicator columns.

Positive indicators map min -> 0 and max -> 1, negative indicators the
reverse, with min and max taken over the observed sample. The result is
a DataMatrix whose entries lie in [0, 1]. A constant column has no
defined rescaling, nor has one whose max - min overflows, and
dataset.validate_matrix rejects both. load_normalized reads that matrix
back from a previous stage's normalized.csv, under the same column rule
and the input layer's cell rule with its range set to [0, 1].
"""

from __future__ import annotations

import numpy as np

from .dataset import (
    DataMatrix, Direction, IndicatorRegistry, _load_matrix, bare_matrix, validate_matrix)


def normalize_column(values, direction: Direction, name: str = "<column>") -> np.ndarray:
    """Min-max rescale one column into [0, 1], honoring its direction.

    The sample min maps to exactly 0 and the sample max to exactly 1
    (flipped for negative indicators); ties at the extremes all land on
    the endpoint. A column validate_matrix rejects fails under name.
    """
    col = np.asarray(values, dtype=np.float64)
    ((lo, hi),) = validate_matrix(bare_matrix(col[:, None], [name])).values()
    if direction is Direction.POSITIVE:
        return (col - lo) / (hi - lo)
    return (hi - col) / (hi - lo)


def normalize_matrix(matrix: DataMatrix) -> DataMatrix:
    """Rescale every column of a matrix by its indicator's direction.

    normalize_column's elementwise operations on all columns at once, on
    the (min, max) that validate_matrix gives each column it accepts, so
    each entry is bitwise what normalize_column gives.
    """
    lo, hi = np.array(list(validate_matrix(matrix).values())).T
    negative = np.array([d is Direction.NEGATIVE for d in matrix.registry.directions])
    out = np.where(negative, hi - matrix.values, matrix.values - lo) / (hi - lo)
    return DataMatrix(states=matrix.states, values=out, registry=matrix.registry)


def load_normalized(path, registry: IndicatorRegistry) -> DataMatrix:
    """Read a previous stage's normalized.csv: values in [0, 1], no constant column."""
    matrix = _load_matrix(path, registry, (0.0, 1.0))
    validate_matrix(matrix, path)
    return matrix
