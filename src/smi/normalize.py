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
    """Rescale every column of a validated matrix by its indicator's direction.

    normalize_column's elementwise operations on all columns at once, so
    each entry is bitwise what normalize_column gives; the first constant
    column in registry order raises DegenerateColumnError.
    """
    values = matrix.values
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    span = hi - lo
    constant = np.flatnonzero(span == 0.0)
    if constant.size:
        raise DegenerateColumnError(matrix.registry[int(constant[0])].id)
    negative = [j for j, d in enumerate(matrix.registry.directions) if d is Direction.NEGATIVE]
    # x - lo, or hi - x in negative columns, then / span; each buffer is
    # made once and worked in place, since on a tall, narrow matrix a fresh
    # one costs more than the arithmetic
    out = values - lo
    flipped = values[:, negative]
    np.subtract(hi[negative], flipped, out=flipped)
    out[:, negative] = flipped
    out /= span
    return DataMatrix(states=matrix.states, values=out, registry=matrix.registry)


def load_normalized(path, registry: IndicatorRegistry) -> DataMatrix:
    """Read a normalized.csv produced by a previous stage (observations.csv layout)."""
    matrix = load_observations(path, registry)
    if np.min(matrix.values) < 0.0 or np.max(matrix.values) > 1.0:
        raise InputError(f"{path}: normalized values must lie in [0, 1]")
    return matrix
