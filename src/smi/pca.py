"""Correlation matrix, symmetric eigendecomposition, component selection.

The eigensolver takes LAPACK's eigenvectors V (numpy.linalg.eigh) of A
and certifies them once: the off-diagonal norm of V^T A V must fall
below DEFAULT_TOL relative to ||A||_F, or the run fails with a
NumericalError. The result is deterministic (fixed sign convention), and
reductions on the result path use fixed-order accumulation. Identical
inputs give byte-identical output on the same platform and numpy/BLAS
build; across builds only the last bits of the full-precision eigenpairs
may differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import MIN_STATES, DataMatrix, bare_matrix, validate_matrix
from .errors import InputError, NumericalError

# a p x p dense symmetric matrix and a p x k loading block are plain arrays
SymmetricMatrix = np.ndarray
LoadingMatrix = np.ndarray

# the eigensolver's certificate: off-diagonal norm of V^T A V below
# DEFAULT_TOL * max(1, ||A||_F), read on every call
DEFAULT_TOL = 1e-12


class Basis(Enum):
    CORRELATION = "correlation"
    COVARIANCE = "covariance"


class LoadingConvention(Enum):
    UNIT_EIGENVECTOR = "unit"
    SQRT_EIGENVALUE = "sqrt_eigenvalue"


@dataclass
class Spectrum:
    """Eigenvalues in descending order; column j of eigenvectors pairs with eigenvalue j."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    # always 0, kept because report.json and perfbench read it
    sweeps: int = 0
    off_diagonal_norm: float = 0.0

    @property
    def total_variance(self) -> float:
        return _ordered_sum(self.eigenvalues)


@dataclass
class ComponentSelection:
    """The leading prefix PC1..PCk of components kept for weighting.

    count is k, at least 1: component j (0-based) is selected when
    j < count. threshold_count is how many the eigenvalue cutoff alone
    kept; extended flags that the prefix grew further to reach the
    variance target (the two retention criteria disagreed).
    """

    count: int
    explained_variance_ratio: float
    threshold_count: int
    extended: bool


def _ordered_sum(terms):
    """Add terms left to right from 0.0: scalars, or whole arrays elementwise (in place).

    The fixed order keeps every reduction on the result path reproducible;
    scalar terms give a Python float, array terms an array.
    """
    total = 0.0
    for term in terms:
        total += term
    return total if isinstance(total, np.ndarray) else float(total)


def correlation_matrix(data, basis: Basis = Basis.CORRELATION, path=None) -> SymmetricMatrix:
    """Pearson correlations (or sample covariances) of the columns of data.

    data is a DataMatrix or a plain 2-D array, whose columns are then
    named col0, col1, ...; sample statistics use the n-1 denominator.
    Under the correlation basis a column that validate_matrix rejects, or
    whose sample variance squared underflows to 0 (a zero variance among
    them), cannot be correlated: InputError names each such column, and
    path, the file data was read from, when one is given.
    """
    if not isinstance(data, DataMatrix):
        values = np.asarray(data, dtype=np.float64)
        if values.ndim != 2:
            raise InputError("correlation input must be a 2-D matrix")
        data = bare_matrix(values, [f"col{j}" for j in range(values.shape[1])])
    values = data.values
    n = values.shape[0]
    if n < MIN_STATES:
        raise InputError(f"need at least {MIN_STATES} rows to estimate correlations, got {n}")

    means = _ordered_sum(values) / n
    dev = values - means
    # products commute exactly, so each row's outer product, and with it
    # the accumulated covariance, is bitwise symmetric
    cov = _ordered_sum(np.multiply.outer(row, row) for row in dev) / (n - 1)

    if basis is Basis.COVARIANCE:
        return cov

    validate_matrix(data, path)
    var = np.diag(cov)
    # the denominator is sqrt(var_i * var_j), and var_i * var_j is never
    # 0 when no variance's square is
    tiny = [f"indicator {ind_id!r} has sample variance {v!r}, too small to correlate"
            for ind_id, v in zip(data.registry.ids, var.tolist()) if v * v == 0.0]
    if tiny:
        raise InputError(tiny, path)
    corr = np.clip(cov / np.sqrt(np.multiply.outer(var, var)), -1.0, 1.0)
    np.fill_diagonal(corr, 1.0)
    return corr


def _off_diagonal_norm(a: np.ndarray) -> float:
    # a 1 x 1 matrix has no upper triangle, and the empty sum is 0.0
    upper = a[np.triu_indices(a.shape[0], 1)]
    # numpy's pairwise reduction has a fixed order, so this stays reproducible
    return math.sqrt(2.0 * float(np.sum(upper * upper)))


def _fix_signs(vectors: np.ndarray) -> None:
    # flip each column so its largest-magnitude entry is positive; argmax
    # takes the first maximum, so the lowest index breaks magnitude ties
    rows = np.argmax(np.abs(vectors), axis=0)
    flip = vectors[rows, np.arange(vectors.shape[1])] < 0.0
    vectors[:, flip] = -vectors[:, flip]


def eigendecompose(m: SymmetricMatrix) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix, LAPACK-computed and certified.

    The LAPACK eigenvectors V of the matrix A give B = V^T A V, whose
    diagonal holds the eigenvalues. The result is certified once: the
    off-diagonal Frobenius norm of B must fall below
    DEFAULT_TOL * max(1, ||A||_F), the backward-error form of LAPACK's own
    guarantee, or NumericalError carries the bound and the residual.
    Eigenpairs come back sorted by descending eigenvalue with a
    deterministic sign convention on the eigenvectors.
    """
    a = np.array(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InputError("eigendecompose needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise InputError("eigendecompose needs finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-12 * scale:
        raise InputError("matrix is not symmetric within 1e-12")
    a = (a + a.T) / 2.0
    _, v = np.linalg.eigh(a)
    # B = V^T A V, made bitwise symmetric
    b = v.T @ a @ v
    b = (b + b.T) / 2.0
    off = _off_diagonal_norm(b)
    bound = DEFAULT_TOL * max(1.0, math.sqrt(float(np.sum(a * a))))
    # "not <" refuses a NaN residual too
    if not off < bound:
        raise NumericalError(
            f"eigendecomposition not certified: off-diagonal norm of V^T A V"
            f" is not below {bound:.3e}",
            residual=off)

    eigenvalues = np.diag(b)
    order = np.argsort(-eigenvalues, kind="stable")
    eigenvalues = eigenvalues[order]
    vectors = v[:, order]
    _fix_signs(vectors)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=vectors, off_diagonal_norm=off)


def select_components(spectrum: Spectrum, eigen_threshold: float = 1.0,
                      variance_target: float = 0.85) -> ComponentSelection:
    """Keep the descending-eigenvalue prefix above the threshold, extending to the variance target.

    The prefix never comes back empty: if no eigenvalue clears the
    threshold, the first component is kept on its own and that is the
    whole selection (a spectrum that flat gives the variance target no
    meaningful prefix to grow). Otherwise, if the threshold prefix
    explains less than variance_target, further components are pulled in
    (even below the threshold) until the target is met; the selection
    records that the extension fired.
    """
    eigenvalues = spectrum.eigenvalues.tolist()
    p = len(eigenvalues)
    if p == 0:
        raise InputError("empty spectrum")
    total = spectrum.total_variance
    if total <= 0.0:
        raise NumericalError("total variance is not positive, cannot select components")

    threshold_count = 0
    for value in eigenvalues:
        if value > eigen_threshold:
            threshold_count += 1
        else:
            break
    k = max(threshold_count, 1)

    # a running prefix sum: the same additions, in the same order, as
    # _ordered_sum(eigenvalues[:k]) for every k it passes through
    explained = _ordered_sum(eigenvalues[:k])
    extended = False
    while threshold_count and explained / total < variance_target and k < p:
        explained += eigenvalues[k]
        k += 1
        extended = True
    return ComponentSelection(
        count=k,
        explained_variance_ratio=explained / total,
        threshold_count=threshold_count,
        extended=extended,
    )


def loading_matrix(spectrum: Spectrum, selection: ComponentSelection,
                   convention: LoadingConvention = LoadingConvention.UNIT_EIGENVECTOR) -> LoadingMatrix:
    """Loadings of each indicator on the selected prefix PC1..PCk (columns, descending eigenvalue).

    The default convention takes unit-eigenvector entries as loadings; the
    alternative scales each column by the square root of its eigenvalue.
    """
    k = selection.count
    p = spectrum.eigenvectors.shape[0]
    if not 0 < k <= p:
        raise InputError(f"selection of {k} components out of range for a spectrum of size {p}")
    cols = spectrum.eigenvectors[:, :k].copy()
    if convention is LoadingConvention.SQRT_EIGENVALUE:
        cols *= np.sqrt(np.maximum(spectrum.eigenvalues[:k], 0.0))
    return cols
