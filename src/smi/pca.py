"""Correlation matrix, symmetric eigendecomposition, component selection.

The eigensolver takes LAPACK's eigenvectors V (numpy.linalg.eigh) of A
and certifies them once: the off-diagonal norm of V^T A V must fall
below DEFAULT_TOL relative to ||A||_F, or the run fails with a
NumericalError. The result is deterministic (fixed sign convention), and
reductions on the result path use fixed-order accumulation. Identical
inputs give byte-identical output on the same platform, numpy/BLAS
build and BLAS thread count; across builds or thread counts only the
last bits of the full-precision eigenpairs may differ. The covariance's
summation order is numpy's einsum kernel, which is fixed within one
numpy build; test_einsum_covariance_is_byte_identical_to_row_by_row_sum
holds it to the row-by-row sum, and has been checked on AVX2 and
AVX-512 kernels only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import MIN_INDICATORS, MIN_STATES, DataMatrix, validate_matrix
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
    # always 0; perfbench reads it
    sweeps: int = 0
    off_diagonal_norm: float = 0.0

    @property
    def total_variance(self) -> float:
        return _ordered_sum(self.eigenvalues)


@dataclass
class ComponentSelection:
    """The leading prefix PC1..PCk of components kept for weighting.

    count is k, at least 1: component j (0-based) is selected when
    j < count; threshold_count is how many the eigenvalue cutoff alone kept.
    """

    count: int
    explained_variance_ratio: float
    threshold_count: int

    @property
    def extended(self) -> bool:
        """The prefix grew past a non-empty threshold prefix to reach the variance target."""
        return 0 < self.threshold_count < self.count


def _ordered_sum(terms):
    """Add terms left to right from 0.0: scalars, or whole arrays elementwise (in place).

    The fixed order keeps every reduction on the result path reproducible;
    scalar terms give a Python float, array terms an array.
    """
    total = 0.0
    for term in terms:
        total += term
    return total if isinstance(total, np.ndarray) else float(total)


def correlation_matrix(data: DataMatrix, basis: Basis = Basis.CORRELATION,
                       path=None) -> SymmetricMatrix:
    """Pearson correlations (or sample covariances) of the columns of a DataMatrix.

    Sample statistics use the n-1 denominator, over at least MIN_STATES
    rows and MIN_INDICATORS columns. Under the correlation basis a column
    that validate_matrix rejects, or whose sample variance squared
    underflows to 0 (a zero variance among them), cannot be correlated:
    InputError names each such column by its indicator id, and path, the
    file data was read from, when one is given.
    """
    values = data.values
    n, p = values.shape
    if n < MIN_STATES:
        raise InputError(f"need at least {MIN_STATES} rows to estimate correlations, got {n}")
    if p < MIN_INDICATORS:
        raise InputError(f"need at least {MIN_INDICATORS} indicators to correlate, got {p}")

    means = _ordered_sum(values) / n
    # einsum adds a C-ordered dev's row products in row order, the same
    # additions as one outer product at a time; products commute exactly,
    # so the covariance is bitwise symmetric. A Fortran-ordered dev, or a
    # single column (refused above), einsum sums in another order
    dev = np.ascontiguousarray(values - means)
    cov = np.einsum("ri,rj->ij", dev, dev, optimize=False) / (n - 1)

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


def _frobenius(values: np.ndarray, exponent: int, factor: float = 1.0) -> float:
    """sqrt(factor * sum of squares) of values, squared at the scale 2**-exponent.

    Scaling by a power of two is exact, so where the unscaled squares
    neither overflow nor underflow the result keeps its bits; numpy's
    pairwise reduction has a fixed order, so it stays reproducible.
    """
    scaled = np.ldexp(values, -exponent)
    return math.ldexp(math.sqrt(factor * float(np.sum(scaled * scaled))), exponent)


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
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InputError("eigendecompose needs a non-empty square matrix")
    if not np.all(np.isfinite(a)):
        raise InputError("eigendecompose needs finite entries")
    top = float(np.max(np.abs(a)))
    # halves first, so that neither the difference nor the sum of two
    # entries near the float limit overflows
    half = a / 2.0
    if float(np.max(np.abs(half - half.T))) > 0.5e-12 * max(1.0, top):
        raise InputError("matrix is not symmetric within 1e-12")
    a = half + half.T
    # both norms square at the scale of the largest entry, so neither
    # overflows; ||A||_F bounds every entry and partial sum of V^T A V,
    # so where it is a float nothing below overflows
    exponent = math.frexp(top)[1]
    try:
        norm = _frobenius(a, exponent)
    except OverflowError:
        raise InputError("matrix's Frobenius norm overflows the float range") from None
    _, v = np.linalg.eigh(a)
    # B = V^T A V, made bitwise symmetric
    b = v.T @ a @ v
    b = b / 2.0 + b.T / 2.0
    # a 1 x 1 B has no upper triangle, and the empty sum is 0.0
    off = _frobenius(b[np.triu_indices(len(b), 1)], exponent, 2.0)
    bound = DEFAULT_TOL * max(1.0, norm)
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
    total = spectrum.total_variance
    # an empty spectrum sums to 0.0, so this refuses it too
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
    # k < p binds only for a variance_target above 1, which this function does not refuse
    while threshold_count and explained / total < variance_target and k < p:
        explained += eigenvalues[k]
        k += 1
    return ComponentSelection(
        count=k,
        explained_variance_ratio=explained / total,
        threshold_count=threshold_count,
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
