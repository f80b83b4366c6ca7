import math

import numpy as np
import pytest

import smi.pca
from smi.errors import InputError, NumericalError
from smi.pca import (
    Basis,
    LoadingConvention,
    Spectrum,
    _fix_signs,
    _ordered_sum,
    correlation_matrix,
    eigendecompose,
    loading_matrix,
    select_components,
)


def test_correlation_identical_columns():
    x = np.array([0.1, 0.5, 0.9, 0.3])
    corr = correlation_matrix(np.column_stack([x, x]))
    assert corr[0, 1] == 1.0 and corr[1, 0] == 1.0
    assert corr[0, 0] == 1.0 and corr[1, 1] == 1.0


def test_correlation_direction_flipped_twin():
    x = np.array([0.0, 1.0, 0.4, 0.7])
    corr = correlation_matrix(np.column_stack([x, 1.0 - x]))
    assert corr[0, 1] == pytest.approx(-1.0, abs=1e-15)


def test_correlation_orthogonal_hand_case():
    data = np.column_stack([[0.0, 1.0, 0.5], [0.0, 0.0, 1.0]])
    corr = correlation_matrix(data)
    assert abs(corr[0, 1]) < 1e-12


def test_correlation_matches_numpy():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(3, 40))
        p = int(rng.integers(2, 12))
        data = rng.normal(0, 2, (n, p))
        corr = correlation_matrix(data)
        assert np.allclose(corr, np.corrcoef(data, rowvar=False), atol=1e-12)
        assert np.array_equal(corr, corr.T)
        assert np.all(np.abs(corr) <= 1.0)
        assert np.all(np.diag(corr) == 1.0)


def _reference_correlation(data, basis):
    # the scalar double loop the vectorised correlation_matrix replaced
    n, p = data.shape
    means = np.array([_ordered_sum(data[:, j]) / n for j in range(p)])
    dev = data - means
    cov = np.empty((p, p))
    for j in range(p):
        for k in range(j, p):
            cov[j, k] = cov[k, j] = _ordered_sum(dev[:, j] * dev[:, k]) / (n - 1)
    if basis is Basis.COVARIANCE:
        return cov
    corr = np.empty((p, p))
    for j in range(p):
        corr[j, j] = 1.0
        for k in range(j + 1, p):
            r = cov[j, k] / math.sqrt(cov[j, j] * cov[k, k])
            corr[j, k] = corr[k, j] = min(1.0, max(-1.0, r))
    return corr


def test_correlation_is_byte_identical_to_scalar_loops():
    rng = np.random.default_rng(5)
    for trial in range(40):
        n = int(rng.integers(3, 50))
        p = int(rng.integers(1, 25))
        data = rng.normal(0, 1, (n, p)) * rng.uniform(0.1, 100, p) + rng.normal(0, 5, p)
        if trial % 4 == 0:
            data = np.round(data, 1)
        if trial % 5 == 0 and p > 1:
            data[:, -1] = -data[:, 0]
        for basis in Basis:
            got = correlation_matrix(data, basis)
            assert got.tobytes() == _reference_correlation(data, basis).tobytes()


def test_covariance_matches_numpy():
    rng = np.random.default_rng(4)
    data = rng.normal(0, 2, (15, 6))
    cov = correlation_matrix(data, basis=Basis.COVARIANCE)
    assert np.allclose(cov, np.cov(data, rowvar=False), atol=1e-12)


def test_correlation_needs_three_rows():
    with pytest.raises(InputError, match="at least 3"):
        correlation_matrix(np.ones((2, 3)))


def test_correlation_rejects_constant_column():
    # three 0.1s have a mean of 0.10000000000000002, so a nonzero variance:
    # only min == max catches that column
    for constant in (5.0, 0.1):
        data = np.column_stack([[1.0, 2.0, 3.0], [constant] * 3])
        with pytest.raises(InputError) as exc:
            correlation_matrix(data)
        assert exc.value.errors == ["indicator 'col1' is constant, min-max rescaling is undefined"]


def test_eigendecompose_identity():
    spec = eigendecompose(np.eye(2))
    assert list(spec.eigenvalues) == [1.0, 1.0]
    assert np.array_equal(spec.eigenvectors, np.eye(2))


def test_eigendecompose_diagonal_sorting():
    spec = eigendecompose(np.array([[2.0, 0.0], [0.0, 3.0]]))
    assert list(spec.eigenvalues) == [3.0, 2.0]
    # a 1 x 1 matrix has no off-diagonal entry at all
    spec = eigendecompose(np.array([[-4.5]]))
    assert spec.eigenvalues.tolist() == [-4.5]
    assert spec.eigenvectors.tolist() == [[1.0]]
    assert spec.sweeps == 0 and spec.off_diagonal_norm == 0.0


def test_eigendecompose_hand_two_by_two():
    spec = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert spec.eigenvalues == pytest.approx([3.0, 1.0], abs=1e-12)
    r = 1.0 / math.sqrt(2.0)
    assert spec.eigenvectors[:, 0] == pytest.approx([r, r], abs=1e-12)
    # sign rule: magnitudes tie, so the lowest index goes positive
    assert spec.eigenvectors[:, 1] == pytest.approx([r, -r], abs=1e-12)
    ties = np.array([[-0.5, 0.5, 0.0, -0.6],
                     [0.5, -0.5, -0.0, 0.6],
                     [0.5, 0.5, 0.0, -0.2]])
    _fix_signs(ties)
    assert ties.tolist() == [[0.5, 0.5, 0.0, 0.6],
                             [-0.5, -0.5, -0.0, -0.6],
                             [-0.5, 0.5, 0.0, 0.2]]


def test_eigendecompose_matches_lapack_eigenvalues():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(2, 20))
        a = rng.normal(0, 3, (n, n))
        a = (a + a.T) / 2.0
        spec = eigendecompose(a)
        assert np.allclose(spec.eigenvalues, np.linalg.eigvalsh(a)[::-1], atol=1e-10)


def test_eigendecompose_reconstructs_input():
    rng = np.random.default_rng(9)
    a = rng.normal(0, 1, (7, 7))
    a = (a + a.T) / 2.0
    spec = eigendecompose(a)
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    assert np.allclose(rebuilt, a, atol=1e-10)


def _scaled_matrix() -> np.ndarray:
    # at this scale the seed's residual exceeds 1e-12 in absolute terms,
    # though not relative to the matrix's norm
    rng = np.random.default_rng(13)
    a = rng.normal(0, 1, (12, 12))
    return 1e6 * (a + a.T) / 2.0


def test_eigendecompose_is_bit_deterministic():
    rng = np.random.default_rng(10)
    a = rng.normal(0, 1, (9, 9))
    for m in ((a + a.T) / 2.0, _scaled_matrix()):
        first = eigendecompose(m)
        second = eigendecompose(m)
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()
        assert first.sweeps == second.sweeps
        assert first.off_diagonal_norm == second.off_diagonal_norm


def test_eigendecompose_input_checks():
    with pytest.raises(InputError, match="square"):
        eigendecompose(np.ones((2, 3)))
    with pytest.raises(InputError, match="symmetric"):
        eigendecompose(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with pytest.raises(InputError, match="finite"):
        eigendecompose(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_eigendecompose_uncertified_seed_raises_with_residual(monkeypatch):
    # the LAPACK seed leaves a rounding-level residual that no positive
    # tolerance this small certifies
    monkeypatch.setattr(smi.pca, "DEFAULT_TOL", 1e-300)
    rng = np.random.default_rng(11)
    a = rng.normal(0, 1, (9, 9))
    a = (a + a.T) / 2.0
    with pytest.raises(NumericalError) as exc:
        eigendecompose(a)
    assert exc.value.residual is not None and exc.value.residual > 0
    assert "residual" in str(exc.value)


def test_eigendecompose_certifies_a_scaled_matrix():
    a = _scaled_matrix()
    spec = eigendecompose(a)
    norm = math.sqrt(float(np.sum(a * a)))
    assert spec.sweeps == 0
    assert 1e-12 <= spec.off_diagonal_norm < 1e-12 * norm
    expected = np.linalg.eigvalsh(a)[::-1]
    assert float(np.max(np.abs(spec.eigenvalues - expected))) <= (
        1e-9 * float(np.max(np.abs(expected))))
    rebuilt = spec.eigenvectors @ np.diag(spec.eigenvalues) @ spec.eigenvectors.T
    assert np.allclose(rebuilt, a, rtol=0.0, atol=1e-8 * float(np.max(np.abs(a))))
    gram = spec.eigenvectors.T @ spec.eigenvectors
    assert float(np.max(np.abs(gram - np.eye(12)))) <= 1e-12


def test_eigendecompose_refuses_an_identity_seed(monkeypatch):
    # an identity seed leaves V^T A V = A, whose off-diagonal entries are
    # nowhere near a rounding residual: the certificate refuses it
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (None, np.eye(len(m))))
    rng = np.random.default_rng(14)
    a = rng.normal(0, 1, (10, 10))
    a = (a + a.T) / 2.0
    with pytest.raises(NumericalError) as exc:
        eigendecompose(a)
    upper = a[np.triu_indices(10, 1)]
    assert exc.value.residual == pytest.approx(math.sqrt(2.0 * float(np.sum(upper * upper))))
    assert exc.value.residual > 1.0
    assert "residual" in str(exc.value)


def test_eigendecompose_is_scale_equivariant():
    # a power-of-two scale is exact in every product and sum, so the
    # eigenvectors keep their bytes and the eigenvalues scale exactly
    rng = np.random.default_rng(15)
    for _ in range(60):
        p = int(rng.integers(2, 40))
        a = rng.normal(0, 1, (p, p))
        a = (a + a.T) / 2.0
        base = eigendecompose(a)
        for k in (-20, -10, 10, 20, 30):
            scaled = eigendecompose(math.ldexp(1.0, k) * a)
            assert scaled.eigenvectors.tobytes() == base.eigenvectors.tobytes()
            assert scaled.eigenvalues.tobytes() == (math.ldexp(1.0, k) * base.eigenvalues).tobytes()


def test_eigendecompose_handles_rank_deficiency():
    # 22 observations of 31 variables: covariance rank is at most 21,
    # so at least 10 eigenvalues must come out (numerically) zero
    rng = np.random.default_rng(12)
    data = rng.normal(0, 1, (22, 31))
    cov = correlation_matrix(data, basis=Basis.COVARIANCE)
    spec = eigendecompose(cov)
    near_zero = int(np.sum(np.abs(spec.eigenvalues) <= 1e-8))
    assert near_zero >= 10
    assert float(np.sum(spec.eigenvalues)) == pytest.approx(float(np.trace(cov)), abs=1e-8)


def test_select_prefix_without_extension():
    spec = Spectrum(eigenvalues=np.array([3.1, 1.4, 0.3, 0.15, 0.05]),
                    eigenvectors=np.eye(5))
    sel = select_components(spec)
    assert sel.count == 2
    assert sel.threshold_count == 2
    assert not sel.extended
    assert sel.explained_variance_ratio == pytest.approx(0.9, abs=1e-12)


def test_select_flat_spectrum_keeps_minimum_prefix():
    spec = Spectrum(eigenvalues=np.ones(5), eigenvectors=np.eye(5))
    sel = select_components(spec)
    assert sel.count == 1
    assert sel.threshold_count == 0
    assert not sel.extended
    assert sel.explained_variance_ratio == pytest.approx(0.2, abs=1e-12)


def test_select_extension_fires_to_reach_target():
    spec = Spectrum(eigenvalues=np.array([2.0, 0.9, 0.6, 0.5]), eigenvectors=np.eye(4))
    sel = select_components(spec, eigen_threshold=1.0, variance_target=0.85)
    # 2.0/4.0 = 0.5, then 0.725, then 0.875 >= 0.85
    assert sel.count == 3
    assert sel.threshold_count == 1
    assert sel.extended
    assert sel.explained_variance_ratio == pytest.approx(0.875, abs=1e-12)


def test_select_threshold_is_strict():
    spec = Spectrum(eigenvalues=np.array([1.0 + 1e-9, 1.0, 0.5]), eigenvectors=np.eye(3))
    sel = select_components(spec, variance_target=0.0)
    assert sel.threshold_count == 1


def test_select_rejects_nonpositive_total():
    spec = Spectrum(eigenvalues=np.array([1.0, -1.0]), eigenvectors=np.eye(2))
    with pytest.raises(NumericalError, match="total variance"):
        select_components(spec)


def test_loadings_standard_basis():
    spec = Spectrum(eigenvalues=np.array([1.0, 1.0]), eigenvectors=np.eye(2))
    sel = select_components(spec)
    loadings = loading_matrix(spec, sel)
    assert loadings.shape == (2, 1)
    assert list(loadings[:, 0]) == [1.0, 0.0]


def test_loadings_hand_two_by_two_both_conventions():
    spec = eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    sel = select_components(spec, eigen_threshold=0.0, variance_target=0.0)
    assert sel.count == 2
    unit = loading_matrix(spec, sel, LoadingConvention.UNIT_EIGENVECTOR)
    r = 1.0 / math.sqrt(2.0)
    assert unit == pytest.approx(np.array([[r, r], [r, -r]]), abs=1e-12)
    for j in range(2):
        assert float(np.linalg.norm(unit[:, j])) == pytest.approx(1.0, abs=1e-8)
    scaled = loading_matrix(spec, sel, LoadingConvention.SQRT_EIGENVALUE)
    assert float(np.linalg.norm(scaled[:, 0])) == pytest.approx(math.sqrt(3.0), abs=1e-8)
    assert float(np.linalg.norm(scaled[:, 1])) == pytest.approx(1.0, abs=1e-8)


def test_loadings_sqrt_convention_clamps_negative_eigenvalues():
    from smi.pca import ComponentSelection

    spec = Spectrum(eigenvalues=np.array([2.0, -1e-12]), eigenvectors=np.eye(2))
    sel = ComponentSelection(count=2, explained_variance_ratio=1.0,
                             threshold_count=1, extended=False)
    scaled = loading_matrix(spec, sel, LoadingConvention.SQRT_EIGENVALUE)
    assert np.all(scaled[:, 1] == 0.0)
