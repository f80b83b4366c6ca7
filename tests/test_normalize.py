import numpy as np
import pytest

from smi.dataset import (
    DataMatrix,
    Direction,
    IndicatorRegistry,
    IndicatorSpec,
    load_observations,
)
from smi.errors import InputError
from smi.normalize import load_normalized, normalize_column, normalize_matrix


def _registry(directions):
    specs = tuple(
        IndicatorSpec(id=f"x{k}", name=f"X{k}", pillar="Health", direction=d)
        for k, d in enumerate(directions))
    return IndicatorRegistry(specs=specs)


def test_positive_endpoints_and_midpoint():
    out = normalize_column([2.0, 4.0, 6.0], Direction.POSITIVE)
    assert list(out) == [0.0, 0.5, 1.0]


def test_negative_endpoints():
    out = normalize_column([10.0, 20.0], Direction.NEGATIVE)
    assert list(out) == [1.0, 0.0]


def test_constant_column_raises_with_name():
    # one exit-1 family: a constant column is an input error
    with pytest.raises(InputError) as exc:
        normalize_column([5.0, 5.0, 5.0], Direction.POSITIVE, name="abr")
    assert exc.value.errors == ["indicator 'abr' is constant, min-max rescaling is undefined"]


def test_ties_at_extremes_map_exactly():
    out = normalize_column([1.0, 1.0, 3.0, 3.0, 2.0], Direction.POSITIVE)
    assert list(out[:2]) == [0.0, 0.0]
    assert list(out[2:4]) == [1.0, 1.0]


def test_matrix_two_state_example():
    registry = _registry([Direction.POSITIVE, Direction.NEGATIVE])
    matrix = DataMatrix(states=("A", "B"),
                        values=np.array([[1.0, 1.0], [3.0, 3.0]]),
                        registry=registry)
    norm = normalize_matrix(matrix)
    assert norm.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert norm.states == ("A", "B")


def test_matrix_idempotent_on_positive_columns():
    registry = _registry([Direction.POSITIVE] * 3)
    rng = np.random.default_rng(5)
    matrix = DataMatrix(states=tuple(f"s{i}" for i in range(6)),
                        values=rng.normal(0, 4, (6, 3)),
                        registry=registry)
    once = normalize_matrix(matrix)
    as_matrix = DataMatrix(states=once.states, values=once.values, registry=registry)
    twice = normalize_matrix(as_matrix)
    assert np.array_equal(once.values, twice.values)


def test_matrix_propagates_degenerate_column():
    registry = _registry([Direction.POSITIVE, Direction.POSITIVE])
    matrix = DataMatrix(states=("A", "B", "C"),
                        values=np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]]),
                        registry=registry)
    with pytest.raises(InputError) as exc:
        normalize_matrix(matrix)
    assert exc.value.errors == ["indicator 'x1' is constant, min-max rescaling is undefined"]


@pytest.mark.parametrize("shape", [(2, 1), (3, 2), (22, 31), (22, 120), (400, 7)])
def test_matrix_is_bitwise_normalize_column_on_each_column(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    directions = [Direction.NEGATIVE if rng.random() < 0.4 else Direction.POSITIVE
                  for _ in range(shape[1])]
    values = np.abs(rng.normal(50.0, 20.0, shape))
    if shape[0] > 3:
        # a tied, signed-zero minimum and a tied maximum
        values[:2, 0] = -0.0
        values[-2:, -1] = float(np.max(values[:, -1])) + 1.0
    matrix = DataMatrix(states=tuple(f"s{i}" for i in range(shape[0])), values=values,
                        registry=_registry(directions))
    expected = np.column_stack([normalize_column(values[:, j], d)
                                for j, d in enumerate(directions)])
    assert normalize_matrix(matrix).values.tobytes() == expected.tobytes()


def test_matrix_names_every_constant_column():
    registry = _registry([Direction.POSITIVE, Direction.NEGATIVE, Direction.NEGATIVE])
    matrix = DataMatrix(states=("A", "B", "C"),
                        values=np.array([[1.0, 7.0, 2.0], [2.0, 7.0, 2.0], [3.0, 7.0, 2.0]]),
                        registry=registry)
    with pytest.raises(InputError) as exc:
        normalize_matrix(matrix)
    assert exc.value.errors == [
        "indicator 'x1' is constant, min-max rescaling is undefined",
        "indicator 'x2' is constant, min-max rescaling is undefined",
    ]


def test_monotonicity():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(0, 10, 8)
        while len(np.unique(x)) < len(x):
            x = rng.normal(0, 10, 8)
        pos = normalize_column(x, Direction.POSITIVE)
        neg = normalize_column(x, Direction.NEGATIVE)
        order = np.argsort(x)
        assert np.all(np.diff(pos[order]) > 0)
        assert np.all(np.diff(neg[order]) < 0)


def test_load_normalized_enforces_bounds(tmp_path):
    registry = _registry([Direction.POSITIVE, Direction.POSITIVE])
    path = tmp_path / "normalized.csv"
    for cell in ("1.2", "-0.1"):
        path.write_text(f"state,x0,x1\nA,0.5,0.0\nB,{cell},1.0\nC,1.0,0.5\n", encoding="utf-8")
        with pytest.raises(InputError) as exc:
            load_normalized(path, registry)
        assert exc.value.errors == [f"{path}: row 3: value {cell!r} for (B, x0) outside [0, 1]"]
    path.write_text("state,x0,x1\nA,0.5,0.0\nB,0.0,1.0\nC,1.0,0.5\n", encoding="utf-8")
    assert load_normalized(path, registry).values[1].tolist() == [0.0, 1.0]


def test_fixture_columns_attain_both_endpoints(registry, observations_path):
    matrix = load_observations(observations_path, registry)
    norm = normalize_matrix(matrix)
    assert norm.values.shape == (22, 31)
    assert float(np.min(norm.values)) >= 0.0 and float(np.max(norm.values)) <= 1.0
    for j in range(norm.n_indicators):
        col = norm.values[:, j]
        assert np.any(col == 0.0) and np.any(col == 1.0)
