import numpy as np
import pytest

from smi.analysis import (
    InequalityClass,
    inequality_classes,
    pillar_scores,
    pillar_weight_totals,
    scatter_data,
    scenario_table,
)
from smi.dataset import DataMatrix, Direction, IndicatorRegistry, IndicatorSpec
from smi.scoring import Category, composite_index


def _classify(gini, **kwargs):
    return inequality_classes(["X"], {"X": gini}, **kwargs)["X"]


def test_classify_boundary_rule():
    assert _classify(0.29) is InequalityClass.LOW
    assert _classify(0.30) is InequalityClass.HIGH
    assert _classify(0.31) is InequalityClass.HIGH


def test_classify_custom_threshold_and_range_check():
    assert _classify(0.40, threshold=0.5) is InequalityClass.LOW


def test_inequality_classes_marks_missing_states():
    classes = inequality_classes(["A", "B", "C"], {"A": 0.2, "B": 0.4})
    assert classes == {
        "A": InequalityClass.LOW,
        "B": InequalityClass.HIGH,
    }
    assert "C" not in classes


def test_scenario_table_partitions_states():
    categories = {
        "Delhi": Category.HIGH, "Kerala": Category.HIGH,
        "Assam": Category.MEDIUM, "Punjab": Category.MEDIUM,
        "Bihar": Category.LOW, "Odisha": Category.LOW,
        "Ghost": Category.LOW,
    }
    inequality = {
        "Delhi": InequalityClass.LOW, "Kerala": InequalityClass.HIGH,
        "Assam": InequalityClass.LOW, "Punjab": InequalityClass.HIGH,
        "Bihar": InequalityClass.LOW, "Odisha": InequalityClass.HIGH,
    }
    table = scenario_table(categories, inequality)
    grid = table["grid"]
    # scenarios.json keeps this row and column order
    assert list(grid) == ["High", "Medium", "Low"]
    assert all(list(row) == ["LowInequality", "HighInequality"] for row in grid.values())
    assert grid["High"]["LowInequality"] == ["Delhi"]
    assert grid["High"]["HighInequality"] == ["Kerala"]
    assert grid["Medium"]["LowInequality"] == ["Assam"]
    assert grid["Medium"]["HighInequality"] == ["Punjab"]
    assert grid["Low"]["LowInequality"] == ["Bihar"]
    assert grid["Low"]["HighInequality"] == ["Odisha"]
    assert table["unclassified"] == ["Ghost"]
    placed = [s for row in grid.values() for cell in row.values() for s in cell]
    assert sorted(placed + table["unclassified"]) == sorted(categories)


def test_scenario_table_empty_gini_all_unclassified():
    categories = {"A": Category.LOW, "B": Category.HIGH}
    table = scenario_table(categories, inequality_classes(["A", "B"], {}))
    assert table["unclassified"] == ["A", "B"]
    assert all(cell == [] for row in table["grid"].values() for cell in row.values())


def test_scenario_table_input_order_does_not_matter():
    categories = {"B": Category.LOW, "A": Category.LOW, "C": Category.LOW}
    inequality = {s: InequalityClass.LOW for s in categories}
    first = scenario_table(categories, inequality)
    second = scenario_table(dict(reversed(list(categories.items()))), inequality)
    assert first["grid"] == second["grid"]
    assert first["grid"]["Low"]["LowInequality"] == ["A", "B", "C"]


def test_scatter_data_pairs_and_omits():
    scores = {"Delhi": 0.853, "Assam": 0.352, "Ghost": 0.5}
    gini = {"Delhi": 0.25, "Assam": 0.26}
    rows = scatter_data(scores, gini)
    assert rows == [("Assam", 0.26, 0.352), ("Delhi", 0.25, 0.853)]
    assert sorted(set(scores) - {state for state, _, _ in rows}) == ["Ghost"]
    assert scatter_data({}, gini) == []


def _two_pillar_setup():
    specs = (
        IndicatorSpec(id="h1", name="H1", pillar="Health", direction=Direction.POSITIVE),
        IndicatorSpec(id="h2", name="H2", pillar="Health", direction=Direction.POSITIVE),
        IndicatorSpec(id="w1", name="W1", pillar="Fair Wages", direction=Direction.POSITIVE),
    )
    registry = IndicatorRegistry(specs=specs)
    values = np.array([
        [1.0, 0.0, 1.0],
        [1.0, 1.0, 0.0],
        [0.0, 0.5, 0.5],
    ])
    norm = DataMatrix(states=("A", "B", "C"), values=values, registry=registry)
    weights = np.array([3.0, 1.0, 2.0])
    return norm, weights, registry


def test_pillar_weight_totals():
    _, weights, registry = _two_pillar_setup()
    assert pillar_weight_totals(weights, registry) == {"Health": 4.0, "Fair Wages": 2.0}


def test_pillar_scores_hand_values():
    norm, weights, _ = _two_pillar_setup()
    pillars = pillar_scores(norm, weights)
    # Health for A: (1*3 + 0*1) / 4 = 0.75; B: all ones -> 1.0; C: (0*3 + 0.5*1) / 4
    assert pillars == {"Health": ([0.75, 1.0, 0.125], 1), "Fair Wages": ([1.0, 0.0, 0.5], 0)}
    assert list(pillars) == ["Health", "Fair Wages"]


def test_pillar_best_tie_goes_to_first_name():
    specs = (IndicatorSpec(id="h1", name="H1", pillar="Health",
                           direction=Direction.POSITIVE),)
    registry = IndicatorRegistry(specs=specs)
    for states, values, best in [(("Zeta", "Alpha"), [1.0, 1.0], "Alpha"),
                                 (("Alpha", "Zeta"), [1.0, 1.0], "Alpha"),
                                 (("Zeta", "Mid", "Alpha", "Beta"), [1.0, 0.5, 1.0, 0.2], "Alpha")]:
        norm = DataMatrix(states=states, values=np.array([values]).T, registry=registry)
        _, row = pillar_scores(norm, np.array([2.0]))["Health"]
        assert states[row] == best


def test_pillar_zero_weight_skipped_with_warning():
    norm, weights, _ = _two_pillar_setup()
    weights = weights.copy()
    weights[2] = 0.0
    assert list(pillar_scores(norm, weights)) == ["Health"]


def test_pillar_decomposition_matches_index():
    norm, weights, registry = _two_pillar_setup()
    pillars = pillar_scores(norm, weights)
    totals = pillar_weight_totals(weights, registry)
    scores = composite_index(norm, weights)
    total_weight = sum(totals.values())
    for i, state in enumerate(norm.states):
        mix = sum(values[i] * totals[pillar] / total_weight
                  for pillar, (values, _) in pillars.items())
        assert mix == pytest.approx(scores[state], abs=1e-12)


def _reference_pillars(norm, weights, registry):
    # the scalar loops pillar_weight_totals and pillar_scores replaced
    totals = {}
    columns = {}
    for j, spec in enumerate(registry):
        totals[spec.pillar] = totals.get(spec.pillar, 0.0) + float(weights[j])
        columns.setdefault(spec.pillar, []).append(j)
    values = {}
    for pillar, cols in columns.items():
        if totals[pillar] <= 0.0:
            continue
        for state, row in zip(norm.states, norm.values):
            acc = 0.0
            for j in cols:
                acc += float(row[j]) * float(weights[j])
            values[(state, pillar)] = acc / totals[pillar]
    return totals, values


def test_pillar_scores_are_byte_identical_to_scalar_loops():
    rng = np.random.default_rng(13)
    pillars = ["Health", "Education Access", "Fair Wages", "Work Opportunities"]
    for trial in range(40):
        n = 2 if trial % 7 == 0 else int(rng.integers(2, 40))
        p = 1 if trial % 5 == 0 else int(rng.integers(1, 25))
        specs = tuple(
            IndicatorSpec(id=f"x{j}", name=f"X{j}", pillar=pillars[int(rng.integers(0, 4))],
                          direction=Direction.POSITIVE)
            for j in range(p))
        registry = IndicatorRegistry(specs=specs)
        values = rng.uniform(0, 1, (n, p))
        if trial % 4 == 1:
            values[-1] = values[0]
        # later rows get earlier names, so a tie with row 0 goes to the last row
        states = tuple(f"s{n - i:02d}" for i in range(n))
        norm = DataMatrix(states=states, values=values, registry=registry)
        weights = rng.uniform(0, 3, p)
        if trial % 3 == 0:
            weights[[j for j, s in enumerate(specs) if s.pillar == specs[0].pillar]] = 0.0
        totals, expected = _reference_pillars(norm, weights, registry)
        assert pillar_weight_totals(weights, registry) == totals
        scored = pillar_scores(norm, weights)
        got = {(state, pillar): score for pillar, (subs, _) in scored.items()
               for state, score in zip(states, subs)}
        assert got == expected
        assert list(got) == list(expected)
        for subs, best in scored.values():
            by_name = dict(zip(states, subs))
            assert states[best] == max(sorted(by_name), key=by_name.__getitem__)
