import math
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smi.cli import BOUNDARY_WARNING_MARGIN, RunConfig, _FIXED, _score_stage
from smi.errors import InputError, NumericalError
from smi.scoring import (
    Category,
    CategoryThresholds,
    PercentileMethod,
    composite_index,
    compute_weights,
    percentile,
    state_scores,
    thresholds_from_scores,
)

from helpers import data_matrix

# cutoffs that leave every state Medium, for the tests of ranks alone
ALL_MEDIUM = CategoryThresholds(t_low=-math.inf, t_high=math.inf)


def _ranks(scores):
    return [(entry.state, entry.rank) for entry in state_scores(scores, ALL_MEDIUM)]


def test_weights_two_term_hand_oracle():
    loadings = np.array([[0.6, 0.8], [0.8, -0.6]])
    weights = compute_weights(loadings, [2.0, 1.0])
    assert list(weights) == [2.0, 2.2]


def test_weights_absolute_value_kills_sign():
    assert list(compute_weights(np.array([[-0.5]]), [2.0])) == [1.0]


def test_weights_unit_vector_single_component():
    v = np.array([0.6, -0.8])
    weights = compute_weights(v.reshape(-1, 1), [1.0])
    assert float(np.sum(weights**2)) == pytest.approx(1.0, abs=1e-12)


def test_weights_column_sign_flip_is_bit_invariant():
    rng = np.random.default_rng(21)
    loadings = rng.normal(0, 1, (6, 3))
    eigenvalues = [2.5, 1.2, 0.4]
    base = compute_weights(loadings, eigenvalues)
    flipped = loadings.copy()
    flipped[:, 1] *= -1.0
    assert np.array_equal(compute_weights(flipped, eigenvalues), base)


def test_weights_dimension_mismatch():
    with pytest.raises(InputError, match="column"):
        compute_weights(np.ones((3, 2)), [1.0])
    # no component would weigh every indicator 0, which no index can use
    with pytest.raises(InputError, match="at least one column"):
        compute_weights(np.ones((3, 0)), [])


def test_weights_negative_eigenvalue_beyond_slack():
    with pytest.raises(NumericalError, match="negative"):
        compute_weights(np.ones((2, 1)), [-1e-3])


def test_weights_tiny_negative_eigenvalue_clamped():
    weights = compute_weights(np.ones((2, 1)), [-1e-12])
    assert list(weights) == [0.0, 0.0]


def test_index_hand_cases():
    norm = data_matrix([[1.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    scores = composite_index(norm, np.array([3.0, 1.0]))
    assert scores["s0"] == 1.0
    assert scores["s1"] == 0.75
    assert scores["s2"] == 0.5


def test_index_zero_total_weight():
    norm = data_matrix([[0.5, 0.5]])
    with pytest.raises(NumericalError, match="weight"):
        composite_index(norm, np.array([0.0, 0.0]))


def test_index_rejects_negative_weights():
    norm = data_matrix([[0.5, 0.5]])
    with pytest.raises(InputError, match="negative"):
        composite_index(norm, np.array([1.0, -0.5]))
    with pytest.raises(InputError, match="3 weights for 2 indicators"):
        composite_index(norm, np.array([1.0, 1.0, 1.0]))


def test_index_bounds_property():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        p = int(rng.integers(1, 9))
        norm = data_matrix(rng.random((n, p)))
        weights = rng.random(p) + 1e-9
        for value in composite_index(norm, weights).values():
            assert 0.0 <= value <= 1.0


def test_index_weight_scale_invariance():
    rng = np.random.default_rng(23)
    norm = data_matrix(rng.random((8, 5)))
    weights = rng.random(5) + 0.1
    base = composite_index(norm, weights)
    scaled = composite_index(norm, weights * 37.5)
    for state in base:
        assert scaled[state] == pytest.approx(base[state], abs=1e-12)


def test_rank_alphabetical_tie_break():
    ranked = _ranks({"Bravo": 0.26, "Alpha": 0.26, "Zulu": 0.9})
    assert [(s, r) for s, r, in ranked] == [("Zulu", 1), ("Alpha", 2), ("Bravo", 3)]


def test_rank_singleton():
    assert _ranks({"Solo": 0.4}) == [("Solo", 1)]
    with pytest.raises(InputError, match="empty"):
        _ranks({})


def test_rank_is_permutation():
    rng = np.random.default_rng(24)
    scores = {f"s{i}": float(v) for i, v in enumerate(rng.random(15))}
    ranked = _ranks(scores)
    assert sorted(r for _, r in ranked) == list(range(1, 16))
    values = [scores[s] for s, _ in ranked]
    assert values == sorted(values, reverse=True)


def test_percentile_constant_list():
    for method in PercentileMethod:
        assert percentile([5.0, 5.0, 5.0], 30.0, method) == 5.0


def test_percentile_exclusive_hand_values():
    values = [1.0, 2.0, 3.0, 4.0]
    # h = 5 * 0.25 = 1.25 and h = 5 * 0.75 = 3.75
    assert percentile(values, 25.0, PercentileMethod.EXCLUSIVE) == pytest.approx(1.25)
    assert percentile(values, 75.0, PercentileMethod.EXCLUSIVE) == pytest.approx(3.75)
    # h clamps into [1, n]
    assert percentile(values, 1.0, PercentileMethod.EXCLUSIVE) == 1.0
    assert percentile(values, 99.9, PercentileMethod.EXCLUSIVE) == 4.0


def test_percentile_inclusive_and_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0]
    # h = 1 + 3 * 0.25 = 1.75
    assert percentile(values, 25.0, PercentileMethod.INCLUSIVE) == pytest.approx(1.75)
    assert percentile(values, 25.0, PercentileMethod.INCLUSIVE) == pytest.approx(
        float(np.percentile(values, 25.0)))
    # ceil(4 * 0.75) = 3rd order statistic
    assert percentile(values, 75.0, PercentileMethod.NEAREST_RANK) == 3.0
    assert percentile(values, 75.1, PercentileMethod.NEAREST_RANK) == 4.0


def test_percentile_input_checks():
    with pytest.raises(InputError, match="at least 3"):
        percentile([1.0, 2.0], 50.0, PercentileMethod.EXCLUSIVE)
    with pytest.raises(InputError, match="at least 1"):
        percentile([], 50.0, PercentileMethod.INCLUSIVE)


def test_percentile_unsorted_input_is_sorted_internally():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 75.0, PercentileMethod.EXCLUSIVE) == pytest.approx(3.75)


def test_thresholds_ordered_and_validated():
    scores = {f"s{i}": v for i, v in enumerate([0.1, 0.4, 0.2, 0.9, 0.6])}
    thresholds = thresholds_from_scores(scores)
    assert thresholds.t_low <= thresholds.t_high
    with pytest.raises(InputError, match="^percentiles must satisfy 0 < low < high < 100, "
                                         "got low=80.0 high=20.0$"):
        thresholds_from_scores(scores, low_percentile=80.0, high_percentile=20.0)
    with pytest.raises(ValueError, match="t_low"):
        CategoryThresholds(t_low=0.7, t_high=0.3)
    # percentile is not monotone in p once max - min overflows: at p = 30
    # the exclusive interpolation is -1e308 + 0.5 * inf, while p = 80 lands
    # on 1e308, and the order check is what refuses the pair
    overflowing = {"a": -1e308, "b": 1e308, "c": 1e308, "d": 1e308}
    with pytest.raises(InputError, match=r"^t_low inf exceeds t_high 1e\+308$"):
        thresholds_from_scores(overflowing, 30.0, 80.0)


def _position(method: PercentileMethod, n: int, p: float) -> float:
    """The order-statistic position percentile takes for p: h, or n p / 100 for nearest rank."""
    if method is PercentileMethod.EXCLUSIVE:
        return (n + 1) * p / 100.0
    if method is PercentileMethod.INCLUSIVE:
        return 1.0 + (n - 1) * p / 100.0
    return n * p / 100.0


def _least_p_reaching(method: PercentileMethod, n: int, m: int) -> float:
    """The least float p >= 0 whose position is at least the integer m (m, where a p hits it)."""
    offset, scale = {PercentileMethod.EXCLUSIVE: (0, n + 1), PercentileMethod.INCLUSIVE: (1, n - 1),
                     PercentileMethod.NEAREST_RANK: (0, n)}[method]
    p = 100.0 * (m - offset) / scale
    while p > 0.0 and _position(method, n, p) >= m:
        p = math.nextafter(p, 0.0)
    while _position(method, n, p) < m:
        p = math.nextafter(p, math.inf)
    return p


# finite scores whose spread max - min is finite too; past that, see
# test_thresholds_ordered_and_validated
SPREAD_SAFE_SCORES = st.floats(-sys.float_info.max / 2, sys.float_info.max / 2)


@given(data=st.data(), n=st.integers(3, 30), method=st.sampled_from(list(PercentileMethod)))
def test_percentile_is_monotone_in_p(data, n, method):
    # the pairs put the position just below an integer m and on it, where the
    # interpolation moves to the next pair of order statistics; then the
    # least p, for nearest rank's floor, and a free pair
    values = data.draw(st.lists(st.one_of(NEAR_CUTOFF_SCORES, SPREAD_SAFE_SCORES),
                                min_size=n, max_size=n))
    m = data.draw(st.integers(1, n))
    on = _least_p_reaching(method, n, m)
    free = sorted(data.draw(st.floats(0.0, 100.0, exclude_min=True, exclude_max=True))
                  for _ in range(2))
    for low, high in [(math.nextafter(on, 0.0), on), (5e-324, on), free]:
        if 0.0 < low < high < 100.0:
            assert percentile(values, low, method) <= percentile(values, high, method)


def test_categorize_boundaries():
    thresholds = CategoryThresholds(t_low=0.26, t_high=0.561)
    scores = {"hi": 0.853, "at_high": 0.561, "mid": 0.36,
              "at_low": 0.26, "below": 0.2599}
    cats = {entry.state: entry.category for entry in state_scores(scores, thresholds)}
    assert cats["hi"] is Category.HIGH
    assert cats["at_high"] is Category.HIGH
    assert cats["mid"] is Category.MEDIUM
    assert cats["at_low"] is Category.MEDIUM
    assert cats["below"] is Category.LOW


def test_category_monotonicity_property():
    rng = np.random.default_rng(25)
    order = {Category.LOW: 0, Category.MEDIUM: 1, Category.HIGH: 2}
    for _ in range(50):
        scores = {f"s{i}": float(v) for i, v in enumerate(rng.random(10))}
        thresholds = thresholds_from_scores(scores)
        cats = {entry.state: entry.category for entry in state_scores(scores, thresholds)}
        ranked = sorted(scores, key=scores.get)
        levels = [order[cats[s]] for s in ranked]
        assert levels == sorted(levels)


def test_state_scores_integration():
    scores = {"A": 0.9, "B": 0.5, "C": 0.1, "D": 0.45, "E": 0.55}
    thresholds = thresholds_from_scores(scores)
    entries = state_scores(scores, thresholds)
    assert [e.state for e in entries] == ["A", "E", "B", "D", "C"]
    assert [e.rank for e in entries] == [1, 2, 3, 4, 5]
    assert entries[0].category is Category.HIGH
    assert entries[-1].category is Category.LOW
    buckets = {c: 0 for c in Category}
    for e in entries:
        buckets[e.category] += 1
    assert sum(buckets.values()) == 5


def _reference_weights(loadings, eigenvalues):
    # the scalar double loop compute_weights replaced
    e_values = [max(float(e), 0.0) for e in eigenvalues]
    weights = np.empty(loadings.shape[0])
    for i in range(loadings.shape[0]):
        total = 0.0
        for j, e in enumerate(e_values):
            total += abs(loadings[i, j]) * e
        weights[i] = total
    return weights


def _reference_composite(norm, weights):
    # the scalar double loop composite_index replaced
    w = [float(v) for v in weights]
    total_weight = 0.0
    for v in w:
        total_weight += v
    scores = {}
    for state, row in zip(norm.states, norm.values):
        acc = 0.0
        for x, v in zip(row, w):
            acc += float(x) * v
        scores[state] = acc / total_weight
    return scores


def test_weights_and_index_are_byte_identical_to_scalar_loops():
    rng = np.random.default_rng(11)
    for trial in range(40):
        n = 2 if trial % 7 == 0 else int(rng.integers(2, 40))
        p = 1 if trial % 5 == 0 else int(rng.integers(1, 25))
        k = int(rng.integers(1, p + 1))
        loadings = rng.normal(0, 1, (p, k))
        loadings[rng.random((p, k)) < 0.1] = 0.0
        eigenvalues = rng.uniform(0, 5, k)
        if trial % 3 == 0:
            eigenvalues[-1] = -1e-12 if trial % 2 else -0.0
        weights = compute_weights(loadings, eigenvalues)
        assert np.array_equal(weights, _reference_weights(loadings, eigenvalues))

        values = rng.uniform(0, 1, (n, p))
        if trial % 4 == 0:
            values = np.round(values, 1)
        if trial % 6 == 0:
            weights[rng.random(p) < 0.5] = 0.0
        weights[0] = max(weights[0], 1.5)
        norm = data_matrix(values)
        scores = composite_index(norm, weights)
        assert scores == _reference_composite(norm, weights)
        assert list(scores) == list(norm.states)
        assert all(type(v) is float for v in scores.values())


def _reference_state_scores(scores, thresholds):
    # the per-state loop state_scores replaced: one key tuple, one comparison chain per state
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(state, value, position,
             Category.HIGH if value >= thresholds.t_high
             else Category.LOW if value < thresholds.t_low else Category.MEDIUM)
            for position, (state, value) in enumerate(ordered, start=1)]


def _reference_warnings(ranked, thresholds):
    # the loop _score_stage ran over every state, before a numpy comparison picked candidates
    warnings = []
    for state, value, _, _ in ranked:
        for name, cut in (("low", thresholds.t_low), ("high", thresholds.t_high)):
            if abs(value - cut) < BOUNDARY_WARNING_MARGIN:
                warnings.append(
                    f"{state} scores within {BOUNDARY_WARNING_MARGIN} of the "
                    f"{name} threshold ({_FIXED % value} vs {_FIXED % cut}); "
                    "its category is sensitive to score rounding")
    return warnings


# a small pool, so that draws tie exactly, sit on a percentile cutoff, and
# land within BOUNDARY_WARNING_MARGIN of one; a fine grid and free floats besides
NEAR_CUTOFF_SCORES = st.one_of(
    st.sampled_from([0.0, 0.25, 0.2505, 0.2495, 0.251, 0.5, 0.5 + 1e-3, 0.5 - 1e-3, 0.75, 1.0]),
    st.integers(0, 400).map(lambda k: k / 400),
    st.floats(0.0, 1.0),
)


@given(data=st.data(), n=st.integers(3, 40),
       method=st.sampled_from(list(PercentileMethod)),
       cut=st.sampled_from([(25.0, 75.0), (10.0, 90.0), (40.0, 60.0), (50.0, 50.5)]))
def test_state_scores_and_boundary_warnings_match_the_per_state_loop(data, n, method, cut):
    values = data.draw(st.lists(NEAR_CUTOFF_SCORES, min_size=n, max_size=n))
    states = data.draw(st.lists(st.text("ab%, ", min_size=1, max_size=3),
                                min_size=n, max_size=n, unique=True))
    # one indicator of weight 1, so each state's score is its drawn value exactly
    norm = data_matrix(np.array(values)[:, None], states=tuple(states))
    config = RunConfig(data="", meta="", out_dir="", percentile_method=method,
                       low_percentile=cut[0], high_percentile=cut[1])
    warnings = []
    _, scores, thresholds, ranked = _score_stage(norm, np.ones((1, 1)), [1.0], config, warnings)
    assert scores == dict(zip(states, values))
    reference = _reference_state_scores(scores, thresholds)
    assert ranked == reference
    assert state_scores(scores, thresholds) == reference
    assert all(got.category is want for got, (*_, want) in zip(ranked, reference))
    assert warnings == _reference_warnings(reference, thresholds)
