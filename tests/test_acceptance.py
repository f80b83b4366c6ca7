"""Acceptance checks, one test per shipped criterion.

Each test prints a [acceptance] PASS/FAIL line through the hook in
conftest.py. Reference values come from data/reference_scores.csv and
data/gini.csv; everything else is randomized property checking with
fixed seeds or end-to-end runs on the synthetic fixture.
"""

import json
import math
import time

import numpy as np
import pytest

from smi.analysis import inequality_classes, scenario_table
from smi.dataset import PILLARS, Direction, load_gini
from smi.normalize import normalize_matrix
from smi.pca import correlation_matrix, eigendecompose, loading_matrix, select_components
from smi.scoring import (
    Category,
    PercentileMethod,
    composite_index,
    compute_weights,
    percentile,
    state_scores,
    thresholds_from_scores,
)
from smi.analysis import pillar_scores, pillar_weight_totals

from helpers import STAGE_FILES, data_matrix, normalized_column, run_cli

pytestmark = pytest.mark.acceptance

# the reference table prints these three states as Low although their
# scores sit at or above the low cutoff computed from the same table;
# the monotone threshold rule used here classifies them Medium
KNOWN_CATEGORY_MISMATCHES = {"Bihar", "Rajasthan", "Jharkhand"}

# exact score tie at 0.260: the tie rule here is alphabetical, the
# reference order is not, so only this pair may swap ranks
TIE_PAIR = {"Bihar", "Rajasthan"}


def test_c01_percentile_thresholds_match_reference(reference_rows):
    scores = [smi for _, smi, _, _ in reference_rows]
    t_high = percentile(scores, 75.0, PercentileMethod.EXCLUSIVE)
    t_low = percentile(scores, 25.0, PercentileMethod.EXCLUSIVE)
    assert t_high == pytest.approx(0.561, abs=1e-3)
    assert t_low == pytest.approx(0.260, abs=2e-3)


def test_c02_categories_match_reference_with_known_exceptions(reference_rows):
    scores = {state: smi for state, smi, _, _ in reference_rows}
    published = {state: category for state, _, category, _ in reference_rows}
    thresholds = thresholds_from_scores(scores)
    computed = {entry.state: entry.category for entry in state_scores(scores, thresholds)}
    mismatches = {s for s in scores if computed[s].value != published[s]}
    assert mismatches == KNOWN_CATEGORY_MISMATCHES
    assert len(scores) - len(mismatches) >= 19


def test_c03_ranks_match_reference_up_to_tie(reference_rows):
    scores = {state: smi for state, smi, _, _ in reference_rows}
    published = {state: rank for state, _, _, rank in reference_rows}
    computed = {entry.state: entry.rank
                for entry in state_scores(scores, thresholds_from_scores(scores))}
    for state, rank in computed.items():
        if state in TIE_PAIR:
            assert rank in {published[s] for s in TIE_PAIR}
        else:
            assert rank == published[state], state
    assert computed["Delhi"] == 1
    assert computed["Kerala"] == 2
    assert computed["Himachal Pradesh"] == 3
    assert computed["Uttarakhand"] == 4
    assert computed["Jammu and Kashmir"] == 5
    assert computed["Chhattisgarh"] == 22


def test_c04_scenario_grid_matches_reference(reference_rows, gini_path):
    categories = {state: Category(category) for state, _, category, _ in reference_rows}
    # Jharkhand's label in the reference table is Low, but its score is
    # above the low cutoff; the expected grid below follows the score, so
    # feed the monotone-rule placement for this one state
    categories["Jharkhand"] = Category.MEDIUM
    gini = load_gini(gini_path)
    inequality = inequality_classes(list(categories), gini)
    table = scenario_table(categories, inequality)

    def cell(category, inequality_class):
        return set(table["grid"][category][inequality_class])

    assert cell("High", "LowInequality") == {"Delhi", "Jammu and Kashmir"}
    assert cell("High", "HighInequality") == {
        "Himachal Pradesh", "Kerala", "Uttarakhand"}
    assert cell("Medium", "LowInequality") == {
        "Assam", "Gujarat", "Jharkhand", "Karnataka", "Tamil Nadu"}
    assert cell("Medium", "HighInequality") == {
        "Haryana", "Maharashtra", "Punjab", "Uttar Pradesh"}
    assert cell("Low", "LowInequality") == {"Bihar", "Chhattisgarh"}
    assert cell("Low", "HighInequality") == {
        "Madhya Pradesh", "Odisha", "Rajasthan", "West Bengal"}
    assert set(table["unclassified"]) == {"Andhra Pradesh", "Telangana"}


def _eig2_closed_form(a):
    half_trace = (a[0, 0] + a[1, 1]) / 2.0
    radius = math.sqrt(((a[0, 0] - a[1, 1]) / 2.0) ** 2 + a[0, 1] ** 2)
    return [half_trace + radius, half_trace - radius]


def _eig3_closed_form(a):
    # trigonometric solution of the characteristic cubic for symmetric 3x3
    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    q = float(np.trace(a)) / 3.0
    if p1 == 0.0:
        return sorted((a[0, 0], a[1, 1], a[2, 2]), reverse=True)
    p2 = (a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2 + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = float(np.linalg.det(b)) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0
    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return [lam1, 3.0 * q - lam1 - lam3, lam3]


def test_c05_eigensolver_property_suite():
    rng = np.random.default_rng(42)
    started = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 32))
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = (a + a.T) / 2.0
        spectrum = eigendecompose(a)
        v = spectrum.eigenvectors
        lam = spectrum.eigenvalues
        bound = 1e-8 * max(1.0, float(np.linalg.norm(a)))
        residuals = np.linalg.norm(a @ v - v * lam, axis=0)
        assert float(np.max(residuals)) < bound
        assert float(np.max(np.abs(v.T @ v - np.eye(n)))) < 1e-8
        assert abs(float(np.trace(a)) - float(np.sum(lam))) < 1e-8
    for _ in range(200):
        a = rng.uniform(-3.0, 3.0, (2, 2))
        a = (a + a.T) / 2.0
        assert eigendecompose(a).eigenvalues == pytest.approx(
            _eig2_closed_form(a), abs=1e-8)
    for _ in range(200):
        a = rng.uniform(-3.0, 3.0, (3, 3))
        a = (a + a.T) / 2.0
        assert eigendecompose(a).eigenvalues == pytest.approx(
            _eig3_closed_form(a), abs=1e-8)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"property suite took {elapsed:.1f}s"


def test_c06_weight_formula_matches_bruteforce():
    rng = np.random.default_rng(77)
    for _ in range(100):
        p = int(rng.integers(1, 32))
        k = int(rng.integers(1, 9))
        loadings = rng.normal(0.0, 1.0, (p, k))
        eigenvalues = [float(e) for e in rng.uniform(0.0, 4.0, k)]

        brute = np.empty(p)
        for i in range(p):
            total = 0.0
            for j in range(k):
                total += abs(loadings[i][j]) * eigenvalues[j]
            brute[i] = total
        weights = compute_weights(loadings, eigenvalues)
        assert np.array_equal(weights, brute)

        flipped = loadings.copy()
        for j in range(k):
            if rng.random() < 0.5:
                flipped[:, j] *= -1.0
        assert np.array_equal(compute_weights(flipped, eigenvalues), weights)


def test_c07_normalization_properties():
    rng = np.random.default_rng(1234)
    for _ in range(500):
        n = int(rng.integers(2, 40))
        x = rng.normal(0.0, 10.0, n)
        if float(np.max(x)) == float(np.min(x)):
            x[0] += 1.0
        pos = normalized_column(x, Direction.POSITIVE)
        neg = normalized_column(x, Direction.NEGATIVE)

        assert float(np.min(pos)) >= 0.0 and float(np.max(pos)) <= 1.0
        assert float(np.min(neg)) >= 0.0 and float(np.max(neg)) <= 1.0

        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-50.0, 50.0))
        shifted = normalized_column(a * x + b, Direction.POSITIVE)
        assert float(np.max(np.abs(shifted - pos))) < 1e-12

        assert float(np.max(np.abs(neg - (1.0 - pos)))) < 1e-15

        again = normalized_column(pos, Direction.POSITIVE)
        assert np.array_equal(again, pos)


def test_c08_index_properties():
    rng = np.random.default_rng(4321)
    for _ in range(300):
        n = int(rng.integers(1, 15))
        p = int(rng.integers(1, 12))
        norm = data_matrix(rng.random((n, p)), pillars=PILLARS)
        weights = rng.random(p) + 1e-6

        scores = composite_index(norm, weights)
        assert all(0.0 <= v <= 1.0 for v in scores.values())

        c = float(rng.uniform(0.01, 100.0))
        scaled = composite_index(norm, weights * c)
        assert all(abs(scaled[s] - scores[s]) < 1e-12 for s in scores)

        pillars = pillar_scores(norm, weights)
        totals = pillar_weight_totals(weights, norm.registry)
        total_weight = sum(totals.values())
        by_state: dict[str, float] = {s: 0.0 for s in norm.states}
        for pillar, (values, _) in pillars.items():
            for state, score in zip(norm.states, values):
                by_state[state] += score * totals[pillar] / total_weight
        for state in norm.states:
            assert abs(by_state[state] - scores[state]) < 1e-12


def test_c09_end_to_end_determinism(data_dir, tmp_path):
    data = str(data_dir / "observations_synthetic.csv")
    meta = str(data_dir / "indicators.csv")
    gini = str(data_dir / "gini.csv")
    out = tmp_path / "out"
    first = run_cli("run", "--data", data, "--meta", meta, "--gini", gini, "--out", str(out))
    assert first.returncode == 0, first.stderr
    report_1 = (out / "report.json").read_text(encoding="utf-8")
    saved = {name: (out / name).read_bytes() for name in STAGE_FILES}

    second = run_cli("run", "--data", data, "--meta", meta, "--gini", gini, "--out", str(out))
    assert second.returncode == 0, second.stderr
    report_2 = (out / "report.json").read_text(encoding="utf-8")

    # everything before the meta block must be byte-identical
    head_1, sep_1, _ = report_1.partition('"meta"')
    head_2, sep_2, _ = report_2.partition('"meta"')
    assert sep_1 == sep_2 == '"meta"'
    assert head_1 == head_2
    parsed_1, parsed_2 = json.loads(report_1), json.loads(report_2)
    parsed_1.pop("meta"), parsed_2.pop("meta")
    assert json.dumps(parsed_1, indent=2) == json.dumps(parsed_2, indent=2)
    for name in STAGE_FILES:
        assert (out / name).read_bytes() == saved[name], name

    chained = tmp_path / "chained"
    steps = [
        run_cli("normalize", "--data", data, "--meta", meta, "--out", str(chained)),
        run_cli("pca", "--normalized", str(chained / "normalized.csv"),
                "--meta", meta, "--out", str(chained)),
        run_cli("score", "--normalized", str(chained / "normalized.csv"), "--meta", meta,
                "--loadings", str(chained / "loadings.csv"),
                "--spectrum", str(chained / "spectrum.csv"), "--out", str(chained)),
    ]
    for step in steps:
        assert step.returncode == 0, step.stderr
    for name in STAGE_FILES:
        assert (chained / name).read_bytes() == saved[name], name


def test_c10_latent_factor_dominates_weights():
    rng = np.random.default_rng(2025)
    n, p = 22, 8
    latent = rng.normal(0.0, 1.0, n)
    columns = [latent + 0.05 * rng.normal(0.0, 1.0, n) for _ in range(5)]
    columns += [rng.normal(0.0, 1.0, n) for _ in range(3)]
    norm = normalize_matrix(data_matrix(np.column_stack(columns), pillars=PILLARS))
    spectrum = eigendecompose(correlation_matrix(norm))
    assert float(spectrum.eigenvalues[0]) > 4.0

    selection = select_components(spectrum)
    assert selection.count >= 1

    loadings = loading_matrix(spectrum, selection)
    eigenvalues = spectrum.eigenvalues[:selection.count]
    weights = compute_weights(loadings, eigenvalues)
    top_five = set(np.argsort(-weights, kind="stable")[:5].tolist())
    assert top_five == {0, 1, 2, 3, 4}
