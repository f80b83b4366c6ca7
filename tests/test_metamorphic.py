"""The method's metamorphic relations, end to end through run() on the fixture.

Negating a raw column and flipping its declared direction changes no
output byte. Reordering the rows, or mapping a raw column through a
positive affine map, moves no score by more than rounding, and no rank
of a state that no other state comes within 1e-9 of. The chained
normalize, pca and score stages write the bytes a single run writes, for
any valid config. For drawn registries and weights, the pillar sub-scores
recompose the composite index, and exactly the pillars of zero weight
are left out. Reference: Chen et al., "Metamorphic Testing: A Review
of Challenges and Opportunities", ACM Comput. Surv. 51(1), 2018.
"""

import csv
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smi.analysis import pillar_scores, pillar_weight_totals
from smi.cli import RunConfig, run
from smi.dataset import PILLARS
from smi.pca import Basis, LoadingConvention
from smi.scoring import PercentileMethod, composite_index

from helpers import STAGE_FILES, chain, console, data_matrix, fixture_args

# every artifact but report.json, which echoes the input paths and raw ranges
ARTIFACTS = (*STAGE_FILES, "scenarios.json", "scatter.csv", "pillars.csv")
NEAR_TIE = 1e-9
DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def _read(name: str) -> tuple[list[str], list[list[str]]]:
    with open(DATA_DIR / name, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


OBS_HEADER, OBS_ROWS = _read("observations_synthetic.csv")
META_HEADER, META_ROWS = _read("indicators.csv")
COLUMNS = st.integers(1, len(OBS_HEADER) - 1)


def _write(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("metamorphic")


def _run(work, name: str, obs_rows=OBS_ROWS, meta_rows=META_ROWS) -> dict:
    """run() on the given table and registry rows, the shipped gini.csv, out to work/name."""
    _write(work / "observations.csv", OBS_HEADER, obs_rows)
    _write(work / "indicators.csv", META_HEADER, meta_rows)
    return run(RunConfig(data=str(work / "observations.csv"), meta=str(work / "indicators.csv"),
                         gini=str(DATA_DIR / "gini.csv"), out_dir=str(work / name)))


@pytest.fixture(scope="module")
def shipped(work) -> dict:
    return _run(work, "shipped")


def _with_column(column: int, change) -> list[list[str]]:
    """The fixture's rows with change applied to the text of each cell in one column."""
    return [[*row[:column], change(row[column]), *row[column + 1:]] for row in OBS_ROWS]


def _assert_scores_kept(report: dict, shipped: dict, tol: float) -> None:
    got = {entry["state"]: entry for entry in report["scores"]}
    assert got.keys() == {entry["state"] for entry in shipped["scores"]}
    for entry in shipped["scores"]:
        assert abs(got[entry["state"]]["smi"] - entry["smi"]) <= tol, entry["state"]
        if all(abs(other["smi"] - entry["smi"]) >= NEAR_TIE
               for other in shipped["scores"] if other is not entry):
            assert got[entry["state"]]["rank"] == entry["rank"], entry["state"]


@settings(max_examples=31)
@given(column=COLUMNS)
def test_negating_a_column_and_flipping_its_direction_keeps_every_byte(work, shipped, column):
    # negating the text is exact, so max' - x' is x - min in every bit
    obs = _with_column(column, lambda cell: cell[1:] if cell.startswith("-") else "-" + cell)
    meta = [row[:3] + [{"positive": "negative", "negative": "positive"}[row[3]]]
            if k == column - 1 else row for k, row in enumerate(META_ROWS)]
    _run(work, "negated", obs, meta)
    for name in ARTIFACTS:
        assert (work / "negated" / name).read_bytes() == (work / "shipped" / name).read_bytes(), name


@settings(max_examples=20)
@given(order=st.permutations(range(len(OBS_ROWS))))
def test_reordering_the_rows_keeps_every_score(work, shipped, order):
    _assert_scores_kept(_run(work, "reordered", [OBS_ROWS[i] for i in order]), shipped, 1e-12)


@settings(max_examples=30)
@given(column=COLUMNS, log_a=st.floats(-5.0, 5.0), b=st.floats(-1e3, 1e3))
def test_a_positive_affine_map_of_a_column_keeps_every_score(work, shipped, column, log_a, b):
    a = math.exp(log_a)
    obs = _with_column(column, lambda cell: repr(a * float(cell) + b))
    _assert_scores_kept(_run(work, "mapped", obs), shipped, 1e-12)


def _choice(enum) -> st.SearchStrategy[str]:
    return st.sampled_from([member.value for member in enum])


@settings(max_examples=25)
@given(basis=_choice(Basis), convention=_choice(LoadingConvention),
       method=_choice(PercentileMethod), threshold=st.floats(0.0, 3.0),
       target=st.floats(0.05, 1.0), low=st.floats(1.0, 99.0), high=st.floats(1.0, 99.0))
def test_chained_stages_write_what_a_single_run_writes(work, basis, convention, method,
                                                       threshold, target, low, high):
    assume(low < high)
    pca_flags = ["--pca-basis", basis, "--loading-convention", convention,
                 "--eigen-threshold", repr(threshold), "--variance-target", repr(target)]
    score_flags = ["--percentile-method", method,
                   "--low-percentile", repr(low), "--high-percentile", repr(high)]
    single, chained = work / "single", work / "chained"
    for out in (single, chained):
        shutil.rmtree(out, ignore_errors=True)
    assert console("run", *fixture_args(DATA_DIR, single), *pca_flags, *score_flags)[0] == 0
    assert chain(DATA_DIR, chained, pca_flags, score_flags) == [0, 0, 0]
    for name in STAGE_FILES:
        assert (chained / name).read_bytes() == (single / name).read_bytes(), name


@st.composite
def _weighted_registries(draw):
    """A matrix of rescaled values, each column's pillar drawn, and weights
    that are positive except on the columns of some whole pillars."""
    pillars = draw(st.lists(st.sampled_from(PILLARS), min_size=1, max_size=12))
    n, p = draw(st.integers(1, 12)), len(pillars)
    values = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=p, max_size=p),
                           min_size=n, max_size=n))
    present = list(dict.fromkeys(pillars))
    zeroed = draw(st.sets(st.sampled_from(present), max_size=len(present) - 1))
    weights = [0.0 if pillar in zeroed else draw(st.floats(1e-3, 10.0)) for pillar in pillars]
    return data_matrix(values, pillars=tuple(pillars)), np.array(weights), zeroed


@settings(max_examples=100)
@given(drawn=_weighted_registries())
def test_pillar_sub_scores_recompose_the_composite(drawn):
    norm, weights, zeroed = drawn
    scores = composite_index(norm, weights)
    pillars = pillar_scores(norm, weights)
    totals = pillar_weight_totals(weights, norm.registry)
    present = dict.fromkeys(spec.pillar for spec in norm.registry)
    assert list(pillars) == [pillar for pillar in present if pillar not in zeroed]
    total_weight = sum(totals.values())
    for i, state in enumerate(norm.states):
        recomposed = sum(values[i] * totals[pillar] / total_weight
                         for pillar, (values, _) in pillars.items())
        assert abs(recomposed - scores[state]) <= 1e-12, state
