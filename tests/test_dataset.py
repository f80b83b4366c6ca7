import tracemalloc

import numpy as np
import pytest

from smi.cli import read_loadings, read_spectrum
from smi.dataset import (
    DataMatrix,
    Direction,
    IndicatorRegistry,
    IndicatorSpec,
    load_gini,
    load_indicator_metadata,
    load_observations,
    validate_matrix,
    write_observations,
)
from smi.errors import InputError
from smi.normalize import load_normalized

META = """\
indicator_id,name,pillar,direction
le,Life expectancy,Health,positive
abr,Adolescent birth rate,Health,negative
mys,Mean schooling years,Education Access,positive
"""

OBS = """\
state,le,abr,mys
Alpha,70.1,30.0,6.2
Beta,65.4,45.5,4.8
Gamma,72.9,22.1,7.5
Delta,68.0,38.2,5.1
"""


_REGISTRY3 = IndicatorRegistry(specs=tuple(
    IndicatorSpec(id=i, name=i, pillar="Health", direction=Direction.POSITIVE)
    for i in ("le", "abr", "mys")))


@pytest.fixture
def meta_file(tmp_path):
    path = tmp_path / "indicators.csv"
    path.write_text(META, encoding="utf-8")
    return path


@pytest.fixture
def small_registry(meta_file):
    return load_indicator_metadata(meta_file)


@pytest.fixture
def obs_file(tmp_path):
    path = tmp_path / "observations.csv"
    path.write_text(OBS, encoding="utf-8")
    return path


def test_metadata_happy_path(small_registry):
    assert len(small_registry) == 3
    assert small_registry.ids == ("le", "abr", "mys")
    assert small_registry.directions == (
        Direction.POSITIVE, Direction.NEGATIVE, Direction.POSITIVE)
    assert small_registry[1].pillar == "Health"
    assert small_registry[2].name == "Mean schooling years"


def test_metadata_direction_parse_is_case_insensitive(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("indicator_id,name,pillar,direction\nx,X,Health,Positive\ny,Y,Health,NEGATIVE\n",
                    encoding="utf-8")
    registry = load_indicator_metadata(path)
    assert registry.directions == (Direction.POSITIVE, Direction.NEGATIVE)


def test_metadata_collects_every_problem(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "indicator_id,name,pillar,direction\n"
        "a,A,Health,positive\n"
        "a,A again,Health,positive\n"
        ",No id,Health,positive\n"
        "b,B,Nonsense Pillar,positive\n"
        "c,C,Health,sideways\n"
        "d,D,Health\n",
        encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_indicator_metadata(path)
    messages = exc.value.errors
    assert len(messages) == 5
    assert f"{path}: row 3: duplicate indicator id 'a' (first seen at row 2)" in messages
    assert f"{path}: row 4: empty indicator id" in messages
    assert any(m.startswith(f"{path}: row 5: unknown pillar") for m in messages)
    assert any(m.startswith(f"{path}: row 6: ") and "sideways" in m for m in messages)
    assert f"{path}: row 7: expected 4 fields, got 3" in messages


def test_metadata_rejects_bad_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("id,name,pillar,direction\nx,X,Health,positive\n", encoding="utf-8")
    with pytest.raises(InputError, match="header"):
        load_indicator_metadata(path)


def test_metadata_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("\ufeff" + META, encoding="utf-8")
    assert load_indicator_metadata(path).ids == ("le", "abr", "mys")


def test_metadata_missing_file():
    with pytest.raises(InputError, match="file not found"):
        load_indicator_metadata("/nonexistent/indicators.csv")


# 4,000 distinct gini rows, 38,890 bytes: past the text decoder's first 8 KiB read
_LONG_GINI_BODY = b"".join(b"s%d,0.3\n" % i for i in range(4000))
_BOM = b"\xef\xbb\xbf"


@pytest.mark.parametrize("content, message", [
    (None, "cannot read file"),
    (b"state,gini\nB\xe9ziers,0.3\n", "not UTF-8 text"),
    (b"", "file is empty"),
    (b"state,gini\n" + b"x" * 200_000 + b",0.3\n", "not a CSV file"),
    # the offset counts from the start of the file, byte-order mark included
    (_BOM + b"state,gini\n" + _LONG_GINI_BODY + b"B\xe9ziers,0.3\n",
     "not UTF-8 text (byte 38905)"),
    # a header no reader expects, then a fault the reader reaches only past it
    (b"wrong,header\n" + _LONG_GINI_BODY + b"\xff,0.3\n", "not UTF-8 text (byte 38903)"),
    (b"wrong,header\n" + b"x" * 200_000 + b",0.3\n", "not a CSV file"),
], ids=["directory", "latin1", "empty", "oversized_field", "latin1_past_8k",
        "wrong_header_latin1_past_8k", "wrong_header_oversized_field"])
@pytest.mark.parametrize("load", [
    load_indicator_metadata, load_gini, lambda path: load_observations(path, _REGISTRY3),
    lambda path: load_normalized(path, _REGISTRY3), lambda path: read_spectrum(path, _REGISTRY3),
    lambda path: read_loadings(path, _REGISTRY3, 2),
], ids=["metadata", "gini", "observations", "normalized", "spectrum", "loadings"])
def test_loaders_reject_unreadable_files_naming_them(tmp_path, content, message, load):
    """A read error is reported, naming the file, even where the header is wrong too."""
    path = tmp_path / "input.csv"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(InputError) as exc:
        load(path)
    assert exc.value.errors[0].startswith(f"{path}: {message}")


def test_loaders_stream_a_large_table_in_little_memory(tmp_path, indicators_path):
    """A seeded 3,100 x 31 table, raw and normalized, loads with a traced peak under 3 MiB.

    Rows stream from the file and cells go into one float buffer, so the
    peak is about that 0.75 MiB buffer; a reader that holds the whole file
    as lists of strings and of floats peaks near 10 MiB on this table.
    """
    registry = load_indicator_metadata(indicators_path)
    rng = np.random.default_rng(1)
    shape = (3100, len(registry))
    header = ",".join(["state", *registry.ids]) + "\n"
    # raw cells as the counties benchmark input writes them, normalized ones at full precision
    for name, values, cell in (("observations.csv", rng.uniform(20.0, 80.0, shape), "%.3f"),
                               ("normalized.csv", rng.random(shape), "%.17g")):
        line = "County %04d," + ",".join([cell] * shape[1]) + "\n"
        (tmp_path / name).write_text(
            header + "".join(line % (i, *row) for i, row in enumerate(values.tolist(), 1)),
            encoding="utf-8")
    for load, name in ((load_observations, "observations.csv"),
                       (load_normalized, "normalized.csv")):
        tracemalloc.start()
        try:
            matrix = load(tmp_path / name, registry)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert matrix.values.shape == shape
        assert peak < 3 * 2**20, f"{name}: traced peak {peak / 2**20:.2f} MiB"


def test_registry_rejects_duplicate_ids():
    spec = IndicatorSpec(id="x", name="X", pillar="Health", direction=Direction.POSITIVE)
    with pytest.raises(ValueError, match="duplicate"):
        IndicatorRegistry(specs=(spec, spec))


def test_observations_happy_path(obs_file, small_registry):
    matrix = load_observations(obs_file, small_registry)
    assert matrix.states == ("Alpha", "Beta", "Gamma", "Delta")
    assert matrix.n_states == 4 and matrix.n_indicators == 3
    assert matrix.values[2, 0] == pytest.approx(72.9)
    assert matrix.values.dtype == np.float64


def test_observations_accept_byte_order_mark(tmp_path, small_registry):
    path = tmp_path / "obs.csv"
    path.write_text("\ufeff" + OBS, encoding="utf-8")
    matrix = load_observations(path, small_registry)
    assert matrix.states == ("Alpha", "Beta", "Gamma", "Delta")


def test_observations_header_must_match_registry_order(tmp_path, small_registry):
    path = tmp_path / "obs.csv"
    path.write_text("state,abr,le,mys\nA,1,2,3\nB,4,5,6\nC,7,8,9\n", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_observations(path, small_registry)
    assert exc.value.errors == [f"{path}: columns are not in the order 'state,le,abr,mys'"]


def test_observations_reports_missing_and_extra_columns(tmp_path, small_registry):
    path = tmp_path / "obs.csv"
    path.write_text("state,le,mys,bogus\nA,1,2,3\n", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_observations(path, small_registry)
    joined = "; ".join(exc.value.errors)
    assert "missing columns: abr" in joined
    assert "unexpected columns: bogus" in joined


def test_observations_reports_repeated_columns(tmp_path, small_registry):
    path = tmp_path / "obs.csv"
    path.write_text("state,le,abr,abr\nA,1,2,3\n", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_observations(path, small_registry)
    assert exc.value.errors == [f"{path}: missing columns: mys",
                                f"{path}: duplicate columns: abr"]
    path.write_text("state,le,abr,mys,mys\nA,1,2,3,3\n", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_observations(path, small_registry)
    assert exc.value.errors == [f"{path}: duplicate columns: mys"]


def test_observations_misnamed_state_column_is_the_only_problem(tmp_path, small_registry):
    # the indicator columns are right, so only the first column is reported
    path = tmp_path / "obs.csv"
    path.write_text("region,le,abr,mys\nA,1,2,3\nB,4,5,6\nC,7,8,9\n", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_observations(path, small_registry)
    assert exc.value.errors == [f"{path}: first header column must be 'state', got 'region'"]


def test_observations_blank_first_line_names_the_first_column(tmp_path, small_registry):
    # the blank line is the header row, so the header one line down is not seen as one
    path = tmp_path / "obs.csv"
    path.write_text("\n" + OBS, encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_observations(path, small_registry)
    assert exc.value.errors == [f"{path}: first header column must be 'state', got ''",
                                f"{path}: missing columns: le, abr, mys"]


def test_observations_cell_problems_name_state_and_indicator(tmp_path, small_registry):
    path = tmp_path / "obs.csv"
    path.write_text(
        "state,le,abr,mys\n"
        "Alpha,70,30,6\n"
        "Beta,oops,45,inf\n"
        "Alpha,70,30,6\n"
        ",1,2,3\n",
        encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_observations(path, small_registry)
    messages = exc.value.errors
    assert f"{path}: row 3: non-numeric value 'oops' for (Beta, le)" in messages
    assert f"{path}: row 3: non-finite value 'inf' for (Beta, mys)" in messages
    assert f"{path}: row 4: duplicate state 'Alpha' (first seen at row 2)" in messages
    assert f"{path}: row 5: empty state name" in messages


def test_observations_need_three_states(tmp_path, small_registry):
    path = tmp_path / "obs.csv"
    path.write_text("state,le,abr,mys\nA,1,2,3\nB,4,5,6\n", encoding="utf-8")
    with pytest.raises(InputError, match="need at least 3"):
        load_observations(path, small_registry)


def test_data_matrix_invariants(small_registry):
    with pytest.raises(ValueError, match="finite"):
        DataMatrix(states=("A", "B"), values=np.array([[1.0, 2.0, np.nan]] * 2),
                   registry=small_registry)
    with pytest.raises(ValueError, match="state labels"):
        DataMatrix(states=("A", "B"), values=np.ones((3, 3)), registry=small_registry)


def test_gini_happy_and_empty(tmp_path):
    path = tmp_path / "gini.csv"
    path.write_text("state,gini\nAlpha,0.25\nBeta,0.31\n", encoding="utf-8")
    assert load_gini(path) == {"Alpha": 0.25, "Beta": 0.31}
    header_only = tmp_path / "empty.csv"
    header_only.write_text("state,gini\n", encoding="utf-8")
    assert load_gini(header_only) == {}


def test_gini_header_reports_how_it_differs(tmp_path):
    path = tmp_path / "gini.csv"
    path.write_text("State,Gini\nAlpha,0.25\n", encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_gini(path)
    assert exc.value.errors == [f"{path}: first header column must be 'state', got 'State'",
                                f"{path}: missing columns: gini",
                                f"{path}: unexpected columns: Gini"]


def test_gini_accepts_byte_order_mark(tmp_path):
    path = tmp_path / "gini.csv"
    path.write_text("\ufeffstate,gini\nAlpha,0.25\n", encoding="utf-8")
    assert load_gini(path) == {"Alpha": 0.25}


def test_gini_problems_collected(tmp_path):
    path = tmp_path / "gini.csv"
    path.write_text("state,gini\nAlpha,0.25\nAlpha,0.30\nBeta,1.5\nGamma,abc\n",
                    encoding="utf-8")
    with pytest.raises(InputError) as exc:
        load_gini(path)
    messages = exc.value.errors
    assert len(messages) == 3
    assert f"{path}: row 3: duplicate state 'Alpha' (first seen at row 2)" in messages
    assert f"{path}: row 4: value '1.5' for (Beta, gini) outside [0, 1]" in messages
    assert f"{path}: row 5: non-numeric value 'abc' for (Gamma, gini)" in messages


def test_validate_matrix_returns_column_ranges(small_registry):
    values = np.array([
        [1.0, 5.0, 2.0],
        [2.0, 4.0, 3.0],
        [3.0, 6.0, 4.0],
    ])
    matrix = DataMatrix(states=("A", "B", "C"), values=values, registry=small_registry)
    ranges = validate_matrix(matrix)
    assert ranges == {"le": (1.0, 3.0), "abr": (4.0, 6.0), "mys": (2.0, 4.0)}
    assert list(ranges) == ["le", "abr", "mys"]


def test_validate_matrix_flags_constant_columns(small_registry):
    values = np.array([
        [1.0, 5.0, 2.0],
        [2.0, 5.0, 2.0],
        [3.0, 5.0, 2.0],
    ])
    matrix = DataMatrix(states=("A", "B", "C"), values=values, registry=small_registry)
    with pytest.raises(InputError) as exc:
        validate_matrix(matrix)
    assert exc.value.errors == [
        "indicator 'abr' is constant, min-max rescaling is undefined",
        "indicator 'mys' is constant, min-max rescaling is undefined",
    ]


def test_write_observations_full_precision_round_trips(tmp_path, obs_file, small_registry):
    matrix = load_observations(obs_file, small_registry)
    out = tmp_path / "copy.csv"
    write_observations(matrix, out)
    again = load_observations(out, small_registry)
    assert again.states == matrix.states
    assert np.array_equal(again.values, matrix.values)


def test_loaded_fixture_shapes(registry, observations_path, gini_path):
    assert len(registry) == 31
    matrix = load_observations(observations_path, registry)
    assert matrix.n_states == 22
    gini = load_gini(gini_path)
    assert len(gini) == 20
    assert set(gini) <= set(matrix.states)
