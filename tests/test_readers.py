"""Every CSV reader under the one header, row and cell rules: blank rows, fuzzed text, and
the bulk read of a numeric body, which must read what the rules read or leave it to them."""

import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smi import dataset
from smi.cli import read_loadings, read_spectrum
from smi.dataset import (
    DataMatrix, Direction, IndicatorRegistry, IndicatorSpec, load_gini, load_indicator_metadata,
    load_observations)
from smi.errors import InputError
from smi.normalize import load_normalized

REGISTRY = IndicatorRegistry(specs=(
    IndicatorSpec("a", "A", "Health", Direction.POSITIVE),
    IndicatorSpec("b", "B", "Health", Direction.NEGATIVE),
))

# each reader with a file it reads cleanly
READERS = {
    "indicators": (load_indicator_metadata, "indicator_id,name,pillar,direction\n"
                   "a,A,Health,positive\nb,B,Health,negative\n"),
    "observations": (lambda path: load_observations(path, REGISTRY),
                     "state,a,b\nX,1,2\nY,3,5\nZ,4,4\n"),
    "gini": (load_gini, "state,gini\nX,0.3\nY,0.45\n"),
    "normalized": (lambda path: load_normalized(path, REGISTRY),
                   "state,a,b\nX,0,1\nY,0.5,0\nZ,1,0.25\n"),
    "spectrum": (lambda path: read_spectrum(path, REGISTRY),
                 "component,eigenvalue,explained_variance_ratio,selected\n"
                 "1,1.5,0.75,1\n2,0.5,0.25,0\n"),
    **{f"loadings_k{k}": (lambda path, k=k: read_loadings(path, REGISTRY, k),
                          "indicator_id," + ",".join(f"PC{j + 1}" for j in range(k)) + "\n"
                          + "".join(f"{i}," + ",".join(["0.5"] * k) + "\n" for i in "ab"))
       for k in (1, 2, 3)},
}


def _plain(result):
    """A reader's result in a form == compares: a DataMatrix or an array as lists."""
    if isinstance(result, DataMatrix):
        return result.states, result.values.tolist(), result.registry
    if isinstance(result, np.ndarray):
        return result.tolist()
    return result


@pytest.mark.parametrize("reader", READERS)
def test_blank_rows_are_skipped_by_every_reader(tmp_path, reader):
    read, clean = READERS[reader]
    header, *body = clean.splitlines()
    # an empty line, a whitespace-only line and a row of empty cells after each body row
    padded = "\n".join([header, "", *(line for row in body for line in (row, "", " \t", ",,,"))])
    clean_path, padded_path = tmp_path / "clean.csv", tmp_path / "padded.csv"
    clean_path.write_text(clean, encoding="utf-8")
    padded_path.write_text(padded + "\n\n", encoding="utf-8")
    assert _plain(read(padded_path)) == _plain(read(clean_path))


# the header lines the readers expect, and the words and cells the fuzzed lines are built from
HEADERS = sorted({clean.split("\n", 1)[0] for _, clean in READERS.values()})
CELLS = st.one_of(
    st.sampled_from(["", " ", "a", "b", "X", "Y", "Z", "1", "2", "Health", "positive", "negative",
                     "nan", "-inf", "inf", "1e308", "-1e308", '"', '"a,b"', "\ufeff", "\t"]),
    st.sampled_from(sorted({word for line in HEADERS for word in line.split(",")})),
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
)
LINES = st.lists(CELLS, max_size=5).map(",".join)
TEXT = st.builds(
    lambda bom, first, rest, end: (bom + end.join([first, *rest])).encode("utf-8"),
    st.sampled_from(["", "\ufeff"]),
    # a real header half the time, so the row and cell rules get fuzzed too
    st.one_of(st.sampled_from(HEADERS), LINES),
    st.lists(LINES, max_size=6),
    st.sampled_from(["\n", "\r\n"]),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.csv"


@settings(max_examples=150)
@given(content=st.one_of(st.binary(max_size=64), TEXT))
def test_readers_raise_only_input_error_on_fuzzed_files(fuzz_path, content):
    fuzz_path.write_bytes(content)
    for read, _ in READERS.values():
        try:
            read(fuzz_path)
        except InputError:
            pass


# the readers whose files go through dataset._read_table, and so may take the bulk read
NUMERIC = sorted(set(READERS) - {"indicators"})


@pytest.mark.parametrize("end", ["\n", "\r\n"])
@pytest.mark.parametrize("reader", NUMERIC)
def test_clean_files_take_the_bulk_read(tmp_path, monkeypatch, reader, end):
    """A regression that always falls back to the rules would pass every other test."""
    read, clean = READERS[reader]
    path = tmp_path / "clean.csv"
    path.write_text(clean.replace("\n", end), encoding="utf-8", newline="")
    expected = _plain(read(path))

    def refuse(*args, **kwargs):
        raise AssertionError("a clean file went to the row and cell rules")

    monkeypatch.setattr(dataset, "_numeric_rows", refuse)
    assert _plain(read(path)) == expected


def _outcome(read, path):
    """A reader's result with its floats as bytes, or the errors of the InputError it raised."""
    try:
        result = read(path)
    except InputError as exc:
        return exc.errors
    if isinstance(result, DataMatrix):
        return result.states, result.values.shape, result.values.tobytes()
    if isinstance(result, dict):
        return list(result), np.array(list(result.values())).tobytes()
    if isinstance(result, (list, np.ndarray)):
        values = np.asarray(result, dtype=np.float64)
        return values.shape, values.tobytes()
    return result


LIMIT = csv.field_size_limit()
# value cells: ones the cell rule takes, ones it refuses, ones only the C parse or only
# float() refuses, and fields at and one past csv's size limit
ODD_CELLS = ["0", "1", "0.5", "-0.0", "2", "-1", "-1e-300", "1e-300", ".5", "5.", "+.5e-1",
             " 0.25", "0.75 ", "\t1", "1\x0c", "1\x85", "\u20281", "1_0", "\uff11", "\xa01",
             "1\xa0", "1\x1c", "\x1d1", "1\x1e", "\x1f0", "nan", "-nan", "inf", "-inf",
             "1e309", "-1e309", "", " ", '"0.5"', '"1\n"', "0\x000", "1\x00", "#1", "1#", "0x1",
             "1e", "\ufeff1", "0." + "0" * (LIMIT - 2), "0." + "0" * (LIMIT - 1)]
# first fields: names the row rule takes as they are or stripped, and ones it refuses
ODD_NAMES = ["X", "Y", "a", "b", "1", "2", " X", "Y ", "\tZ", "", " ", '"Z"', '"Y"', '""',
             "#a", "\xa0b", "X\x00", "\x1cY", "\ufeffX"]
VALUES = st.one_of(st.sampled_from(ODD_CELLS), st.floats(0, 1).map(repr), st.floats().map(repr))
NAMES = st.sampled_from(ODD_NAMES)
# rows put between the body rows: blank, whitespace-only, of empty cells, or fuzzed
EXTRA_ROWS = st.one_of(st.sampled_from(["", " \t", ",", ",,", ",,,", "\x00"]), LINES)
ENDS = st.sampled_from(["\n", "\r\n", "\r"])
# the edits near_clean_files makes, in the order it makes them
EDITS = ("cell", "name", "width", "row", "header", "byte")


@st.composite
def near_clean_files(draw):
    """The clean file of a reader after up to three edits, each to one cell, name, row width,
    blank or fuzzed row, the header or one byte, with drawn line ends and byte-order mark."""
    _, clean = READERS[draw(st.sampled_from(sorted(READERS)))]
    header, *body = clean.splitlines()
    rows = [line.split(",") for line in body]
    edits = sorted(draw(st.lists(st.sampled_from(EDITS), max_size=3)), key=EDITS.index)
    for edit in edits:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if edit == "cell":
            row[draw(st.integers(1, len(row) - 1))] = draw(VALUES)
        elif edit == "name":
            row[0] = draw(NAMES)
        elif edit == "width":  # an extra cell, a trailing comma or a missing cell
            row[:] = draw(st.sampled_from([[*row, "9"], [*row, ""], row[:-1]]))
    lines = [",".join(row) for row in rows]
    for _ in range(edits.count("row")):
        lines.insert(draw(st.integers(0, len(lines))), draw(EXTRA_ROWS))
    if "header" in edits:  # headers that pass the header rule with a ", one spanning two lines
        header = draw(st.sampled_from(['"' + header.replace(",", '","') + '"',
                                       '"' + header.replace(",", '\n",', 1)]))
    # one line end for the whole file, or one drawn per line
    ends = draw(st.sampled_from([st.just("\n"), st.just("\r\n"), st.just("\r"), ENDS]))
    text = "".join(line + draw(ends) for line in [header, *lines])
    if draw(st.booleans()):  # no final line end
        text = text.rstrip("\r\n")
    content = (draw(st.sampled_from(["", "\ufeff"])) + text).encode("utf-8")
    for _ in range(edits.count("byte")):  # a byte that is not UTF-8
        at = draw(st.integers(0, len(content)))
        content = content[:at] + b"\xff" + content[at:]
    return content


def _assert_bulk_read_agrees(path, readers=READERS):
    """Each reader gives the same names and float bytes, or the same errors, with or without it."""
    for reader in readers:
        read, _ = READERS[reader]
        bulk = _outcome(read, path)
        with mock.patch.object(dataset, "_bulk_table", return_value=None):
            assert _outcome(read, path) == bulk


@pytest.mark.parametrize("reader", NUMERIC)
def test_bulk_read_agrees_with_the_rules_on_each_odd_cell_and_name(tmp_path, reader):
    header, *body = READERS[reader][1].splitlines()
    # the other readers stop at the header rule on both paths
    readers = [r for r in READERS if READERS[r][1].startswith(header + "\n")]
    rows = [line.split(",") for line in body]

    def edit(i, j, text):
        """The clean file with the cell at row i, column j of its body replaced by text."""
        cells = [list(row) for row in rows]
        cells[i][j] = text
        return "\n".join([header, *map(",".join, cells)]) + "\n"

    path = tmp_path / "input.csv"
    # each odd cell as the first and as the last value of the body, each odd name first
    for text in (*(edit(0, 1, cell) for cell in ODD_CELLS),
                 *(edit(-1, -1, cell) for cell in ODD_CELLS),
                 *(edit(0, 0, name) for name in ODD_NAMES)):
        path.write_text(text, encoding="utf-8")
        _assert_bulk_read_agrees(path, readers)


@settings(max_examples=300)
@given(content=near_clean_files())
def test_bulk_read_agrees_with_the_rules(fuzz_path, content):
    """Edits in combination, under every line end, byte-order mark and final line end."""
    fuzz_path.write_bytes(content)
    _assert_bulk_read_agrees(fuzz_path)
