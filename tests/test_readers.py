"""Every CSV reader under the one header, row and cell rules: blank rows and fuzzed text."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
