"""Every `raise` in src/smi runs.

A raise is kept only if a bad-input command, the console script, or a
bad-argument call to a library function README's "Library use" documents
reaches it; one that nothing reaches is a second body of a rule that
fires earlier, and goes. The test collects each raise with ast, runs the
tables below under sys.settrace, and asserts that every raise line ran.
"""

import ast
import contextlib
import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import smi
import smi.cli
from smi import (
    InputError,
    NumericalError,
    composite_index,
    compute_weights,
    correlation_matrix,
    eigendecompose,
    loading_matrix,
    select_components,
    state_scores,
    thresholds_from_scores,
)
from smi.pca import ComponentSelection, Spectrum

from helpers import console, data_matrix, emulate_another_build

# as imported, so that its paths are the co_filename of the code the tracer sees
SRC = Path(smi.__file__).parent

META = "indicator_id,name,pillar,direction\na,A,Health,positive\nb,B,Health,positive\n"
SPECTRUM_HEADER = "component,eigenvalue,explained_variance_ratio,selected\n"

# the input files of the command table, by the stem its argv names them with
FILES = {
    "indicators": META,
    "unknown_pillar": META.replace("b,B,Health", "b,B,Wealth"),
    "one_indicator": META.rsplit("b,", 1)[0],
    "two_states": "state,a,b\nA,0,1\nB,1,0\n",
    "constant": "state,a,b\nA,0,1\nB,0,0\nC,0,2\n",
    "normalized": "state,a,b\nA,0.0,1.0\nB,0.5,0.5\nC,1.0,0.0\n",
    # b's sample variance squared underflows to 0
    "tiny_variance": "state,a,b\nA,0,0\nB,0.5,5e-324\nC,1,0\nD,0.25,1e-323\n",
    "spectrum": SPECTRUM_HEADER + "1,1.5,0.75,1\n2,0.5,0.25,0\n",
    "one_component": SPECTRUM_HEADER + "1,1.5,0.75,1\n",
    "components_reordered": SPECTRUM_HEADER + "2,1.5,0.75,1\n1,0.5,0.25,0\n",
    "selection_not_a_prefix": SPECTRUM_HEADER + "1,1.5,0.75,0\n2,0.5,0.25,1\n",
    "negative_eigenvalue": SPECTRUM_HEADER + "1,-1.0,0.75,1\n2,0.5,0.25,0\n",
    "loadings": "indicator_id,PC1\na,0.7\nb,0.7\n",
    "loadings_reordered": "indicator_id,PC1\nb,0.7\na,0.7\n",
    "zero_loadings": "indicator_id,PC1\na,0.0\nb,0.0\n",
    "empty": b"",
    "latin1": b"state,gini\nB\xe9ziers,0.31\n",
    "oversized_field": b"state,gini\n" + b"x" * 200_000 + b",0.3\n",
    "gini_header": "state,coefficient\nA,0.3\n",
    "gini_above_one": "state,gini\nA,1.5\n",
}

# each command's file flags, by stem; {obs} and {meta} are the shipped fixture's
STAGE_FLAGS = {
    "run": {"data": "obs", "meta": "meta"},
    "normalize": {"data": "obs", "meta": "meta"},
    "pca": {"normalized": "normalized", "meta": "indicators"},
    "score": {"normalized": "normalized", "meta": "indicators", "loadings": "loadings",
              "spectrum": "spectrum"},
}


def _argv(command: str, **flags: str) -> list[str]:
    """command's argv: its file flags, those in flags replaced, then the rest of flags.

    A value in braces is the stem of a path; --out is always {out}.
    """
    given = {**{k: "{" + v + "}" for k, v in STAGE_FLAGS[command].items()}, **flags}
    return [command, *(item for name, value in given.items()
                       for item in ("--" + name.replace("_", "-"), value)), "--out", "{out}"]


# (argv, exit code, the start of stderr) of commands that fail in-process
COMMANDS = [
    (_argv("run", variance_target="1.5"), 1,
     "error: variance target must lie in (0, 1], got 1.5\n"),
    (_argv("run", gini="{missing}"), 1, "error: file not found: {missing}\n"),
    (_argv("run", data="{directory}"), 1, "error: {directory}: cannot read file ("),
    (_argv("run", gini="{latin1}"), 1, "error: {latin1}: not UTF-8 text (byte 12)\n"),
    (_argv("run", gini="{oversized_field}"), 1, "error: {oversized_field}: not a CSV file ("),
    (_argv("run", gini="{empty}"), 1, "error: {empty}: file is empty\n"),
    (_argv("run", gini="{gini_header}"), 1, "error: {gini_header}: missing columns: gini\n"),
    (_argv("run", gini="{gini_above_one}"), 1,
     "error: {gini_above_one}: row 2: value '1.5' for (A, gini) outside [0, 1]\n"),
    (_argv("run", meta="{unknown_pillar}"), 1,
     "error: {unknown_pillar}: row 3: unknown pillar 'Wealth'\n"),
    (_argv("run", meta="{one_indicator}"), 1,
     "error: {one_indicator}: need at least 2 indicators, got 1\n"),
    (_argv("run", data="{two_states}", meta="{indicators}"), 1,
     "error: {two_states}: found 2 states, need at least 3\n"),
    (_argv("normalize", data="{constant}", meta="{indicators}"), 1,
     "error: {constant}: indicator 'a' is constant, min-max rescaling is undefined\n"),
    (_argv("pca", normalized="{tiny_variance}"), 1,
     "error: {tiny_variance}: indicator 'b' has sample variance 0.0, too small to correlate\n"),
    (_argv("score", spectrum="{one_component}"), 1,
     "error: {one_component}: 1 eigenvalues for a registry of 2 indicators\n"),
    (_argv("score", spectrum="{components_reordered}"), 1,
     "error: {components_reordered}: components must be 1..2 in file order\n"),
    (_argv("score", spectrum="{selection_not_a_prefix}"), 1,
     "error: {selection_not_a_prefix}: selected components must be a leading prefix "
     "PC1..PCk, got PC2\n"),
    (_argv("score", spectrum="{negative_eigenvalue}"), 1,
     "error: {negative_eigenvalue}: row 2: eigenvalue -1.0 of PC1 is negative beyond "
     "round-off\n"),
    (_argv("score", loadings="{loadings_reordered}"), 1,
     "error: {loadings_reordered}: indicator rows do not match the registry\n"),
    (_argv("score", loadings="{zero_loadings}"), 2,
     "numerical failure: total weight is zero, the index is undefined\n"),
]

NORM = data_matrix([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
SCORES = {"A": 0.1, "B": 0.4, "C": 0.7}
# a spread max - min that overflows: percentile at p = 30 interpolates to inf,
# at p = 80 lands on 1e308
OVERFLOWING_SCORES = {"A": -1e308, "B": 1e308, "C": 1e308, "D": 1e308}

# (call, error type, message) of README's library functions given bad arguments
LIBRARY = [
    (lambda: correlation_matrix(data_matrix([[0.0, 1.0], [1.0, 0.0]])), InputError,
     "need at least 3 rows to estimate correlations, got 2"),
    (lambda: correlation_matrix(data_matrix([[0.0], [0.5], [1.0]])), InputError,
     "need at least 2 indicators to correlate, got 1"),
    (lambda: eigendecompose(np.ones((2, 3))), InputError,
     "eigendecompose needs a non-empty square matrix"),
    (lambda: eigendecompose(np.array([[1.0, math.nan], [math.nan, 1.0]])), InputError,
     "eigendecompose needs finite entries"),
    (lambda: eigendecompose(np.array([[1.0, 2.0], [0.5, 1.0]])), InputError,
     "matrix is not symmetric within 1e-12"),
    (lambda: eigendecompose(np.full((3, 3), 1e308)), InputError,
     "matrix's Frobenius norm overflows the float range"),
    (lambda: select_components(Spectrum(np.zeros(2), np.eye(2))), NumericalError,
     "total variance is not positive, cannot select components"),
    (lambda: loading_matrix(Spectrum(np.array([1.5, 0.5]), np.eye(2)),
                            ComponentSelection(0, 0.0, 0)), InputError,
     "selection of 0 components out of range for a spectrum of size 2"),
    (lambda: compute_weights(np.ones((2, 2)), [1.0]), InputError,
     "2 loading columns for 1 eigenvalues; need one eigenvalue per column, "
     "and at least one column"),
    (lambda: compute_weights(np.ones((2, 1)), [-1.0]), NumericalError,
     "eigenvalue -1.0 is negative beyond round-off"),
    (lambda: composite_index(NORM, [1.0]), InputError, "1 weights for 2 indicators"),
    (lambda: composite_index(NORM, [1.0, -1.0]), InputError, "weights must be non-negative"),
    (lambda: thresholds_from_scores({"A": 0.1, "B": 0.4}), InputError,
     "exclusive percentile needs at least 3 values, got 2"),
    (lambda: thresholds_from_scores(SCORES, 80.0, 20.0), InputError,
     "percentiles must satisfy 0 < low < high < 100, got low=80.0 high=20.0"),
    (lambda: thresholds_from_scores(OVERFLOWING_SCORES, 30.0, 80.0), InputError,
     "t_low inf exceeds t_high 1e+308"),
    (lambda: state_scores({}, thresholds_from_scores(SCORES)), InputError,
     "cannot rank an empty score map"),
]


def _raise_lines() -> dict[tuple[str, int], str]:
    """Each raise statement in src/smi, by (file, first line), as file:line: source."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Raise):
                found[(str(path), node.lineno)] = (
                    f"{path.name}:{node.lineno}: {lines[node.lineno - 1].strip()}")
    return found


@contextlib.contextmanager
def _lines_run(ran: set[tuple[str, int]]):
    """Add (file, line) to ran for each line of src/smi that runs in the block."""
    files = {str(path) for path in SRC.glob("*.py")}

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        yield
    finally:
        sys.settrace(previous)


def test_every_raise_runs(data_dir, tmp_path, monkeypatch):
    paths = {"obs": data_dir / "observations_synthetic.csv", "meta": data_dir / "indicators.csv",
             "out": tmp_path / "out", "missing": tmp_path / "missing.csv",
             "directory": tmp_path}
    for stem, content in FILES.items():
        paths[stem] = tmp_path / f"{stem}.csv"
        if isinstance(content, bytes):
            paths[stem].write_bytes(content)
        else:
            paths[stem].write_text(content, encoding="utf-8")
    ran: set[tuple[str, int]] = set()
    with _lines_run(ran):
        for argv, code, stderr in COMMANDS:
            got = console(*(item.format(**paths) for item in argv))
            assert got[:2] == (code, "") and got[2].startswith(stderr.format(**paths)), (argv, got)
        # the eigensolver's certificate fails on another build's eigenvectors too far from these
        with monkeypatch.context() as patch:
            emulate_another_build(patch, 1e-11, 0)
            code, stdout, stderr = console(*(item.format(**paths) for item in _argv("pca")))
        assert (code, stdout) == (2, "")
        assert stderr.startswith("numerical failure: eigendecomposition not certified: "), stderr
        # the console script exits with main's code
        monkeypatch.setattr(sys, "argv", ["smi", *(item.format(**paths) for item in _argv(
            "run", low_percentile="80", high_percentile="20"))])
        with contextlib.redirect_stderr(io.StringIO()) as err, pytest.raises(SystemExit) as exc:
            smi.cli.entrypoint()
        assert exc.value.code == 1
        assert err.getvalue() == ("error: percentiles must satisfy 0 < low < high < 100, "
                                  "got low=80.0 high=20.0\n")
        for call, error, message in LIBRARY:
            with pytest.raises(error) as exc:
                call()
            assert str(exc.value) == message
    missed = [where for key, where in _raise_lines().items() if key not in ran]
    assert not missed, "raise statements no case runs:\n" + "\n".join(missed)
