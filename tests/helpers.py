"""Builders and launchers the test modules share."""

import contextlib
import io
import os
import subprocess
import sys

import numpy as np

from smi.cli import main
from smi.dataset import DataMatrix, Direction, IndicatorRegistry, IndicatorSpec
from smi.normalize import normalize_matrix

# what the normalize, pca and score stages write, in that order
STAGE_FILES = ("normalized.csv", "correlation.csv", "spectrum.csv", "loadings.csv",
               "weights.csv", "scores.csv")


def data_matrix(values, directions=None, ids=None, states=None,
                pillars=("Health",)) -> DataMatrix:
    """A 2-D array as a DataMatrix: rows states (s0, s1, ...), columns ids (x0, x1, ...).

    Each indicator is named by its id and is positive unless directions
    says otherwise; the pillars are dealt to the columns in turn.
    """
    values = np.asarray(values, dtype=np.float64)
    n, p = values.shape
    directions = directions or [Direction.POSITIVE] * p
    specs = tuple(IndicatorSpec(i, i, pillars[j % len(pillars)], d)
                  for j, (i, d) in enumerate(zip(ids or [f"x{j}" for j in range(p)], directions)))
    return DataMatrix(states or tuple(f"s{i}" for i in range(n)), values, IndicatorRegistry(specs))


def normalized_column(values, direction: Direction, name: str = "x0") -> np.ndarray:
    """normalize_matrix on values as the one column, name, of a matrix."""
    column = np.asarray(values, dtype=np.float64)[:, None]
    return normalize_matrix(data_matrix(column, [direction], ids=[name])).values[:, 0]


def run_cli(*args, cwd=None) -> subprocess.CompletedProcess:
    """`python -m smi` with args, in a subprocess, its console text uncoloured."""
    env = {**os.environ, "SMI_NO_COLOR": "1"}
    return subprocess.run([sys.executable, "-m", "smi", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def console(*argv) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of main(argv), called in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def fixture_args(data_dir, out) -> list[str]:
    return ["--data", str(data_dir / "observations_synthetic.csv"),
            "--meta", str(data_dir / "indicators.csv"), "--out", str(out)]


def chain(data_dir, out, pca_flags=(), score_flags=()) -> list[int]:
    """The exit codes of the normalize, pca and score stages on data_dir's fixture, out to out."""
    meta = str(data_dir / "indicators.csv")
    norm = str(out / "normalized.csv")
    return [
        console("normalize", *fixture_args(data_dir, out))[0],
        console("pca", "--normalized", norm, "--meta", meta, "--out", str(out), *pca_flags)[0],
        console("score", "--normalized", norm, "--meta", meta,
                "--loadings", str(out / "loadings.csv"), "--spectrum", str(out / "spectrum.csv"),
                "--out", str(out), *score_flags)[0],
    ]


def emulate_another_build(monkeypatch, eps, seed) -> None:
    """Have np.linalg.eigh return another BLAS build's eigenvectors, eps from LAPACK's own.

    They are emulated as LAPACK's V times an orthogonal Q within eps of I:
    Q = I + S for a skew-symmetric S with ||S||_F = eps is orthogonal up to
    eps^2, far below rounding here.
    """
    rng = np.random.default_rng(seed)
    eigh = np.linalg.eigh

    def perturbed(m):
        w, v = eigh(m)
        g = rng.normal(0.0, 1.0, v.shape)
        s = g - g.T
        return w, v @ (np.eye(len(v)) + (eps / np.linalg.norm(s)) * s)

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
