"""Shared fixtures: paths to the shipped data files and parsed forms of them."""

import csv
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, settings

from smi.dataset import load_indicator_metadata

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
SRC_DIR = DATA_DIR.parent / "src"

# the CLI tests run `python -m smi` in subprocesses; they must import the
# same source tree as the in-process tests (pyproject's pytest pythonpath)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
# hypothesis caches the constants it finds in the source under its home
# directory, whatever the example database setting; keep that out of the tree
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "smi-hypothesis"))

# every property test draws the same examples on every run and keeps no
# example database; it reports its first failing example as drawn, since
# shrinking and explaining one reruns the pipeline for minutes
settings.register_profile("smi", derandomize=True, database=None, deadline=None,
                          phases=(Phase.explicit, Phase.generate))
settings.load_profile("smi")


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def indicators_path() -> Path:
    return DATA_DIR / "indicators.csv"


@pytest.fixture(scope="session")
def observations_path() -> Path:
    return DATA_DIR / "observations_synthetic.csv"


@pytest.fixture(scope="session")
def gini_path() -> Path:
    return DATA_DIR / "gini.csv"


@pytest.fixture(scope="session")
def registry(indicators_path):
    return load_indicator_metadata(indicators_path)


@pytest.fixture(scope="session")
def reference_rows() -> list[tuple[str, float, str, int]]:
    """Per-state (name, score, category, rank) from the reference results table."""
    rows = []
    with open(DATA_DIR / "reference_scores.csv", newline="", encoding="utf-8") as fh:
        for record in csv.DictReader(fh):
            rows.append((record["state"], float(record["smi"]),
                         record["category"], int(record["rank"])))
    assert len(rows) == 22
    return rows


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or item.get_closest_marker("acceptance") is None:
        return
    reporter = item.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is None:
        return
    if report.passed:
        status = "PASS"
    elif report.skipped:
        status = "SKIP"
    else:
        status = "FAIL"
    reporter.write_line(f"[acceptance] {item.name}: {status}")
