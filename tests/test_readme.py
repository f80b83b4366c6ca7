"""README's claims: its "Library use" example runs as written and prints the
fixture's ranking, its report.json table documents every key a run writes,
and the seeded script regenerates the fixture."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from smi.cli import BLAS_THREAD_VARIABLES, RunConfig, run

ROOT = Path(__file__).resolve().parent.parent


def _library_use_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_use_prints_the_fixture_ranking(data_dir, tmp_path):
    # the example's relative data/ paths resolve from the repository root
    result = subprocess.run([sys.executable, "-c", _library_use_block()],
                            capture_output=True, text=True, cwd=ROOT)
    assert result.returncode == 0, result.stderr
    report = run(RunConfig(data=str(data_dir / "observations_synthetic.csv"),
                           meta=str(data_dir / "indicators.csv"),
                           gini=str(data_dir / "gini.csv"), out_dir=str(tmp_path / "out")))
    expected = [f"{s['rank']} {s['state']} {s['smi']:.3f} {s['category']}"
                for s in report["scores"]]
    assert len(expected) == 22
    assert result.stdout.splitlines() == expected


# the JSON type of each value json.loads returns
_JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "boolean", int: "integer",
               float: "number", type(None): "null"}
# the maps keyed by data or by enum values, and the placeholder README writes for their keys
_PLACEHOLDERS = {"weights": "<indicator_id>", "scenarios.grid": "<category>",
                 "scenarios.grid.<category>": "<inequality>"}


def _key_paths(value, path: str, found: dict[str, set[str]]) -> None:
    """Add the JSON type of value, and of each value under it, to found by key path."""
    if path:
        found.setdefault(path, set()).add(_JSON_TYPES[type(value)])
    if isinstance(value, dict):
        for key, item in value.items():
            _key_paths(item, f"{path}.{_PLACEHOLDERS.get(path, key)}" if path else key, found)
    elif isinstance(value, list):
        for item in value:
            _key_paths(item, path + "[]", found)


def _readme_report_rows() -> list[tuple[str, set[str]]]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## report.json\n", 1)[1].split("\n## ", 1)[0]
    return [(path, set(types.split(" or "))) for path, types in
            re.findall(r"^\| `([^`]+)` \| ([^|]+?) \|", section, re.MULTILINE)]


def test_readme_documents_every_report_key(data_dir, tmp_path, monkeypatch):
    # between them, the two reports hold every key path and type: only the
    # first has states in the grid cells and BLAS thread variables set, only
    # the second a null config.gini, unset thread variables and no CPU count
    found: dict[str, set[str]] = {}
    for gini, threads, cpus in ((str(data_dir / "gini.csv"), "1", 2), (None, None, None)):
        for name in BLAS_THREAD_VARIABLES:
            if threads:
                monkeypatch.setenv(name, threads)
            else:
                monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        run(RunConfig(data=str(data_dir / "observations_synthetic.csv"),
                      meta=str(data_dir / "indicators.csv"), gini=gini, out_dir=str(tmp_path)))
        _key_paths(json.loads((tmp_path / "report.json").read_text(encoding="utf-8")), "", found)
    rows = _readme_report_rows()
    assert len(dict(rows)) == len(rows), "a key path has two rows"
    assert dict(rows) == found


def test_generator_script_reproduces_the_shipped_fixture(data_dir, tmp_path):
    # the script writes next to itself, so it runs from a copy of scripts/ and
    # data/indicators.csv; smi comes from the PYTHONPATH conftest sets
    (tmp_path / "scripts").mkdir()
    (tmp_path / "data").mkdir()
    shutil.copy(ROOT / "scripts" / "generate_fixtures.py", tmp_path / "scripts")
    shutil.copy(data_dir / "indicators.csv", tmp_path / "data")
    result = subprocess.run([sys.executable, str(tmp_path / "scripts" / "generate_fixtures.py")],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    generated = (tmp_path / "data" / "observations_synthetic.csv").read_bytes()
    assert generated == (data_dir / "observations_synthetic.csv").read_bytes()
