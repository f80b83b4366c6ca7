"""README's claims: its "Library use" example runs as written and prints the
fixture's ranking, and the seeded script regenerates the fixture."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

from smi.cli import RunConfig, run

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
