import csv
import hashlib
import importlib
import io
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import smi.cli
from smi.cli import RunConfig, _style, run
from smi.analysis import pillar_scores
from smi.dataset import (PILLARS, _BLOCK_CELLS, DataMatrix, _field, load_gini,
                         load_indicator_metadata, write_observations)
from smi.errors import InputError
from smi.normalize import load_normalized
from smi.pca import Basis, ComponentSelection, LoadingConvention, Spectrum
from smi.scoring import PercentileMethod

from helpers import (STAGE_FILES, chain, console, data_matrix, emulate_another_build,
                     fixture_args, run_cli)

META3 = """\
indicator_id,name,pillar,direction
le,Life expectancy,Health,positive
abr,Adolescent birth rate,Health,negative
mys,Mean schooling years,Education Access,positive
"""

META2_POSITIVE = """\
indicator_id,name,pillar,direction
a,A,Health,positive
b,B,Health,positive
"""

# the two top states nearly tie, so the 75th-percentile cut (halfway
# between them under the default method at n=5) sits within 1e-3 of both
NEAR_TIE_OBS = "state,a,b\nA,0,0\nB,0.2,0.2\nC,0.5,0.5\nD,0.8,0.8\nE,0.8004,0.8004\n"


def base_config(data_dir, tmp_path, **overrides) -> RunConfig:
    kwargs = dict(
        data=str(data_dir / "observations_synthetic.csv"),
        meta=str(data_dir / "indicators.csv"),
        gini=str(data_dir / "gini.csv"),
        out_dir=str(tmp_path / "out"),
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


def test_config_validation():
    with pytest.raises(InputError, match="low"):
        RunConfig(data="d", meta="m", out_dir="o", low_percentile=80.0, high_percentile=20.0)
    with pytest.raises(InputError, match="variance target"):
        RunConfig(data="d", meta="m", out_dir="o", variance_target=0.0)
    with pytest.raises(InputError, match="eigen threshold"):
        RunConfig(data="d", meta="m", out_dir="o", eigen_threshold=-1.0)
    with pytest.raises(InputError, match="gini threshold"):
        RunConfig(data="d", meta="m", out_dir="o", gini_threshold=1.5)


def test_run_report_structure(data_dir, tmp_path):
    report = run(base_config(data_dir, tmp_path))
    assert list(report) == ["schema_version", "config", "validation", "spectrum", "selection",
                            "weights", "thresholds", "scores", "scenarios", "warnings", "meta"]
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert list(on_disk) == list(report)
    # the value README documents; a key removal or a type change bumps it
    assert report["schema_version"] == 1
    assert len(report["scores"]) == 22
    assert sorted(s["rank"] for s in report["scores"]) == list(range(1, 23))
    assert report["thresholds"]["t_low"] <= report["thresholds"]["t_high"]
    assert len(report["weights"]) == 31
    assert all(list(column) == ["indicator_id", "min", "max"]
               for column in report["validation"]["columns"])
    components = report["spectrum"]["components"]
    assert len(components) == 31
    assert sum(1 for c in components if c["selected"]) == report["selection"]["selected_count"]


def test_report_json_is_one_compact_line(data_dir, tmp_path):
    # report.json goes through json's C encoder, which any indent turns off;
    # scenarios.json keeps its pinned indent-2 layout
    report = run(base_config(data_dir, tmp_path))
    text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    assert text.endswith("\n") and text.count("\n") == 1
    assert json.loads(text) == report
    assert text == json.dumps(json.loads(text), ensure_ascii=False) + "\n"
    scenarios = (tmp_path / "out" / "scenarios.json").read_text(encoding="utf-8")
    assert scenarios == json.dumps(report["scenarios"], indent=2, ensure_ascii=False) + "\n"


def _benchmark_spans() -> list[tuple[str, str]]:
    """(layer, function) of each BENCHMARK.json per-layer metric that times one function."""
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    pattern = re.compile(r"(\w+)\.(\w+)\.(?:ms|self_ms)")
    spans = [m.groups() for m in map(pattern.fullmatch, (e["name"] for e in spec["per_layer"]))
             if m]
    assert len(spans) == 27
    return spans


def test_benchmark_layer_spans_name_public_functions_of_smi_cli():
    # the benchmark's tracer times smi.cli's public smi functions by their
    # defining module; a per-layer metric whose function moved or went
    # private would never be measured
    for layer, name in _benchmark_spans():
        module = importlib.import_module(f"smi.{layer}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, (layer, name)
        assert not name.startswith("_"), (layer, name)
        assert getattr(smi.cli, name, None) is fn, (layer, name)


def test_run_without_gini_emits_warning_and_unclassified(data_dir, tmp_path):
    report = run(base_config(data_dir, tmp_path, gini=None))
    assert any("no gini file" in w for w in report["warnings"])
    assert len(report["scenarios"]["unclassified"]) == 22
    for grid_row in report["scenarios"]["grid"].values():
        for cell in grid_row.values():
            assert cell == []


def test_run_scores_csv_contents(data_dir, tmp_path):
    run(base_config(data_dir, tmp_path))
    with open(tmp_path / "out" / "scores.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 22
    assert sorted(int(r["rank"]) for r in rows) == list(range(1, 23))
    assert all(r["category"] in {"Low", "Medium", "High"} for r in rows)
    assert [int(r["rank"]) for r in rows] == list(range(1, 23))


def test_cli_exit_zero_on_fixture(data_dir, tmp_path):
    result = run_cli("run", "--data", str(data_dir / "observations_synthetic.csv"),
                     "--meta", str(data_dir / "indicators.csv"),
                     "--gini", str(data_dir / "gini.csv"),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    assert "scored 22 states" in result.stdout
    assert "\x1b[" not in result.stderr


def test_cli_exit_one_on_bad_percentile_flags(data_dir, tmp_path, monkeypatch, capsys):
    args = ["run", "--data", str(data_dir / "observations_synthetic.csv"),
            "--meta", str(data_dir / "indicators.csv"), "--out", str(tmp_path / "out"),
            "--low-percentile", "80", "--high-percentile", "20"]
    result = run_cli(*args)
    assert result.returncode == 1
    assert "percentiles" in result.stderr
    # the console script, called in this process, exits with main's code
    monkeypatch.setattr(sys, "argv", ["smi", *args])
    with pytest.raises(SystemExit) as exc:
        smi.cli.entrypoint()
    assert exc.value.code == 1
    assert "percentiles" in capsys.readouterr().err


def test_nearest_rank_floor_makes_the_lowest_score_t_low(data_dir, tmp_path):
    # 22 * 5e-324 / 100 underflows to 0, whose ceiling is no rank at all;
    # the floor at rank 1 keeps t_low at the lowest score, not above t_high
    out = tmp_path / "out"
    code, _, stderr = console("run", *fixture_args(data_dir, out), "--percentile-method",
                              "nearest_rank", "--low-percentile", "5e-324")
    assert code == 0, stderr
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["thresholds"]["t_low"] == min(s["smi"] for s in report["scores"])


@pytest.mark.parametrize("threshold, inequality", [("0", "HighInequality"),
                                                   ("1", "LowInequality")])
def test_gini_threshold_bounds_put_every_state_in_one_class(data_dir, tmp_path, threshold,
                                                            inequality):
    # the boundary counts as high inequality, and the fixture's Gini values
    # lie strictly inside (0, 1)
    gini = load_gini(data_dir / "gini.csv")
    assert 0.0 < min(gini.values()) and max(gini.values()) < 1.0
    out = tmp_path / "out"
    code, _, stderr = console("run", *fixture_args(data_dir, out),
                              "--gini", str(data_dir / "gini.csv"), "--gini-threshold", threshold)
    assert code == 0, stderr
    scenarios = json.loads((out / "scenarios.json").read_text(encoding="utf-8"))
    assert scenarios["gini_threshold"] == float(threshold)
    assert sorted(state for row in scenarios["grid"].values() for cell, states in row.items()
                  for state in states if cell == inequality) == sorted(gini)
    assert all(not states for row in scenarios["grid"].values()
               for cell, states in row.items() if cell != inequality)


def test_cli_exit_one_lists_every_constant_column(tmp_path):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META3, encoding="utf-8")
    obs = tmp_path / "observations.csv"
    obs.write_text(
        "state,le,abr,mys\nA,1,7,6\nB,2,7,6\nC,3,7,6\n", encoding="utf-8")
    for command in ("run", "normalize"):
        result = run_cli(command, "--data", str(obs), "--meta", str(meta),
                         "--out", str(tmp_path / "out"))
        assert result.returncode == 1
        assert result.stderr == "".join(
            f"error: {obs}: indicator {ind_id!r} is constant, min-max rescaling is undefined\n"
            for ind_id in ("abr", "mys")), command


def test_cli_exit_one_on_missing_file(tmp_path):
    result = run_cli("run", "--data", str(tmp_path / "nope.csv"),
                     "--meta", str(tmp_path / "also_nope.csv"),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "file not found" in result.stderr


@pytest.mark.parametrize("case", ["missing_loadings", "directory_data", "latin1_gini",
                                  "normalized_above_one", "ragged_loadings", "gini_above_one",
                                  "gini_nan", "one_indicator"])
def test_cli_bad_input_exits_one_naming_the_file(data_dir, tmp_path, case):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META2_POSITIVE, encoding="utf-8")
    norm = tmp_path / "normalized.csv"
    norm.write_text("state,a,b\nA,0.0,1.0\nB,0.5,0.5\nC,1.0,0.0\n", encoding="utf-8")
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text("component,eigenvalue,explained_variance_ratio,selected\n"
                        "1,1.5,0.75,1\n2,0.5,0.25,0\n", encoding="utf-8")
    stage_args = ["--normalized", str(norm), "--meta", str(meta), "--out", str(tmp_path / "out")]
    run_args = ["run", "--data", str(data_dir / "observations_synthetic.csv"),
                "--meta", str(data_dir / "indicators.csv"), "--out", str(tmp_path / "out")]
    # the whole of stderr, for the cases that pin it
    expected = None
    if case == "missing_loadings":
        bad = tmp_path / "missing.csv"
        args = ["score", *stage_args, "--loadings", str(bad), "--spectrum", str(spectrum)]
    elif case == "directory_data":
        bad = tmp_path / "a_directory"
        bad.mkdir()
        args = [*run_args[:2], str(bad), *run_args[3:]]
    elif case == "ragged_loadings":
        bad = tmp_path / "loadings.csv"
        bad.write_text("indicator_id,PC1\na,0.7\nb\n", encoding="utf-8")
        args = ["score", *stage_args, "--loadings", str(bad), "--spectrum", str(spectrum)]
        expected = f"error: {bad}: row 3: expected 2 fields, got 1\n"
    elif case == "latin1_gini":
        bad = tmp_path / "gini.csv"
        bad.write_bytes(b"state,gini\nB\xe9ziers,0.31\n")
        args = [*run_args, "--gini", str(bad)]
    elif case == "gini_above_one":
        bad = tmp_path / "gini.csv"
        bad.write_text("state,gini\nAlpha,0.25\nGamma,0.3\nBeta,1.5\n", encoding="utf-8")
        args = [*run_args, "--gini", str(bad)]
        expected = f"error: {bad}: row 4: value '1.5' for (Beta, gini) outside [0, 1]\n"
    elif case == "gini_nan":
        bad = tmp_path / "gini.csv"
        shipped = (data_dir / "gini.csv").read_text(encoding="utf-8")
        assert "\nBihar,0.23\n" in shipped
        bad.write_text(shipped.replace("\nBihar,0.23\n", "\nBihar,nan\n"), encoding="utf-8")
        args = [*run_args, "--gini", str(bad)]
        expected = f"error: {bad}: row 3: non-finite value 'nan' for (Bihar, gini)\n"
    elif case == "one_indicator":
        bad = meta
        bad.write_text(META2_POSITIVE.rsplit("b,", 1)[0], encoding="utf-8")
        args = [*run_args[:3], "--meta", str(bad), *run_args[5:]]
        expected = f"error: {bad}: need at least 2 indicators, got 1\n"
    else:
        bad = norm
        bad.write_text("state,a,b\nA,0.0,1.0\nB,1.2,0.5\nC,1.0,0.0\n", encoding="utf-8")
        args = ["pca", *stage_args]
        expected = f"error: {bad}: row 3: value '1.2' for (B, a) outside [0, 1]\n"
    code, err = _main(*args)
    assert code == 1, err
    assert re.match(rf"error: (file not found: )?{re.escape(str(bad))}", err), err
    if expected is not None:
        assert err == expected


def test_zero_weight_pillar_warned_once(data_dir, tmp_path):
    # the fixture's PCA gives every pillar weight, so zero one pillar's
    # weights at the point the pipeline computes them
    script = (
        "import sys, smi.cli\n"
        "compute = smi.cli.compute_weights\n"
        "def zero_fair_wages(loadings, eigenvalues):\n"
        "    weights = compute(loadings, eigenvalues)\n"
        "    registry = smi.cli.load_indicator_metadata(sys.argv[1])\n"
        "    weights[[s.pillar == 'Fair Wages' for s in registry]] = 0.0\n"
        "    return weights\n"
        "smi.cli.compute_weights = zero_fair_wages\n"
        "raise SystemExit(smi.cli.main(sys.argv[2:]))\n")
    out = tmp_path / "out"
    result = subprocess.run(
        [sys.executable, "-c", script, str(data_dir / "indicators.csv"),
         "run", *fixture_args(data_dir, out)],
        capture_output=True, text=True, env={**os.environ, "SMI_NO_COLOR": "1"})
    assert result.returncode == 0, result.stderr
    warning = "pillar 'Fair Wages' has zero total weight"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert sum(warning in w for w in report["warnings"]) == 1
    assert result.stderr.count(warning) == 1
    assert "Fair Wages" not in (out / "pillars.csv").read_text(encoding="utf-8")


def test_cli_exit_two_on_zero_total_weight(tmp_path):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META2_POSITIVE, encoding="utf-8")
    norm = tmp_path / "normalized.csv"
    norm.write_text("state,a,b\nA,0.0,1.0\nB,0.5,0.5\nC,1.0,0.0\n", encoding="utf-8")
    loadings = tmp_path / "loadings.csv"
    loadings.write_text("indicator_id,PC1\na,0.0\nb,0.0\n", encoding="utf-8")
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text(
        "component,eigenvalue,explained_variance_ratio,selected\n"
        "1,1.5,0.75,1\n2,0.5,0.25,0\n", encoding="utf-8")
    result = run_cli("score", "--normalized", str(norm), "--meta", str(meta),
                     "--loadings", str(loadings), "--spectrum", str(spectrum),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 2
    assert "numerical failure" in result.stderr


def test_pca_subcommand_trace_identity(tmp_path):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META3, encoding="utf-8")
    norm = tmp_path / "normalized.csv"
    norm.write_text(
        "state,le,abr,mys\n"
        "A,0.0,1.0,0.2\nB,0.4,0.0,1.0\nC,1.0,0.6,0.0\nD,0.7,0.3,0.5\n",
        encoding="utf-8")
    result = run_cli("pca", "--normalized", str(norm), "--meta", str(meta),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "out" / "spectrum.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert sum(float(r["eigenvalue"]) for r in rows) == pytest.approx(3.0, abs=1e-9)


def test_score_subcommand_matches_hand_oracle(tmp_path):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META2_POSITIVE, encoding="utf-8")
    norm = tmp_path / "normalized.csv"
    norm.write_text("state,a,b\nA,0.0,1.0\nB,0.5,0.5\nC,1.0,0.0\n", encoding="utf-8")
    loadings = tmp_path / "loadings.csv"
    loadings.write_text("indicator_id,PC1,PC2\na,0.6,0.8\nb,0.8,-0.6\n", encoding="utf-8")
    spectrum = tmp_path / "spectrum.csv"
    spectrum.write_text(
        "component,eigenvalue,explained_variance_ratio,selected\n"
        "1,2.0,0.6666,1\n2,1.0,0.3334,1\n", encoding="utf-8")
    result = run_cli("score", "--normalized", str(norm), "--meta", str(meta),
                     "--loadings", str(loadings), "--spectrum", str(spectrum),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "out" / "weights.csv", newline="", encoding="utf-8") as fh:
        rows = {r["indicator_id"]: r["weight"] for r in csv.DictReader(fh)}
    # |0.6|*2 + |0.8|*1 = 2.0 and |0.8|*2 + |-0.6|*1 = 2.2
    assert rows == {"a": "2.000000", "b": "2.200000"}


def test_normalize_subcommand_idempotent_bytes(tmp_path):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META2_POSITIVE, encoding="utf-8")
    obs = tmp_path / "observations.csv"
    obs.write_text("state,a,b\nA,10,3\nB,20,9\nC,15,6\n", encoding="utf-8")
    first = run_cli("normalize", "--data", str(obs), "--meta", str(meta),
                    "--out", str(tmp_path / "out1"))
    assert first.returncode == 0, first.stderr
    second = run_cli("normalize", "--data", str(tmp_path / "out1" / "normalized.csv"),
                     "--meta", str(meta), "--out", str(tmp_path / "out2"))
    assert second.returncode == 0, second.stderr
    bytes1 = (tmp_path / "out1" / "normalized.csv").read_bytes()
    bytes2 = (tmp_path / "out2" / "normalized.csv").read_bytes()
    assert bytes1 == bytes2


# floats whose shortest text is unusual: signed zero, the smallest
# subnormal, a sum that is not 0.3, a repeating fraction, just below 1
AWKWARD_FLOATS = [0.0, -0.0, 5e-324, 0.1 + 0.2, 1 / 3, 1 - 2.0 ** -53]


def test_handoff_files_round_trip_bitwise(tmp_path):
    # each full-precision handoff file reads back the exact float64 bits
    values = np.array(AWKWARD_FLOATS).reshape(3, 2)
    matrix = data_matrix(values, ids=("a", "b"), states=("A", "B", "C"))
    write_observations(matrix, tmp_path / "normalized.csv")
    again = load_normalized(tmp_path / "normalized.csv", matrix.registry)
    assert again.values.tobytes() == values.tobytes()

    wide_floats = np.array([*AWKWARD_FLOATS, 1e16, -1e-300])
    registry8 = data_matrix(np.zeros((1, len(wide_floats)))).registry
    loadings = np.column_stack([wide_floats, wide_floats[::-1]])
    smi.cli.write_loadings(tmp_path / "loadings.csv", loadings, registry8.ids)
    assert smi.cli.read_loadings(tmp_path / "loadings.csv", registry8, 2).tobytes() == \
        loadings.tobytes()
    spectrum = Spectrum(eigenvalues=wide_floats, eigenvectors=np.eye(len(wide_floats)))
    everything = ComponentSelection(count=len(wide_floats),
                                    explained_variance_ratio=1.0,
                                    threshold_count=len(wide_floats))
    smi.cli.write_spectrum(tmp_path / "spectrum.csv", spectrum, everything)
    eigenvalues = smi.cli.read_spectrum(tmp_path / "spectrum.csv", registry8)
    assert np.array(eigenvalues).tobytes() == wide_floats.tobytes()


def test_style_respects_no_color_env(monkeypatch):
    class FakeTty(io.StringIO):
        def isatty(self):
            return True

    monkeypatch.setattr(sys, "stderr", FakeTty())
    monkeypatch.delenv("SMI_NO_COLOR", raising=False)
    assert _style("boom", "31") == "\x1b[31mboom\x1b[0m"
    monkeypatch.setenv("SMI_NO_COLOR", "1")
    assert _style("boom", "31") == "boom"


def test_boundary_warning_fires(tmp_path):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META2_POSITIVE, encoding="utf-8")
    obs = tmp_path / "observations.csv"
    obs.write_text(NEAR_TIE_OBS, encoding="utf-8")
    config = RunConfig(data=str(obs), meta=str(meta), out_dir=str(tmp_path / "out"))
    report = run(config)
    assert any("threshold" in w and "sensitive" in w for w in report["warnings"])


def _main(*argv) -> tuple[int, str]:
    code, _, err = console(*argv)
    return code, err


@pytest.mark.parametrize("command, flags, message", [
    ("pca", ["--variance-target", "1.5"], "variance target must lie in (0, 1]"),
    ("pca", ["--eigen-threshold", "-1"], "eigen threshold must be non-negative"),
    ("score", ["--low-percentile", "80"], "percentiles must satisfy"),
    ("score", ["--high-percentile", "100"], "percentiles must satisfy"),
    ("pca", ["--eigen-threshold", "nan"], "eigen threshold must be finite, got nan"),
    ("pca", ["--eigen-threshold", "inf"], "eigen threshold must be finite, got inf"),
])
def test_subcommand_validates_config_like_run(data_dir, tmp_path, command, flags, message):
    meta = str(data_dir / "indicators.csv")
    stage_args = {
        "pca": ["--normalized", "n.csv", "--meta", meta],
        "score": ["--normalized", "n.csv", "--meta", meta, "--loadings", "l.csv",
                  "--spectrum", "s.csv"],
    }[command]
    code, err = _main(command, *stage_args, "--out", str(tmp_path / "stage"), *flags)
    run_code, run_err = _main("run", *fixture_args(data_dir, tmp_path / "run"), *flags)
    assert (code, run_code) == (1, 1)
    assert message in err
    assert err == run_err


@pytest.mark.parametrize("edit, message", [
    ("swap_selection", "leading prefix"),
    ("drop_last_row", "31 indicators"),
    ("nan_loading", "row 2: non-finite value 'nan' for (life_exp, PC1)"),
    ("inf_eigenvalue", "row 2: non-finite value 'inf' for (1, eigenvalue)"),
    ("pc10_first", "components must be 1..31 in file order"),
    ("five_field_row", "row 6: expected 4 fields, got 5"),
    ("misnamed_loadings_header", "duplicate columns: PC3"),
    ("eight_loading_columns", "missing columns: PC9"),
    ("no_selected_column", "missing columns: selected"),
    ("swapped_loading_rows", "indicator rows do not match the registry"),
    ("negative_eigenvalue", "row 3: eigenvalue -1.0 of PC2 is negative beyond round-off"),
])
def test_score_rejects_spectrum_not_from_the_pca_stage(data_dir, tmp_path, edit, message):
    stages = tmp_path / "stages"
    assert chain(data_dir, stages)[:2] == [0, 0]
    handoff = stages / ("loadings.csv" if "loading" in edit else "spectrum.csv")
    with open(handoff, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if edit == "swap_selection":
        # PC1 out, PC31 in: the selected count still matches the loading columns
        assert rows[1][3] == "1" and rows[31][3] == "0"
        rows[1][3], rows[31][3] = "0", "1"
    elif edit == "drop_last_row":
        rows.pop()
    elif edit in ("nan_loading", "inf_eigenvalue"):
        rows[1][1] = edit[:3]
    elif edit == "negative_eigenvalue":
        # PC2 is selected, so its eigenvalue weights the indicators
        assert rows[2][:1] == ["2"] and rows[2][3] == "1"
        rows[2][1] = "-1.0"
    elif edit == "pc10_first":
        # PC10 is not selected, so the selected component numbers are still 1..9
        assert rows[10][:1] == ["10"] and rows[10][3] == "0"
        rows.insert(1, rows.pop(10))
    elif edit == "five_field_row":
        rows[5].append("0")
    elif edit == "eight_loading_columns":
        # PC1..PC8 against a spectrum that selects PC1..PC9
        rows = [row[:9] for row in rows]
    elif edit == "no_selected_column":
        rows = [row[:3] for row in rows]
    elif edit == "swapped_loading_rows":
        # every cell is still a finite loading, only the indicator order is wrong
        rows[1], rows[2] = rows[2], rows[1]
    else:
        assert rows[0][2] == "PC2"
        rows[0][2] = "PC3"
    with open(handoff, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "out"
    code, err = _main("score", "--normalized", str(stages / "normalized.csv"),
                      "--meta", str(data_dir / "indicators.csv"),
                      "--loadings", str(stages / "loadings.csv"),
                      "--spectrum", str(stages / "spectrum.csv"), "--out", str(out))
    assert code == 1
    assert str(handoff) in err and message in err
    assert not (out / "weights.csv").exists()


@pytest.mark.parametrize("command, constant, flags", [
    ("pca", "0.5", ["--pca-basis", "covariance"]),
    ("pca", "0.1", ["--pca-basis", "correlation"]),
    ("pca", "0.1", ["--pca-basis", "covariance"]),
    ("score", "0.5", []),
], ids=["pca-covariance-0.5", "pca-correlation-0.1", "pca-covariance-0.1", "score-0.5"])
def test_stages_reject_a_constant_normalized_column(data_dir, tmp_path, command, constant, flags):
    # 22 cells of 0.1 have a mean of 0.10000000000000003 and so a nonzero
    # variance: only the min == max rule sees that the column is constant
    stages = tmp_path / "stages"
    assert chain(data_dir, stages) == [0, 0, 0]
    norm = stages / "normalized.csv"
    with open(norm, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][1] == "life_exp"
    for row in rows[1:]:
        row[1] = constant
    with open(norm, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    if command == "score":
        flags = ["--loadings", str(stages / "loadings.csv"),
                 "--spectrum", str(stages / "spectrum.csv")]
    out = tmp_path / "out"
    code, err = _main(command, "--normalized", str(norm),
                      "--meta", str(data_dir / "indicators.csv"), "--out", str(out), *flags)
    assert code == 1
    assert err == (f"error: {norm}: indicator 'life_exp' is constant, "
                   "min-max rescaling is undefined\n")
    assert not (out / "loadings.csv").exists() and not (out / "weights.csv").exists()


# columns that no rescaling or correlation can take; each used to reach
# numpy and print RuntimeWarnings, and none named its file
SPREAD = ("0", "0.5", "1", "0.25")
OVERFLOW = ("1e308", "-1e308", "0", "0")
OVERFLOW_ERROR = "range -1e+308 to 1e+308 overflows, min-max rescaling is undefined"


@pytest.mark.parametrize("command, a, b, errors", [
    ("run", SPREAD, OVERFLOW, [f"'b' {OVERFLOW_ERROR}"]),
    ("normalize", SPREAD, OVERFLOW, [f"'b' {OVERFLOW_ERROR}"]),
    ("run", ("7", "7", "7", "7"), OVERFLOW,
     ["'a' is constant, min-max rescaling is undefined", f"'b' {OVERFLOW_ERROR}"]),
    ("pca", SPREAD, ("0", "5e-324", "0", "1e-323"),
     ["'b' has sample variance 0.0, too small to correlate"]),
    ("pca", SPREAD, ("0", "1e-100", "0", "2e-100"),
     ["'b' has sample variance 9.166666666666668e-201, too small to correlate"]),
], ids=["run-overflow", "normalize-overflow", "run-constant-and-overflow", "pca-zero-variance",
        "pca-variance-squared-underflows"])
def test_hostile_column_exits_one_naming_file_and_column(tmp_path, command, a, b, errors):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META2_POSITIVE, encoding="utf-8")
    data = tmp_path / "data.csv"
    data.write_text("state,a,b\n" + "".join(
        f"{state},{x},{y}\n" for state, x, y in zip("ABCD", a, b)), encoding="utf-8")
    out = tmp_path / "out"
    flag = "--normalized" if command == "pca" else "--data"
    code, err = _main(command, flag, str(data), "--meta", str(meta), "--out", str(out))
    assert code == 1
    assert err == "".join(f"error: {data}: indicator {e}\n" for e in errors)
    assert list(out.iterdir()) == []


# what smi run and the chained stages print on the fixture, <out> standing
# for the output directory; a refactor keeps every character
EXTENDED = ("warning: variance target 0.85 not met by the 8 components above eigenvalue 1.0; "
            "extended to 9 components\n")
RUN_STDOUT = ("scored 22 states; 9 components keep 86.2% of variance\n"
              "thresholds: low 0.341504 / high 0.591282\n"
              "wrote <out>/report.json\n")
FIXTURE_CONSOLE = {
    "run": (0, RUN_STDOUT, EXTENDED + "warning: no gini value for: Andhra Pradesh, Telangana\n"),
    "run-no_gini": (0, RUN_STDOUT, EXTENDED + "warning: no gini file given; every state is "
                    "unclassified in the scenario table\n"),
    "normalize": (0, "wrote <out>/normalized.csv (22 states x 31 indicators)\n", ""),
    "pca": (0, "selected 9 of 31 components (86.2% of variance)\n", EXTENDED),
    "score": (0, "scored 22 states; thresholds low 0.341504 / high 0.591282\n", ""),
}


def test_fixture_console_keeps_its_text(data_dir, tmp_path):
    out = tmp_path / "out"
    meta = str(data_dir / "indicators.csv")
    norm = str(out / "normalized.csv")
    argvs = {
        "run": ["run", *fixture_args(data_dir, out), "--gini", str(data_dir / "gini.csv")],
        "run-no_gini": ["run", *fixture_args(data_dir, out)],
        "normalize": ["normalize", *fixture_args(data_dir, out)],
        "pca": ["pca", "--normalized", norm, "--meta", meta, "--out", str(out)],
        "score": ["score", "--normalized", norm, "--meta", meta,
                  "--loadings", str(out / "loadings.csv"),
                  "--spectrum", str(out / "spectrum.csv"), "--out", str(out)],
    }
    printed = {}
    for case, argv in argvs.items():
        code, stdout, stderr = console(*argv)
        printed[case] = (code, stdout.replace(str(out), "<out>"), stderr.replace(str(out), "<out>"))
    assert printed == FIXTURE_CONSOLE


def test_gini_rows_of_unobserved_states_are_named(data_dir, tmp_path):
    # Bihar misspelt, and a state the observations lack appended: both rows
    # are named in file order, after the states left without a Gini value
    gini = tmp_path / "gini.csv"
    text = (data_dir / "gini.csv").read_text(encoding="utf-8")
    gini.write_text(text.replace("Bihar,", "Bihr,") + "Atlantis,0.30\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, stderr = console("run", *fixture_args(data_dir, out), "--gini", str(gini))
    assert code == 0
    missing = "no gini value for: Andhra Pradesh, Bihar, Telangana"
    unused = "gini rows for states not in the observations: Bihr, Atlantis"
    assert stderr == EXTENDED + f"warning: {missing}\nwarning: {unused}\n"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["warnings"][1:] == [missing, unused]


def test_run_times_its_stages(data_dir, tmp_path):
    run(base_config(data_dir, tmp_path))
    meta = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["meta"]
    stages = meta["stages"]
    assert list(stages) == ["load", "normalize", "pca", "score", "analysis", "write"]
    assert all(ms >= 0.0 for ms in stages.values())
    assert sum(stages.values()) <= meta["elapsed_seconds"] * 1000.0


@pytest.mark.parametrize("case", ["out_is_a_file", "out_under_a_file", "artifact_is_a_directory",
                                  "pca_artifact_is_a_directory"])
def test_unusable_out_exits_one_naming_the_path(data_dir, tmp_path, case):
    # the two artifact cases have a variance-target warning by the time the
    # write fails; the one error line leaves in place of it and of the summary
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    out = {"out_is_a_file": a_file, "out_under_a_file": a_file / "out"}.get(case, tmp_path / "out")
    argv = ["run", *fixture_args(data_dir, out)]
    bad, reason = out, "[^\n]+"
    if case == "artifact_is_a_directory":
        bad, reason = out / "normalized.csv", "Is a directory"
    elif case == "pca_artifact_is_a_directory":
        assert console("normalize", *fixture_args(data_dir, out))[0] == 0
        argv = ["pca", "--normalized", str(out / "normalized.csv"),
                "--meta", str(data_dir / "indicators.csv"), "--out", str(out)]
        bad, reason = out / "correlation.csv", "Is a directory"
    if bad != out:
        bad.mkdir(parents=True)
    result = run_cli(*argv)
    assert (result.returncode, result.stdout) == (1, "")
    assert re.fullmatch(rf"error: {re.escape(str(bad))}: cannot write output \({reason}\)\n",
                        result.stderr), result.stderr


def test_every_per_layer_function_runs(data_dir, tmp_path, monkeypatch):
    # a per-layer metric whose function the pipeline stops calling would
    # otherwise show only as a "not measured" line from the benchmark
    names = [name for _, name in _benchmark_spans()]
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(smi.cli, name, counted(name, getattr(smi.cli, name)))
    smi.cli.run(base_config(data_dir, tmp_path))
    assert chain(data_dir, tmp_path / "chained") == [0, 0, 0]
    assert [name for name, count in calls.items() if count == 0] == []


@pytest.mark.parametrize("basis, convention, method", list(itertools.product(
    ["correlation", "covariance"], ["unit", "sqrt_eigenvalue"],
    ["exclusive", "inclusive", "nearest_rank"])))
def test_chained_stages_match_single_run(data_dir, tmp_path, basis, convention, method):
    pca_flags = ["--pca-basis", basis, "--loading-convention", convention]
    score_flags = ["--percentile-method", method]
    single = tmp_path / "single"
    chained = tmp_path / "chained"
    assert _main("run", *fixture_args(data_dir, single), *pca_flags, *score_flags)[0] == 0
    assert chain(data_dir, chained, pca_flags, score_flags) == [0, 0, 0]
    for name in STAGE_FILES:
        assert (chained / name).read_bytes() == (single / name).read_bytes(), name


@pytest.mark.parametrize("case, stage, warning", [
    ("fixture", "pca", "variance target 0.85 not met by the 8 components above "
                       "eigenvalue 1.0; extended to 9 components"),
    ("near_tie", "score", "of the high threshold"),
])
def test_chained_stages_warn_like_single_run(data_dir, tmp_path, case, stage, warning):
    if case == "fixture":
        obs, meta = data_dir / "observations_synthetic.csv", data_dir / "indicators.csv"
    else:
        obs, meta = tmp_path / "observations.csv", tmp_path / "indicators.csv"
        obs.write_text(NEAR_TIE_OBS, encoding="utf-8")
        meta.write_text(META2_POSITIVE, encoding="utf-8")
    out = tmp_path / "out"
    norm = str(out / "normalized.csv")
    _, run_err = _main("run", "--data", str(obs), "--meta", str(meta),
                       "--out", str(tmp_path / "run"))
    errs = {
        "normalize": _main("normalize", "--data", str(obs), "--meta", str(meta), "--out", str(out)),
        "pca": _main("pca", "--normalized", norm, "--meta", str(meta), "--out", str(out)),
        "score": _main("score", "--normalized", norm, "--meta", str(meta),
                       "--loadings", str(out / "loadings.csv"),
                       "--spectrum", str(out / "spectrum.csv"), "--out", str(out)),
    }
    assert [code for code, _ in errs.values()] == [0, 0, 0]
    assert warning in errs[stage][1]
    # the chain has no analysis stage, so it lacks only run's last warning
    no_gini = "warning: no gini file given; every state is unclassified in the scenario table\n"
    assert run_err.endswith(no_gini)
    assert "".join(err for _, err in errs.values()) == run_err[:-len(no_gini)]


# labels csv.writer must quote (a comma and quotes, a newline) and one it
# must leave alone (a leading space, which the loaders strip on reading)
ODD_STATES = ('Jammu, "Kashmir"', "Dadra\nNagar Haveli", " Goa")
ODD_ID = "life,exp"


def _write_like_csv_writer(out, norm, stages, analysis=()) -> None:
    """The CSV artifacts as csv.writer wrote them, cell for cell: the reference writers."""
    corr, spectrum, selection, loadings, weights, ranked = stages
    ids = norm.registry.ids
    fixed = "{:.6f}".format
    total = spectrum.total_variance

    def dump(name, header, rows):
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)

    dump("normalized.csv", ["state", *ids],
         ([state, *row.tolist()] for state, row in zip(norm.states, norm.values)))
    dump("correlation.csv", ["indicator_id", *ids],
         ([ind_id, *map(fixed, row)] for ind_id, row in zip(ids, corr.tolist())))
    dump("spectrum.csv", ["component", "eigenvalue", "explained_variance_ratio", "selected"],
         ([j + 1, value, value / total, int(j < selection.count)]
          for j, value in enumerate(spectrum.eigenvalues.tolist())))
    dump("loadings.csv", ["indicator_id", *(f"PC{j + 1}" for j in range(loadings.shape[1]))],
         ([ind_id, *row] for ind_id, row in zip(ids, loadings.tolist())))
    dump("weights.csv", ["indicator_id", "weight"],
         ([ind_id, fixed(w)] for ind_id, w in zip(ids, weights.tolist())))
    dump("scores.csv", ["state", "smi", "rank", "category"],
         ([s.state, fixed(s.smi), s.rank, s.category.value] for s in ranked))
    if analysis:
        scatter, pillars = analysis
        dump("scatter.csv", ["state", "gini", "smi"],
             ([s, fixed(g), fixed(v)] for s, g, v in scatter))
        dump("pillars.csv", ["state", "pillar", "score", "is_best"],
             ([s, p, fixed(v), str(i == best).lower()]
              for p, (values, best) in pillars.items()
              for i, (s, v) in enumerate(zip(norm.states, values))))


def _run_like_csv_writer(config, old) -> None:
    """run()'s CSV artifacts for config, from the stage helpers and the reference writers."""
    registry = smi.cli.load_indicator_metadata(config.meta)
    _, norm = smi.cli._normalize_stage(smi.cli.load_observations(config.data, registry), config)
    corr, spectrum, selection, loadings = smi.cli._pca_stage(norm, config, [])
    weights, scores, _, ranked = smi.cli._score_stage(
        norm, loadings, spectrum.eigenvalues[:selection.count], config, [])
    gini = smi.cli.load_gini(config.gini) if config.gini else {}
    _, scatter, pillars = smi.cli._analysis_stage(
        norm, weights, scores, ranked, gini, config, [])
    old.mkdir()
    _write_like_csv_writer(old, norm, (corr, spectrum, selection, loadings, weights, ranked),
                           (scatter, pillars))


def _same_files(new, old) -> None:
    names = sorted(path.name for path in old.iterdir())
    assert sorted(path.name for path in new.iterdir() if path.suffix == ".csv") == names
    for name in names:
        assert (new / name).read_bytes() == (old / name).read_bytes(), name


# what a state name is built from: % directives, which a label spliced into
# a row template would consume or rewrite, csv's quoting characters, line
# ends and a leading space
ODD_FRAGMENTS = ("%", "%s", "%%", "%d", ",", '"', "\r\n", "\n", "\r", " ", "")


def _odd_table(seed: int, groups: int) -> tuple[tuple[str, ...], np.ndarray]:
    """3 * groups states named from ODD_FRAGMENTS, by 4 indicators; each group of three rows is
    equal, so its states tie exactly and their ranks fall to name order."""
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, len(ODD_FRAGMENTS), (3 * groups, 2)).tolist()
    # the S%03d core keeps the names unique, also once the loaders strip them
    states = tuple(f"{ODD_FRAGMENTS[a]}S{i:03d}{ODD_FRAGMENTS[b]}"
                   for i, (a, b) in enumerate(picks))
    return states, np.repeat(rng.random((groups, 4)), 3, axis=0)


def _write_stages_both_ways(out, norm) -> None:
    """The stage writers' files against the reference writers', for norm."""
    registry = norm.registry
    config = RunConfig(data="", meta="", out_dir="")
    corr, spectrum, selection, loadings = smi.cli._pca_stage(norm, config, [])
    weights, _, _, ranked = smi.cli._score_stage(
        norm, loadings, spectrum.eigenvalues[:selection.count], config, [])
    new, old = out / "new", out / "old"
    new.mkdir(parents=True)
    old.mkdir()
    write_observations(norm, new / "normalized.csv")
    smi.cli._write_pca_stage(new, registry, corr, spectrum, selection, loadings)
    smi.cli._write_score_stage(new, registry, weights, ranked)
    _write_like_csv_writer(old, norm, (corr, spectrum, selection, loadings, weights, ranked))
    _same_files(new, old)


def test_stage_writers_write_what_csv_writer_wrote(tmp_path):
    ids = (ODD_ID, " lead", 'q"uote', "plain")
    values = np.random.default_rng(3).random((6, 4))
    values[:, 0] = AWKWARD_FLOATS
    _write_stages_both_ways(
        tmp_path / "small", data_matrix(values, ids=ids, states=(*ODD_STATES, "A", "B", "C")))
    states, values = _odd_table(29, 100)
    _write_stages_both_ways(tmp_path / "odd", data_matrix(values, ids=ids, states=states))
    # over 3 indicators normalized.csv and scores.csv are 4 cells wide, so these
    # row counts end a row short of a block, on one, a row past one and past two
    block = _BLOCK_CELLS // 4
    states, values = _odd_table(37, (2 * block + 1) // 3 + 1)
    for n in (block - 1, block, block + 1, 2 * block + 1):
        _write_stages_both_ways(tmp_path / f"rows{n}",
                                data_matrix(values[:n, :3], ids=ids[:3], states=states[:n]))
    # correlation.csv is p + 1 cells wide over p rows: p fills exactly one block, p + 1
    # takes a second
    p = math.isqrt(_BLOCK_CELLS)
    assert _BLOCK_CELLS // (p + 1) == p
    for width in (p, p + 1):
        _write_stages_both_ways(tmp_path / f"wide{width}", data_matrix(
            np.random.default_rng(width).random((5, width)),
            ids=(ODD_ID, *(f"c{j}" for j in range(1, width)))))


@pytest.mark.parametrize("with_gini", [True, False])
def test_run_writes_odd_labels_like_csv_writer(tmp_path, with_gini):
    # with_gini: every other state has a Gini value; without, gini.csv has
    # no row and scatter.csv is its header alone. scores.csv and pillars.csv are
    # 4 cells wide: 240 states put pillars.csv's one pillar boundary inside its
    # first block, a block of states puts it on a block edge and exactly fills
    # scores.csv's block, and one state more puts it a row into the second block
    block = _BLOCK_CELLS // 4
    many_states, many_values = _odd_table(41, block // 3 + 1)
    ids = (ODD_ID, "b", "c", "d")
    for states, values in [_odd_table(31, 80), (many_states[:block], many_values[:block]),
                           (many_states[:block + 1], many_values[:block + 1])]:
        out = tmp_path / str(len(states))
        out.mkdir()
        for name, header, rows in [
            ("indicators.csv", ["indicator_id", "name", "pillar", "direction"],
             ([ind_id, ind_id, PILLARS[j % 2], "positive"] for j, ind_id in enumerate(ids))),
            ("observations.csv", ["state", *ids],
             ([state, *row] for state, row in zip(states, values.tolist()))),
            ("gini.csv", ["state", "gini"],
             ([state, 0.2 + 0.2 * (i % 3)]
              for i, state in enumerate(states[::2] if with_gini else ()))),
        ]:
            with open(out / name, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows([header, *rows])
        config = RunConfig(data=str(out / "observations.csv"), meta=str(out / "indicators.csv"),
                           gini=str(out / "gini.csv"), out_dir=str(out / "run"))
        report = run(config)
        assert len(report["scores"]) == len(states)
        _run_like_csv_writer(config, out / "old")
        _same_files(out / "run", out / "old")
        scatter = (out / "run" / "scatter.csv").read_bytes()
        if with_gini:
            assert b"%%" in scatter and b"%s" in scatter
        else:
            assert scatter == b"state,gini,smi\r\n"


def test_writers_hold_one_block_of_a_large_table(tmp_path, indicators_path):
    """A seeded 3,100 x 31 normalized.csv, and its pillars.csv, write within a 2 MiB traced peak.

    _write_rows holds one block of about _BLOCK_CELLS cells and their text
    at a time (0.6 MiB measured for normalized.csv); pillars.csv's four
    31,000-entry columns bring it to 1.4 MiB. A writer that fills the
    whole file in one % holds all of its text, and every cell as a Python
    object, at once.
    """
    registry = load_indicator_metadata(indicators_path)
    rng = np.random.default_rng(1)
    norm = DataMatrix(tuple(f"County {i:04d}" for i in range(1, 3101)),
                      rng.random((3100, len(registry))), registry)
    pillars = pillar_scores(norm, rng.random(len(registry)))
    assert len(pillars) == len(PILLARS)
    for name, write in (
            ("normalized.csv", lambda: write_observations(norm, tmp_path / "normalized.csv")),
            ("pillars.csv", lambda: smi.cli._write_analysis_stage(
                tmp_path, norm.states, {}, [], pillars))):
        tracemalloc.start()
        try:
            write()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = 3100 * (1 if name == "normalized.csv" else len(pillars))
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            assert sum(1 for _ in fh) == 1 + rows
        assert peak <= 2 * 2**20, f"{name}: traced peak {peak / 2**20:.2f} MiB"


def test_run_writes_what_csv_writer_wrote_and_the_chain_reads_labels_back(data_dir, tmp_path):
    # the fixture with two states renamed and one indicator id holding a comma
    states = ODD_STATES[:2]
    renamed = {"Assam": states[0], "Bihar": states[1], "life_exp": ODD_ID}
    for name in ("observations_synthetic.csv", "indicators.csv", "gini.csv"):
        with open(data_dir / name, newline="", encoding="utf-8") as fh:
            rows = [[renamed.get(cell, cell) for cell in row] for row in csv.reader(fh)]
        with open(tmp_path / name, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
    config = base_config(tmp_path, tmp_path, out_dir=str(tmp_path / "run"))
    run(config)
    _run_like_csv_writer(config, tmp_path / "old")
    _same_files(tmp_path / "run", tmp_path / "old")

    chained = tmp_path / "chained"
    assert chain(tmp_path, chained) == [0, 0, 0]
    for name in STAGE_FILES:
        assert (chained / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name
    with open(chained / "scores.csv", newline="", encoding="utf-8") as fh:
        assert set(states) <= {row[0] for row in csv.reader(fh)}
    with open(chained / "weights.csv", newline="", encoding="utf-8") as fh:
        assert ODD_ID in {row[0] for row in csv.reader(fh)}


def test_run_pillars_csv_with_a_tie_and_a_zero_weight_pillar(tmp_path, monkeypatch):
    # Zeta and Alpha tie for the best Health sub-score, and Fair Wages'
    # weights are zeroed where the pipeline computes them
    meta = tmp_path / "indicators.csv"
    meta.write_text(META3 + "fw,Fair wage share,Fair Wages,positive\n", encoding="utf-8")
    obs = tmp_path / "observations.csv"
    obs.write_text(
        "state,le,abr,mys,fw\n"
        "Zeta,80,10,6,0.4\n"
        '"Jammu, ""Kashmir""",70,30,9,0.9\n'
        "Alpha,80,10,4,0.1\n"
        "Mid,75,20,8,0.6\n", encoding="utf-8")
    compute = smi.cli.compute_weights

    def zero_fair_wages(loadings, eigenvalues):
        weights = compute(loadings, eigenvalues)
        weights[3] = 0.0
        return weights

    monkeypatch.setattr(smi.cli, "compute_weights", zero_fair_wages)
    config = RunConfig(data=str(obs), meta=str(meta), out_dir=str(tmp_path / "run"))
    warnings = run(config)["warnings"]
    assert warnings.count("pillar 'Fair Wages' has zero total weight; no sub-scores emitted") == 1
    _run_like_csv_writer(config, tmp_path / "old")
    _same_files(tmp_path / "run", tmp_path / "old")
    with open(tmp_path / "run" / "pillars.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["pillar"] for r in rows] == ["Health"] * 4 + ["Education Access"] * 4
    assert [(r["state"], r["pillar"]) for r in rows if r["is_best"] == "true"] == [
        ("Alpha", "Health"), ('Jammu, "Kashmir"', "Education Access")]
    health = {r["state"]: r["score"] for r in rows if r["pillar"] == "Health"}
    assert health["Zeta"] == health["Alpha"] == "1.000000"


def test_field_quotes_like_csv_writer():
    mismatched = []
    for cp in [*range(0x3000), 0x85, 0x2028, 0x2029, 0xFEFF]:
        ch = chr(cp)
        for text in (ch, f"ab{ch}cd", f" {ch} "):
            buf = io.StringIO()
            csv.writer(buf).writerow([text, "x"])
            if _field(text) + ",x\r\n" != buf.getvalue():
                mismatched.append((hex(cp), text))
    assert mismatched == []


# the artifacts whose bytes do not depend on the BLAS build, and for each
# basis-convention-method flag combination on the fixture (and once more
# without --gini) the first 16 hex digits of their sha256, in that order;
# a refactor keeps every one of these bytes
ARTIFACTS = ("normalized.csv", "correlation.csv", "weights.csv", "scores.csv",
             "scenarios.json", "scatter.csv", "pillars.csv")
FIXTURE_DIGESTS = {
    "correlation-unit-exclusive":
        "7dff717420b12530 d7208aff65bc7c1c fb55af49e3c156e8 6d856e3c9ce77856 "
        "c50c0e1cd18334ef 3e546105942745ba 966521c8a8712c5e",
    "correlation-unit-inclusive":
        "7dff717420b12530 d7208aff65bc7c1c fb55af49e3c156e8 9d91e8278fe1e41a "
        "b13e06128097039c 3e546105942745ba 966521c8a8712c5e",
    "correlation-unit-nearest_rank":
        "7dff717420b12530 d7208aff65bc7c1c fb55af49e3c156e8 c942434c35ed9f41 "
        "ce1fd90c05016083 3e546105942745ba 966521c8a8712c5e",
    "correlation-sqrt_eigenvalue-exclusive":
        "7dff717420b12530 d7208aff65bc7c1c 3deaa08760e2692c bd5ccc154f66bf31 "
        "c50c0e1cd18334ef c0601e0923ead893 44987d68c24fe36f",
    "correlation-sqrt_eigenvalue-inclusive":
        "7dff717420b12530 d7208aff65bc7c1c 3deaa08760e2692c 01f34acf2bc92524 "
        "b13e06128097039c c0601e0923ead893 44987d68c24fe36f",
    "correlation-sqrt_eigenvalue-nearest_rank":
        "7dff717420b12530 d7208aff65bc7c1c 3deaa08760e2692c 15ca06d154c36f44 "
        "ce1fd90c05016083 c0601e0923ead893 44987d68c24fe36f",
    "covariance-unit-exclusive":
        "7dff717420b12530 b745c26c0220b38e f3cc94877fc02ed3 536a8e2e2fa74874 "
        "c50c0e1cd18334ef a538ea83e9be57ca 04a4a1fe7512ddb9",
    "covariance-unit-inclusive":
        "7dff717420b12530 b745c26c0220b38e f3cc94877fc02ed3 711a8f7b303e2006 "
        "b13e06128097039c a538ea83e9be57ca 04a4a1fe7512ddb9",
    "covariance-unit-nearest_rank":
        "7dff717420b12530 b745c26c0220b38e f3cc94877fc02ed3 ec73315f7dd321b7 "
        "ce1fd90c05016083 a538ea83e9be57ca 04a4a1fe7512ddb9",
    "covariance-sqrt_eigenvalue-exclusive":
        "7dff717420b12530 b745c26c0220b38e fefada8f01e02543 9f3ea32907f2927d "
        "c50c0e1cd18334ef 81ca62ca3f74959d f358898aadc9975b",
    "covariance-sqrt_eigenvalue-inclusive":
        "7dff717420b12530 b745c26c0220b38e fefada8f01e02543 f9deeed27a9903e9 "
        "b13e06128097039c 81ca62ca3f74959d f358898aadc9975b",
    "covariance-sqrt_eigenvalue-nearest_rank":
        "7dff717420b12530 b745c26c0220b38e fefada8f01e02543 8b1adabe536f8607 "
        "ce1fd90c05016083 81ca62ca3f74959d f358898aadc9975b",
    "correlation-unit-exclusive-no_gini":
        "7dff717420b12530 d7208aff65bc7c1c fb55af49e3c156e8 6d856e3c9ce77856 "
        "0a73fd88e51e99a0 8b7ec25c892c9b80 966521c8a8712c5e",
}


def _assert_fixture_digests(data_dir, tmp_path, case) -> None:
    """Run the fixture under case's flags into tmp_path/out; ARTIFACTS keep case's digests."""
    basis, convention, method, *no_gini = case.split("-")
    run(base_config(data_dir, tmp_path, gini=None if no_gini else str(data_dir / "gini.csv"),
                    pca_basis=Basis(basis), loading_convention=LoadingConvention(convention),
                    percentile_method=PercentileMethod(method)))
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()[:16]
               for name in ARTIFACTS}
    assert digests == dict(zip(ARTIFACTS, FIXTURE_DIGESTS[case].split())), case


@pytest.mark.parametrize("case", list(FIXTURE_DIGESTS))
def test_fixture_artifacts_keep_their_bytes(data_dir, tmp_path, case):
    _assert_fixture_digests(data_dir, tmp_path, case)


@pytest.mark.parametrize("eps, seed", [(1e-15, 0), (1e-15, 1), (1e-13, 0), (1e-13, 1)])
def test_fixture_bytes_survive_another_builds_eigenvectors(data_dir, tmp_path, monkeypatch,
                                                           eps, seed):
    emulate_another_build(monkeypatch, eps, seed)
    _assert_fixture_digests(data_dir, tmp_path, "correlation-unit-exclusive")


@pytest.mark.parametrize("driver", ["evd", "ev", "evr", "evx"])
def test_fixture_bytes_survive_real_lapack_drivers(data_dir, tmp_path, monkeypatch, driver):
    # LAPACK's symmetric eigensolvers as other builds may run them: divide and
    # conquer (numpy's own), QR, MRRR and bisection; each case's spectrum.csv
    # and loadings.csv may change, its 6-decimal artifacts may not
    linalg = pytest.importorskip("scipy.linalg")
    run(base_config(data_dir, tmp_path / "numpy"))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: linalg.eigh(a, driver=driver))
    for case in FIXTURE_DIGESTS:
        _assert_fixture_digests(data_dir, tmp_path / case, case)
    if driver == "ev":
        # QR moves the eigenvalues' last bits, so the solver really was swapped
        spectrum = "correlation-unit-exclusive/out/spectrum.csv"
        assert (tmp_path / spectrum).read_bytes() != (
            tmp_path / "numpy" / "out" / "spectrum.csv").read_bytes()


def test_artifacts_keep_their_bytes_across_blas_thread_counts(tmp_path):
    # OpenBLAS splits eigh and V^T A V by its thread count, which defaults to
    # the core count; at 130 indicators that can move the last bits of
    # spectrum.csv and loadings.csv, but never of the artifacts README
    # promises across thread counts
    rng = np.random.default_rng(26)
    n, p = 40, 130
    latent = rng.normal(0.0, 1.0, n)
    strength = rng.uniform(0.45, 0.85, p)
    z = latent[:, None] * strength + rng.normal(0.0, 1.0, (n, p)) * np.sqrt(1.0 - strength**2)
    matrix = data_matrix(rng.uniform(20.0, 80.0, p) + rng.uniform(5.0, 20.0, p) * z,
                         pillars=PILLARS)
    write_observations(matrix, tmp_path / "observations.csv")
    (tmp_path / "indicators.csv").write_text(
        "indicator_id,name,pillar,direction\n"
        + "".join(f"{s.id},{s.name},{s.pillar},positive\n" for s in matrix.registry),
        encoding="utf-8")
    gini = np.clip(0.30 - 0.04 * latent + rng.normal(0.0, 0.03, n), 0.15, 0.60)
    (tmp_path / "gini.csv").write_text(
        "state,gini\n" + "".join(f"{s},{g:.3f}\n" for s, g in zip(matrix.states, gini)),
        encoding="utf-8")
    for threads in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "smi", "run", "--data", str(tmp_path / "observations.csv"),
             "--meta", str(tmp_path / "indicators.csv"), "--gini", str(tmp_path / "gini.csv"),
             "--out", str(tmp_path / threads)],
            capture_output=True, text=True,
            env={**os.environ, "SMI_NO_COLOR": "1", "OPENBLAS_NUM_THREADS": threads})
        assert result.returncode == 0, result.stderr
    for name in ARTIFACTS:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_eigenvectors_too_far_from_this_builds_exit_two_writing_nothing(data_dir, tmp_path,
                                                                        monkeypatch):
    out = tmp_path / "out"
    meta = str(data_dir / "indicators.csv")
    assert _main("normalize", *fixture_args(data_dir, out))[0] == 0
    normalized = (out / "normalized.csv").read_bytes()
    emulate_another_build(monkeypatch, 1e-11, 0)
    code, stdout, stderr = console("pca", "--normalized", str(out / "normalized.csv"),
                                   "--meta", meta, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert re.fullmatch(r"numerical failure: eigendecomposition not certified: off-diagonal "
                        r"norm of V\^T A V is not below \S+ \(residual \S+\)\n", stderr), stderr
    assert [p.name for p in out.iterdir()] == ["normalized.csv"]
    assert (out / "normalized.csv").read_bytes() == normalized
    code, stdout, stderr = console("run", *fixture_args(data_dir, tmp_path / "run"))
    assert (code, stdout) == (2, "") and stderr.startswith("numerical failure: ")
    assert list((tmp_path / "run").iterdir()) == []
