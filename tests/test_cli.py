import contextlib
import csv
import io
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smi.cli
from smi.cli import RunConfig, _style, main, run
from smi.errors import InputError
from smi.scoring import PercentileMethod

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


def run_cli(*args, cwd=None):
    env = {**os.environ, "SMI_NO_COLOR": "1"}
    return subprocess.run([sys.executable, "-m", "smi", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


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
    bad = RunConfig(data="d", meta="m", out_dir="o",
                    low_percentile=80.0, high_percentile=20.0)
    with pytest.raises(InputError, match="low"):
        bad.validate()
    with pytest.raises(InputError, match="variance target"):
        RunConfig(data="d", meta="m", out_dir="o", variance_target=0.0).validate()
    with pytest.raises(InputError, match="eigen threshold"):
        RunConfig(data="d", meta="m", out_dir="o", eigen_threshold=-1.0).validate()
    with pytest.raises(InputError, match="gini threshold"):
        RunConfig(data="d", meta="m", out_dir="o", gini_threshold=1.5).validate()


def test_run_report_structure(data_dir, tmp_path):
    report = run(base_config(data_dir, tmp_path))
    assert list(report) == ["config", "validation", "spectrum", "selection", "weights",
                            "thresholds", "scores", "scenarios", "warnings", "meta"]
    on_disk = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert list(on_disk) == list(report)
    assert len(report["scores"]) == 22
    assert sorted(s["rank"] for s in report["scores"]) == list(range(1, 23))
    assert report["thresholds"]["t_low"] <= report["thresholds"]["t_high"]
    assert len(report["weights"]) == 31
    assert report["validation"]["fatal"] == []
    components = report["spectrum"]["components"]
    assert len(components) == 31
    assert sum(1 for c in components if c["selected"]) == report["selection"]["selected_count"]


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


def test_cli_exit_one_on_bad_percentile_flags(data_dir, tmp_path):
    result = run_cli("run", "--data", str(data_dir / "observations_synthetic.csv"),
                     "--meta", str(data_dir / "indicators.csv"),
                     "--out", str(tmp_path / "out"),
                     "--low-percentile", "80", "--high-percentile", "20")
    assert result.returncode == 1
    assert "percentiles" in result.stderr


def test_cli_exit_one_lists_every_constant_column(tmp_path):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META3, encoding="utf-8")
    obs = tmp_path / "observations.csv"
    obs.write_text(
        "state,le,abr,mys\nA,1,7,6\nB,2,7,6\nC,3,7,6\n", encoding="utf-8")
    result = run_cli("run", "--data", str(obs), "--meta", str(meta),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "'abr' is constant" in result.stderr
    assert "'mys' is constant" in result.stderr


def test_cli_exit_one_on_missing_file(tmp_path):
    result = run_cli("run", "--data", str(tmp_path / "nope.csv"),
                     "--meta", str(tmp_path / "also_nope.csv"),
                     "--out", str(tmp_path / "out"))
    assert result.returncode == 1
    assert "file not found" in result.stderr


@pytest.mark.parametrize("case", ["missing_loadings", "directory_data", "latin1_gini",
                                  "normalized_above_one"])
def test_cli_bad_input_exits_one_naming_the_file(data_dir, tmp_path, case):
    meta = tmp_path / "indicators.csv"
    meta.write_text(META2_POSITIVE, encoding="utf-8")
    norm = tmp_path / "normalized.csv"
    norm.write_text("state,a,b\nA,0.0,1.0\nB,0.5,0.5\nC,1.0,0.0\n", encoding="utf-8")
    stage_args = ["--normalized", str(norm), "--meta", str(meta), "--out", str(tmp_path / "out")]
    run_args = ["run", "--data", str(data_dir / "observations_synthetic.csv"),
                "--meta", str(data_dir / "indicators.csv"), "--out", str(tmp_path / "out")]
    if case == "missing_loadings":
        bad = tmp_path / "missing.csv"
        args = ["score", *stage_args, "--loadings", str(bad), "--spectrum", str(norm)]
    elif case == "directory_data":
        bad = tmp_path / "a_directory"
        bad.mkdir()
        args = [*run_args[:2], str(bad), *run_args[3:]]
    elif case == "latin1_gini":
        bad = tmp_path / "gini.csv"
        bad.write_bytes(b"state,gini\nB\xe9ziers,0.31\n")
        args = [*run_args, "--gini", str(bad)]
    else:
        bad = norm
        bad.write_text("state,a,b\nA,0.0,1.0\nB,1.2,0.5\nC,1.0,0.0\n", encoding="utf-8")
        args = ["pca", *stage_args]
    result = run_cli(*args)
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert re.match(rf"error: (file not found: )?{re.escape(str(bad))}", result.stderr), \
        result.stderr


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
         "run", *_fixture_args(data_dir, out)],
        capture_output=True, text=True, env={**os.environ, "SMI_NO_COLOR": "1"})
    assert result.returncode == 0, result.stderr
    warning = "pillar 'Fair Wages' has zero total weight"
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert sum(warning in w for w in report["warnings"]) == 1
    assert result.stderr.count(warning) == 1
    assert "Fair Wages" not in (out / "pillars.csv").read_text(encoding="utf-8")


def test_benchmark_tracer_sees_every_per_layer_function():
    # the benchmark's tracer times a layer by wrapping the public functions
    # smi.cli names; a per-layer metric whose function smi.cli no longer
    # names, or names from another module, goes unmeasured
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))
    pattern = re.compile(r"(\w+)\.(\w+)\.(?:ms|self_ms)")
    named = [m.groups() for m in map(pattern.fullmatch, (e["name"] for e in spec["per_layer"]))
             if m]
    assert len(named) == 27
    for layer, fn in named:
        value = getattr(smi.cli, fn, None)
        assert inspect.isfunction(value), fn
        assert value.__module__ == f"smi.{layer}", (fn, value.__module__)


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
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def _fixture_args(data_dir, out):
    return ["--data", str(data_dir / "observations_synthetic.csv"),
            "--meta", str(data_dir / "indicators.csv"), "--out", str(out)]


def _chain(data_dir, out, pca_flags=(), score_flags=()) -> list[int]:
    meta = str(data_dir / "indicators.csv")
    norm = str(out / "normalized.csv")
    return [
        _main("normalize", *_fixture_args(data_dir, out))[0],
        _main("pca", "--normalized", norm, "--meta", meta, "--out", str(out), *pca_flags)[0],
        _main("score", "--normalized", norm, "--meta", meta,
              "--loadings", str(out / "loadings.csv"), "--spectrum", str(out / "spectrum.csv"),
              "--out", str(out), *score_flags)[0],
    ]


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
    run_code, run_err = _main("run", *_fixture_args(data_dir, tmp_path / "run"), *flags)
    assert (code, run_code) == (1, 1)
    assert message in err
    assert err == run_err


@pytest.mark.parametrize("edit, message", [
    ("swap_selection", "leading prefix"),
    ("drop_last_row", "31 indicators"),
])
def test_score_rejects_spectrum_not_from_the_pca_stage(data_dir, tmp_path, edit, message):
    stages = tmp_path / "stages"
    assert _chain(data_dir, stages)[:2] == [0, 0]
    spectrum = stages / "spectrum.csv"
    with open(spectrum, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if edit == "swap_selection":
        # PC1 out, PC31 in: the selected count still matches the loading columns
        assert rows[1][3] == "1" and rows[31][3] == "0"
        rows[1][3], rows[31][3] = "0", "1"
    else:
        rows.pop()
    with open(spectrum, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "out"
    code, err = _main("score", "--normalized", str(stages / "normalized.csv"),
                      "--meta", str(data_dir / "indicators.csv"),
                      "--loadings", str(stages / "loadings.csv"), "--spectrum", str(spectrum),
                      "--out", str(out))
    assert code == 1
    assert str(spectrum) in err and message in err
    assert not (out / "weights.csv").exists()


@pytest.mark.parametrize("basis, convention, method", list(itertools.product(
    ["correlation", "covariance"], ["unit", "sqrt_eigenvalue"],
    ["exclusive", "inclusive", "nearest_rank"])))
def test_chained_stages_match_single_run(data_dir, tmp_path, basis, convention, method):
    pca_flags = ["--pca-basis", basis, "--loading-convention", convention]
    score_flags = ["--percentile-method", method]
    single = tmp_path / "single"
    chained = tmp_path / "chained"
    assert _main("run", *_fixture_args(data_dir, single), *pca_flags, *score_flags)[0] == 0
    assert _chain(data_dir, chained, pca_flags, score_flags) == [0, 0, 0]
    for name in ("normalized.csv", "correlation.csv", "spectrum.csv", "loadings.csv",
                 "weights.csv", "scores.csv"):
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
