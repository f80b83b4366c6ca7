"""Pipeline orchestration and the smi command line.

One pipeline of four stages serves every command: normalize (validate,
rescale), pca (correlate, eigendecompose, select, load), score (weight,
score, cut, rank) and analysis (cross-tabulate, pair with Gini, split by
pillar). Each stage has one helper that appends the stage's warnings to
the list it is given, and the first three stages have one writer for
their handoff files. `smi run` composes all four and dumps every stage
artifact plus report.json. The normalize/pca/score subcommands read the
previous stage's handoff files and call the same helper and writer, so
chaining them reproduces the single-run outputs byte for byte (handoff
files carry full float precision; presentation dumps are rounded to 6
decimals), and one `_warn` prints the same warning lines for every
command. Every command builds one RunConfig, whose field defaults are
the flag defaults, and validates it before any work.

Exit codes: 0 success, 1 invalid input or configuration or an output
that cannot be written, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    DEFAULT_GINI_THRESHOLD,
    inequality_classes,
    pillar_scores,
    scatter_data,
    scenario_table,
)
from .dataset import (
    DataMatrix,
    GiniTable,
    IndicatorRegistry,
    _INDICATOR_KEY,
    _field,
    _read_table,
    _write_rows,
    load_gini,
    load_indicator_metadata,
    load_observations,
    validate_matrix,
    write_observations,
)
from .errors import InputError, NumericalError
from .normalize import load_normalized, normalize_matrix
from .pca import (
    Basis,
    ComponentSelection,
    LoadingConvention,
    Spectrum,
    correlation_matrix,
    eigendecompose,
    loading_matrix,
    select_components,
)
from .scoring import (
    PSD_SLACK,
    PercentileMethod,
    StateScore,
    composite_index,
    compute_weights,
    state_scores,
    thresholds_from_scores,
)

PRESENTATION_DECIMALS = 6
BOUNDARY_WARNING_MARGIN = 1e-3


@dataclass
class RunConfig:
    """Everything a run needs: file paths plus every methodological knob.

    For the pca and score subcommands, data is the normalized.csv handoff.
    """

    data: str
    meta: str
    out_dir: str
    gini: str | None = None
    eigen_threshold: float = 1.0
    variance_target: float = 0.85
    percentile_method: PercentileMethod = PercentileMethod.EXCLUSIVE
    low_percentile: float = 25.0
    high_percentile: float = 75.0
    gini_threshold: float = DEFAULT_GINI_THRESHOLD
    pca_basis: Basis = Basis.CORRELATION
    loading_convention: LoadingConvention = LoadingConvention.UNIT_EIGENVECTOR

    def validate(self) -> None:
        problems = []
        if not (0.0 < self.low_percentile < self.high_percentile < 100.0):
            problems.append(
                "percentiles must satisfy 0 < low < high < 100, got "
                f"low={self.low_percentile} high={self.high_percentile}")
        if not math.isfinite(self.eigen_threshold):
            problems.append(f"eigen threshold must be finite, got {self.eigen_threshold}")
        elif self.eigen_threshold < 0.0:
            problems.append(f"eigen threshold must be non-negative, got {self.eigen_threshold}")
        if not (0.0 < self.variance_target <= 1.0):
            problems.append(f"variance target must lie in (0, 1], got {self.variance_target}")
        if not (0.0 <= self.gini_threshold <= 1.0):
            problems.append(f"gini threshold must lie in [0, 1], got {self.gini_threshold}")
        if problems:
            raise InputError(problems)

    def as_dict(self) -> dict:
        """The paths first, then every knob in field order, enums by value."""
        out = {name: getattr(self, name) for name in ("data", "meta", "gini", "out_dir")}
        for f in fields(self):
            value = getattr(self, f.name)
            out.setdefault(f.name, value.value if isinstance(value, Enum) else value)
        return out


# the text of one presentation cell; a row of them is one % on a joined format
_FIXED = f"%.{PRESENTATION_DECIMALS}f"


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, ensure_ascii=False)
        fh.write("\n")


def write_correlation(path: Path, matrix: np.ndarray, ids) -> None:
    line = ",".join([_FIXED] * matrix.shape[1])
    _write_rows(path, ["indicator_id", *ids],
                (_field(ind_id) + "," + line % tuple(row)
                 for ind_id, row in zip(ids, matrix.tolist())))


SPECTRUM_HEADER = ["component", "eigenvalue", "explained_variance_ratio", "selected"]


def write_spectrum(path: Path, spectrum: Spectrum, selection: ComponentSelection) -> None:
    total = spectrum.total_variance
    k = selection.count
    _write_rows(path, SPECTRUM_HEADER,
                (f"{j + 1},{value!r},{value / total!r},{int(j < k)}"
                 for j, value in enumerate(spectrum.eigenvalues.tolist())))


def read_spectrum(path: Path, registry: IndicatorRegistry) -> list[float]:
    """The selected eigenvalues of a spectrum.csv, as the pca stage writes it.

    Under SPECTRUM_HEADER, the rows must be components 1..p in file order,
    one per registry indicator, with finite numbers; the rows flagged
    selected (non-zero) must be a non-empty leading prefix PC1..PCk, and
    their eigenvalues no further below zero than scoring.PSD_SLACK.
    """
    names, table = _read_table(path, SPECTRUM_HEADER, ("component", "component"))
    # Python floats, so that messages show an eigenvalue as 0.5, not np.float64(0.5)
    values = table.tolist()
    if len(values) != len(registry):
        raise InputError(
            f"{len(values)} eigenvalues for a registry of {len(registry)} indicators", path)
    if names != [str(j + 1) for j in range(len(values))]:
        raise InputError(f"components must be 1..{len(values)} in file order", path)
    selected = [j for j, (_, _, flag) in enumerate(values) if flag]
    if not selected or selected != list(range(len(selected))):
        raise InputError(
            "selected components must be a leading prefix PC1..PCk, got "
            + (", ".join(f"PC{j + 1}" for j in selected) or "none"), path)
    eigenvalues = [eigenvalue for eigenvalue, _, _ in values[:len(selected)]]
    negative = [f"row {j + 2}: eigenvalue {e!r} of PC{j + 1} is negative beyond round-off"
                for j, e in enumerate(eigenvalues) if e < -PSD_SLACK]
    if negative:
        raise InputError(negative, path)
    return eigenvalues


def _loadings_header(k: int) -> list[str]:
    """The header of a loadings.csv of k components: indicator_id,PC1..PCk."""
    return ["indicator_id", *(f"PC{j + 1}" for j in range(k))]


def write_loadings(path: Path, loadings: np.ndarray, ids) -> None:
    _write_rows(path, _loadings_header(loadings.shape[1]),
                (_field(ind_id) + "," + ",".join(map(repr, row))
                 for ind_id, row in zip(ids, loadings.tolist())))


def read_loadings(path: Path, registry: IndicatorRegistry, k: int) -> np.ndarray:
    """The p x k loadings of a loadings.csv, one finite row per registry indicator in order.

    The header must be _loadings_header(k), for the k components the spectrum selected.
    """
    names, values = _read_table(path, _loadings_header(k), _INDICATOR_KEY)
    if tuple(names) != registry.ids:
        raise InputError("indicator rows do not match the registry", path)
    return values


def write_weights(path: Path, weights: np.ndarray, ids) -> None:
    _write_rows(path, ["indicator_id", "weight"],
                (_field(ind_id) + "," + _FIXED % w for ind_id, w in zip(ids, weights.tolist())))


def write_scores(path: Path, scores: list[StateScore]) -> None:
    _write_rows(path, ["state", "smi", "rank", "category"],
                (f"{_field(s.state)},{_FIXED % s.smi},{s.rank},{s.category.value}"
                 for s in scores))


def _prepare(config: RunConfig) -> tuple[Path, IndicatorRegistry]:
    """Check the config, make the output directory, load the indicator registry."""
    config.validate()
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, load_indicator_metadata(config.meta)


def _normalize_stage(matrix: DataMatrix, config: RunConfig):
    """Validate and min-max rescale config.data's observations: (column ranges, rescaled)."""
    return validate_matrix(matrix, config.data), normalize_matrix(matrix)


def _pca_stage(norm: DataMatrix, config: RunConfig, warnings: list[str]):
    """Correlate, eigendecompose, select components, load: (corr, spectrum, selection, loadings).

    Warns when the variance target extended the selection; column errors name config.data.
    """
    corr = correlation_matrix(norm, basis=config.pca_basis, path=config.data)
    spectrum = eigendecompose(corr)
    selection = select_components(spectrum, config.eigen_threshold, config.variance_target)
    if selection.extended:
        warnings.append(
            f"variance target {config.variance_target} not met by the "
            f"{selection.threshold_count} components above eigenvalue "
            f"{config.eigen_threshold}; extended to {selection.count} components")
    return corr, spectrum, selection, loading_matrix(spectrum, selection, config.loading_convention)


def _score_stage(norm: DataMatrix, loadings: np.ndarray, eigenvalues, config: RunConfig,
                 warnings: list[str]):
    """Weight by the selected eigenvalues, score, cut, rank: (weights, scores, thresholds, ranked).

    Warns for each state that scores near a category cutoff.
    """
    weights = compute_weights(loadings, eigenvalues)
    scores = composite_index(norm, weights)
    thresholds = thresholds_from_scores(
        scores, config.low_percentile, config.high_percentile, config.percentile_method)
    ranked = state_scores(scores, thresholds)
    for entry in ranked:
        for name, cut in (("low", thresholds.t_low), ("high", thresholds.t_high)):
            if abs(entry.smi - cut) < BOUNDARY_WARNING_MARGIN:
                warnings.append(
                    f"{entry.state} scores within {BOUNDARY_WARNING_MARGIN} of the "
                    f"{name} threshold ({entry.smi:.6f} vs {cut:.6f}); its category is sensitive "
                    "to score rounding")
    return weights, scores, thresholds, ranked


def _analysis_stage(norm: DataMatrix, weights: np.ndarray, scores: dict[str, float],
                    ranked: list[StateScore], gini: GiniTable, config: RunConfig,
                    warnings: list[str]):
    """Cross-tabulate, pair scores with Gini, split by pillar: (scenarios, scatter, pillars).

    Warns when there is no Gini file, for the states without a Gini
    value, for the Gini rows of states not in the observations, and for
    each pillar that carries no weight.
    """
    if not config.gini:
        warnings.append("no gini file given; every state is unclassified in the scenario table")
    ineq = inequality_classes(norm.states, gini, config.gini_threshold)
    scenarios = scenario_table({s.state: s.category for s in ranked}, ineq, config.gini_threshold)
    if config.gini and scenarios["unclassified"]:
        warnings.append("no gini value for: " + ", ".join(scenarios["unclassified"]))
    unused = [state for state in gini if state not in ineq]
    if unused:
        warnings.append("gini rows for states not in the observations: " + ", ".join(unused))
    pillars = pillar_scores(norm, weights)
    for pillar in dict.fromkeys(spec.pillar for spec in norm.registry):
        if pillar not in pillars:
            warnings.append(f"pillar {pillar!r} has zero total weight; no sub-scores emitted")
    return scenarios, scatter_data(scores, gini), pillars


def _write_pca_stage(out_dir: Path, registry: IndicatorRegistry, corr: np.ndarray,
                     spectrum: Spectrum, selection: ComponentSelection,
                     loadings: np.ndarray) -> None:
    write_correlation(out_dir / "correlation.csv", corr, registry.ids)
    write_spectrum(out_dir / "spectrum.csv", spectrum, selection)
    write_loadings(out_dir / "loadings.csv", loadings, registry.ids)


def _write_score_stage(out_dir: Path, registry: IndicatorRegistry, weights: np.ndarray,
                       ranked: list[StateScore]) -> None:
    write_weights(out_dir / "weights.csv", weights, registry.ids)
    write_scores(out_dir / "scores.csv", ranked)


def run(config: RunConfig) -> dict:
    """Execute the full pipeline, write all stage dumps plus report.json, return the report."""
    started_at = datetime.now(timezone.utc).isoformat()
    # the clock at the start and after each stage, for meta.stages
    ticks = [time.perf_counter_ns()]
    out_dir, registry = _prepare(config)
    matrix = load_observations(config.data, registry)
    gini: GiniTable = load_gini(config.gini) if config.gini else {}
    ticks.append(time.perf_counter_ns())

    # each stage appends its own warnings, so they come out in stage order
    warnings: list[str] = []
    ranges, norm = _normalize_stage(matrix, config)
    ticks.append(time.perf_counter_ns())
    corr, spectrum, selection, loadings = _pca_stage(norm, config, warnings)
    ticks.append(time.perf_counter_ns())
    weights, scores, thresholds, ranked = _score_stage(
        norm, loadings, spectrum.eigenvalues[:selection.count], config, warnings)
    ticks.append(time.perf_counter_ns())
    scenarios, scatter, pillars = _analysis_stage(
        norm, weights, scores, ranked, gini, config, warnings)
    ticks.append(time.perf_counter_ns())

    write_observations(norm, out_dir / "normalized.csv")
    _write_pca_stage(out_dir, registry, corr, spectrum, selection, loadings)
    _write_score_stage(out_dir, registry, weights, ranked)
    _write_json(out_dir / "scenarios.json", scenarios)
    _write_rows(out_dir / "scatter.csv", ["state", "gini", "smi"],
                (f"{_field(s)},{_FIXED % g},{_FIXED % v}" for s, g, v in scatter))
    # pillar by pillar, each state and pillar name quoted once
    quoted = [_field(state) for state in norm.states]
    _write_rows(out_dir / "pillars.csv", ["state", "pillar", "score", "is_best"],
                (f"{state},{name},{_FIXED % v},{'true' if i == best else 'false'}"
                 for pillar, (values, best) in pillars.items() for name in [_field(pillar)]
                 for i, (state, v) in enumerate(zip(quoted, values))))
    # write covers the nine artifacts above: report.json cannot hold its own dump time
    ticks.append(time.perf_counter_ns())

    total_variance = spectrum.total_variance
    # README's "report.json" section documents every key; a key removal or
    # a type change bumps schema_version
    report = {
        "schema_version": 1,
        "config": config.as_dict(),
        "validation": {
            "columns": [{"indicator_id": ind_id, "min": lo, "max": hi}
                        for ind_id, (lo, hi) in ranges.items()],
        },
        "spectrum": {
            "components": [
                {
                    "component": j + 1,
                    "eigenvalue": float(value),
                    "explained_variance_ratio": float(value) / total_variance,
                    "selected": j < selection.count,
                }
                for j, value in enumerate(spectrum.eigenvalues)
            ],
            "trace": total_variance,
            "off_diagonal_norm": spectrum.off_diagonal_norm,
        },
        "selection": {
            "threshold_count": selection.threshold_count,
            "selected_count": selection.count,
            "explained_variance_ratio": selection.explained_variance_ratio,
            "extended": selection.extended,
        },
        "weights": {ind_id: float(w) for ind_id, w in zip(registry.ids, weights)},
        "thresholds": {"t_low": thresholds.t_low, "t_high": thresholds.t_high},
        "scores": [
            {"state": s.state, "smi": s.smi, "rank": s.rank, "category": s.category.value}
            for s in ranked
        ],
        "scenarios": scenarios,
        "warnings": warnings,
        "meta": {
            "engine": f"smi {__version__}",
            "started_at": started_at,
            "elapsed_seconds": (time.perf_counter_ns() - ticks[0]) / 1e9,
            "stages": {name: (end - start) / 1e6 for name, start, end in zip(
                ("load", "normalize", "pca", "score", "analysis", "write"), ticks, ticks[1:])},
        },
    }
    _write_json(out_dir / "report.json", report)
    return report


def _style(text: str, code: str) -> str:
    if os.environ.get("SMI_NO_COLOR") or not sys.stderr.isatty():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _warn(warnings: list[str]) -> None:
    for warning in warnings:
        print(_style(f"warning: {warning}", "33"), file=sys.stderr)


def _print_errors(label: str, exc: Exception) -> None:
    messages = getattr(exc, "errors", None) or [str(exc)]
    for message in messages:
        print(_style(f"{label}: {message}", "31"), file=sys.stderr)


def _config(args) -> RunConfig:
    """The one RunConfig of any command: its flags, RunConfig's defaults for the rest."""
    given = vars(args)
    return RunConfig(**{
        f.name: type(f.default)(given[f.name]) if isinstance(f.default, Enum) else given[f.name]
        for f in fields(RunConfig) if f.name in given
    })


def cmd_run(args) -> int:
    config = _config(args)
    report = run(config)
    n_scores = len(report["scores"])
    sel = report["selection"]
    print(f"scored {n_scores} states; "
          f"{sel['selected_count']} components keep "
          f"{sel['explained_variance_ratio']:.1%} of variance")
    print(f"thresholds: low {report['thresholds']['t_low']:.6f} / "
          f"high {report['thresholds']['t_high']:.6f}")
    _warn(report["warnings"])
    print(f"wrote {Path(config.out_dir) / 'report.json'}")
    return 0


def cmd_normalize(args) -> int:
    config = _config(args)
    out_dir, registry = _prepare(config)
    _, norm = _normalize_stage(load_observations(config.data, registry), config)
    write_observations(norm, out_dir / "normalized.csv")
    print(f"wrote {out_dir / 'normalized.csv'} "
          f"({norm.n_states} states x {norm.n_indicators} indicators)")
    return 0


def cmd_pca(args) -> int:
    config = _config(args)
    out_dir, registry = _prepare(config)
    norm = load_normalized(config.data, registry)
    warnings: list[str] = []
    corr, spectrum, selection, loadings = _pca_stage(norm, config, warnings)
    _write_pca_stage(out_dir, registry, corr, spectrum, selection, loadings)
    print(f"selected {selection.count} of {len(spectrum.eigenvalues)} components "
          f"({selection.explained_variance_ratio:.1%} of variance)")
    _warn(warnings)
    return 0


def cmd_score(args) -> int:
    config = _config(args)
    out_dir, registry = _prepare(config)
    norm = load_normalized(config.data, registry)
    eigenvalues = read_spectrum(Path(args.spectrum), registry)
    loadings = read_loadings(Path(args.loadings), registry, len(eigenvalues))
    warnings: list[str] = []
    weights, _, thresholds, ranked = _score_stage(norm, loadings, eigenvalues, config, warnings)
    _write_score_stage(out_dir, registry, weights, ranked)
    print(f"scored {len(ranked)} states; thresholds low {thresholds.t_low:.6f} / "
          f"high {thresholds.t_high:.6f}")
    _warn(warnings)
    return 0


def _flag(parser, name: str, help: str) -> None:
    """Add --<name> for the RunConfig field of that name, taking its default from RunConfig."""
    default = getattr(RunConfig, name)
    if isinstance(default, Enum):
        kwargs = {"choices": [m.value for m in type(default)], "default": default.value}
    else:
        kwargs = {"type": float, "default": default}
    parser.add_argument("--" + name.replace("_", "-"),
                        help=f"{help} (default %(default)s)", **kwargs)


def _add_pca_flags(parser) -> None:
    _flag(parser, "pca_basis", "matrix handed to the eigensolver")
    _flag(parser, "eigen_threshold", "keep components with eigenvalue above this")
    _flag(parser, "variance_target",
          "minimum explained-variance ratio; extends the selection if unmet")
    _flag(parser, "loading_convention",
          "unit eigenvector entries or sqrt-eigenvalue scaled columns")


def _add_score_flags(parser) -> None:
    _flag(parser, "percentile_method", "sample percentile estimator for the category cutoffs")
    _flag(parser, "low_percentile", "scores below this percentile are Low")
    _flag(parser, "high_percentile", "scores at or above this percentile are High")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The smi argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="smi",
        description="Composite social-mobility index: rescale indicators, weight them by "
                    "principal components, score and categorize states, cross-tabulate "
                    "against inequality.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full pipeline from raw observations to report.json")
    p_run.add_argument("--data", required=True, help="observations.csv")
    p_run.add_argument("--meta", required=True, help="indicators.csv")
    p_run.add_argument("--gini", default=None, help="gini.csv (optional)")
    p_run.add_argument("--out", dest="out_dir", required=True, help="output directory")
    _add_pca_flags(p_run)
    _add_score_flags(p_run)
    _flag(p_run, "gini_threshold", "gini at or above this counts as high inequality")

    p_norm = sub.add_parser("normalize", help="validate and min-max rescale observations")
    p_norm.add_argument("--data", required=True)
    p_norm.add_argument("--meta", required=True)
    p_norm.add_argument("--out", dest="out_dir", required=True)

    p_pca = sub.add_parser("pca", help="correlation, eigendecomposition, component selection")
    p_pca.add_argument("--normalized", dest="data", required=True,
                       help="normalized.csv from the normalize stage")
    p_pca.add_argument("--meta", required=True)
    p_pca.add_argument("--out", dest="out_dir", required=True)
    _add_pca_flags(p_pca)

    p_score = sub.add_parser("score", help="weights, composite index, ranks, categories")
    p_score.add_argument("--normalized", dest="data", required=True)
    p_score.add_argument("--meta", required=True)
    p_score.add_argument("--loadings", required=True, help="loadings.csv from the pca stage")
    p_score.add_argument("--spectrum", required=True, help="spectrum.csv from the pca stage")
    p_score.add_argument("--out", dest="out_dir", required=True)
    _add_score_flags(p_score)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on each call, not stored in the shared parser, so that a
    # rebinding of the module's functions (as a tracer does) takes effect
    command = {"run": cmd_run, "normalize": cmd_normalize, "pca": cmd_pca,
               "score": cmd_score}[args.command]
    try:
        return command(args)
    except InputError as exc:
        _print_errors("error", exc)
        return 1
    except NumericalError as exc:
        _print_errors("numerical failure", exc)
        return 2
    except OSError as exc:
        # _read_rows turns every input's OSError into an InputError, so this
        # is an output that cannot be made or written
        _print_errors("error",
                      InputError(f"cannot write output ({exc.strerror or exc})", exc.filename))
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
