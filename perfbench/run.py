#!/usr/bin/env python3
"""The smi benchmark: warm, chained and cold runs of the real pipeline.

    python3 perfbench/run.py --workload fixture --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run it from a source checkout: the program is imported from the
checkout's src/ directory and the fixture is read from its data/
directory, so nothing needs installing. Without them it exits 1 and
prints no result.

Load model: a closed loop with one client in one process. Operations run
back to back, each after the previous one has finished, interleaved so
that every kind gets its share of the measuring time:

- warm: `smi.cli.run(config)` in-process, all ten artifacts written;
- chained: `normalize`, `pca`, `score` through `smi.cli.main(argv)`
  in-process, reading the handoff files a single run writes;
- cold: `python -m smi run ...` as a subprocess, timed from spawn to
  exit, one at a time, with SMI_NO_COLOR=1.

Before measuring, the benchmark sets up SETUP_REPEATS fresh interpreters
that each import smi.cli and make the first run (setup_s), then makes an
untimed warm-up run in-process whose artifacts are the reference.

An operation fails if it raises, exits non-zero, or writes artifacts
that differ from the warm-up run's (report.json without its `meta`
block); on `fixture` the rounded outputs must also equal the golden
copy in perfbench/golden/fixture. A failed operation gives no timing.

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports its per-layer metrics from a separate run that wraps the layer
functions smi.cli calls (see spans.py), interleaved with untraced warm
runs so that the tracing overhead can be measured; it also checks each
spectrum against numpy.linalg.eigvalsh. The last line of standard output
is one JSON object: correct, attempted, failed, metrics. Details, with
sample counts, go to perfbench/work/<workload>/result-trace<t>.json, and
traced spans to perfbench/work/<workload>/spans.json.

`--workload all` runs every workload untraced and traced, prints a table
and records it, with the environment, in perfbench/baseline.json.
"""

import os

# The program is single-threaded and the load is one client; one BLAS
# thread per process keeps numpy from starting a thread pool that only
# competes with the measured work on a small machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median, quantiles  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
GOLDEN = HERE / "golden" / "fixture"
SPEC = ROOT / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"

ARTIFACTS = ("normalized.csv", "correlation.csv", "spectrum.csv", "loadings.csv",
             "weights.csv", "scores.csv", "scenarios.json", "scatter.csv", "pillars.csv",
             "report.json")
# what the normalize, pca and score subcommands write
CHAINED_ARTIFACTS = ARTIFACTS[:6]
GOLDEN_ARTIFACTS = ("scores.csv", "weights.csv", "scenarios.json")

SETUP_REPEATS = 5
# share of the measuring time each kind of operation gets
UNTRACED_SHARES = {"warm": 0.4, "chained": 0.3, "cold": 0.3}
TRACED_SHARES = {"warm": 1.0, "traced_warm": 1.0, "traced_chained": 1.0}
SETUP_TIMEOUT_S = 120
# the Jacobi spectrum must match LAPACK's to this, relative to the largest eigenvalue
SPECTRUM_TOL = 1e-9

SETUP_CODE = """\
import json, sys, time
t0 = time.perf_counter()
import smi.cli
t1 = time.perf_counter()
smi.cli.run(smi.cli.RunConfig(data=sys.argv[1], meta=sys.argv[2], gini=sys.argv[3],
                              out_dir=sys.argv[4]))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "setup_s": t2 - t0}))
"""

# Which end-to-end metrics each per-layer metric should move, and on which
# workload it is expected to matter. Written down before measuring.
LAYER_MAP = [
    {"layer": ["pca.eigendecompose.ms", "pca.eigendecompose.sweeps"],
     "moves": ["run_ms.p50", "runs_per_s", "chained_ms.p50"],
     "on": "wide, fixture (not counties)"},
    {"layer": ["pca.correlation_matrix.ms"], "moves": ["run_ms.p50"], "on": "counties, wide"},
    {"layer": ["pca.select_components.ms", "pca.loading_matrix.ms"], "moves": ["run_ms.p50"],
     "on": "none expected; kept as guards"},
    {"layer": ["dataset.load_indicator_metadata.ms", "dataset.load_observations.ms",
               "dataset.load_gini.ms", "dataset.validate_matrix.ms", "dataset.bytes_in"],
     "moves": ["run_ms.p50", "cold_run_s.p50"], "on": "counties (not wide)"},
    {"layer": ["dataset.write_observations.ms", "cli.write_correlation.ms",
               "cli.write_spectrum.ms", "cli.write_loadings.ms", "cli.write_weights.ms",
               "cli.write_scores.ms", "cli.run.self_ms", "cli.bytes_out"],
     "moves": ["run_ms.p50"], "on": "counties (not wide)"},
    {"layer": ["normalize.normalize_matrix.ms"], "moves": ["run_ms.p50"], "on": "counties"},
    {"layer": ["normalize.load_normalized.ms", "cli.read_loadings.ms", "cli.read_spectrum.ms"],
     "moves": ["chained_ms.p50"], "on": "counties"},
    {"layer": ["scoring.compute_weights.ms", "scoring.composite_index.ms",
               "scoring.thresholds_from_scores.ms", "scoring.state_scores.ms"],
     "moves": ["run_ms.p50"], "on": "counties (weights: wide)"},
    {"layer": ["analysis.pillar_scores.ms", "analysis.inequality_classes.ms",
               "analysis.scenario_table.ms", "analysis.scatter_data.ms"],
     "moves": ["run_ms.p50"], "on": "counties"},
    {"layer": ["cli.import_s"], "moves": ["cold_run_s.p50", "setup_s"],
     "on": "fixture (small share on counties)"},
    {"layer": ["dataset.total_ms", "normalize.total_ms", "pca.total_ms", "scoring.total_ms",
               "analysis.total_ms", "cli.total_ms", "trace.overhead_ms"],
     "moves": [], "on": "roll-ups, all workloads"},
]
LAYERS = ("dataset", "normalize", "pca", "scoring", "analysis", "cli")
# per-layer metrics that are counts recorded at a span boundary
COUNTS = ("pca.eigendecompose.sweeps", "dataset.bytes_in", "cli.bytes_out")
LOADERS = ("dataset.load_indicator_metadata", "dataset.load_observations", "dataset.load_gini")


class BenchError(Exception):
    """The benchmark cannot go on: no source tree, or set-up or warm-up failed."""


def require_source() -> None:
    if not (SRC / "smi" / "cli.py").is_file() or not (ROOT / "data" / "indicators.csv").is_file():
        raise BenchError(f"no smi source tree at {ROOT} (need src/smi and data/)")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, one client, one process; cold runs are sequential "
                "subprocesses with SMI_NO_COLOR=1",
    }


def snapshot(out_dir: Path, names) -> dict:
    """Artifact contents by name; report.json parsed, without its meta block."""
    snap = {}
    for name in names:
        raw = (out_dir / name).read_bytes()
        if name == "report.json":
            report = json.loads(raw)
            report.pop("meta", None)
            snap[name] = report
        else:
            snap[name] = raw
    return snap


def clear(out_dir: Path) -> None:
    # a missing artifact must fail the check, not be matched by a stale copy
    for name in ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)


class Bench:
    """One workload's inputs, reference artifacts and measurements."""

    def __init__(self, workload: str, data, work: Path) -> None:
        self.workload = workload
        self.data = data
        self.work = work
        self.run_dir = work / "run"
        self.chain_dir = work / "chain"
        self.paths = [str(data.data), str(data.meta), str(data.gini)]
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        self.env = {**os.environ, "PYTHONPATH": pythonpath, "SMI_NO_COLOR": "1"}
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ok_ops: dict[str, list[int]] = defaultdict(list)
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.golden_problems: list[str] = []
        self.tracer = None

    # -- set-up ---------------------------------------------------------

    def setup(self) -> None:
        """Fresh interpreters: import smi.cli, then the first run()."""
        for _ in range(SETUP_REPEATS):
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE, *self.paths, str(self.work / "setup")],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=SETUP_TIMEOUT_S, check=False)
            if proc.returncode != 0:
                raise BenchError(f"set-up run exited {proc.returncode}: {proc.stderr[-800:]}")
            times = json.loads(proc.stdout.splitlines()[-1])
            self.samples["setup"].append(times["setup_s"])
            self.samples["import"].append(times["import_s"])

    def warm_up(self) -> None:
        import smi.cli

        self.cli = smi.cli
        self.config = smi.cli.RunConfig(data=self.paths[0], meta=self.paths[1],
                                        gini=self.paths[2], out_dir=str(self.run_dir))
        try:
            self.cli.run(self.config)
            self.reference = snapshot(self.run_dir, ARTIFACTS)
        except Exception as exc:
            raise BenchError(f"warm-up run failed: {type(exc).__name__}: {exc}") from exc
        if self.workload == "fixture":
            self.golden_problems = [
                f"{name} differs from the golden copy" for name in GOLDEN_ARTIFACTS
                if (self.run_dir / name).read_bytes() != (GOLDEN / name).read_bytes()]

    # -- operations -----------------------------------------------------

    def check(self, out_dir: Path, names) -> list[str]:
        got = snapshot(out_dir, names)
        return [f"{name} differs from the warm-up run" for name in names
                if got[name] != self.reference[name]] + self.golden_problems

    def warm(self):
        clear(self.run_dir)
        t0 = time.perf_counter()
        self.cli.run(self.config)
        elapsed = time.perf_counter() - t0
        return {"warm": elapsed}, self.check(self.run_dir, ARTIFACTS)

    def chained(self):
        clear(self.chain_dir)
        data, meta, _ = self.paths
        out = self.chain_dir
        norm = str(out / "normalized.csv")
        argvs = [
            ["normalize", "--data", data, "--meta", meta, "--out", str(out)],
            ["pca", "--normalized", norm, "--meta", meta, "--out", str(out)],
            ["score", "--normalized", norm, "--meta", meta, "--loadings",
             str(out / "loadings.csv"), "--spectrum", str(out / "spectrum.csv"), "--out", str(out)],
        ]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            t0 = time.perf_counter()
            codes = [self.cli.main(argv) for argv in argvs]
            elapsed = time.perf_counter() - t0
        if any(codes):
            return {}, [f"stage exit codes {codes}: {sink.getvalue()[-500:]}"]
        return {"chained": elapsed}, self.check(out, CHAINED_ARTIFACTS)

    def cold(self):
        clear(self.run_dir)
        data, meta, gini = self.paths
        cmd = [sys.executable, "-m", "smi", "run", "--data", data, "--meta", meta,
               "--gini", gini, "--out", str(self.run_dir)]
        err_path = self.work / "cold.stderr"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            return {}, [f"exit code {proc.returncode}: {err_path.read_text()[-500:]}"]
        # ru_maxrss is in KiB on Linux
        return ({"cold": elapsed, "cold_rss_mb": usage.ru_maxrss / 1024},
                self.check(self.run_dir, ARTIFACTS))

    def traced(self, op, kind: str):
        self.tracer.begin(op)
        self.tracer.install(self.cli)
        try:
            samples, problems = getattr(self, kind)()
        finally:
            self.tracer.uninstall()
        problems += self.examine_calls(op)
        if kind == "warm":
            self.counts[op]["cli.bytes_out"] = sum(
                (self.run_dir / name).stat().st_size for name in ARTIFACTS)
        return {f"traced_{k}": v for k, v in samples.items()}, problems

    def examine_calls(self, op) -> list[str]:
        """Counts and checks on the calls the tracer watched during one operation."""
        import numpy as np

        problems = []
        for name, args, result in self.tracer.calls:
            if name in LOADERS:
                self.counts[op]["dataset.bytes_in"] += os.path.getsize(args[0])
            elif name == "pca.eigendecompose":
                self.counts[op]["pca.eigendecompose.sweeps"] += result.sweeps
                reference = np.linalg.eigvalsh(np.asarray(args[0], dtype=np.float64))[::-1]
                scale = max(1.0, float(np.max(np.abs(reference))))
                error = float(np.max(np.abs(result.eigenvalues - reference)))
                if error > SPECTRUM_TOL * scale:
                    problems.append(f"spectrum is {error:.3g} from numpy.linalg.eigvalsh")
        return problems

    def attempt(self, kind: str) -> None:
        op = self.attempted
        self.attempted += 1
        try:
            if kind.startswith("traced_"):
                samples, problems = self.traced(op, kind[len("traced_"):])
            else:
                samples, problems = getattr(self, kind)()
        except Exception as exc:  # a failed operation is counted; measuring goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failures.append(f"{kind} #{op}: " + "; ".join(problems))
            return
        for key, value in samples.items():
            self.samples[key].append(value)
        self.ok_ops[kind].append(op)

    def measure(self, shares: dict[str, float], seconds: float) -> None:
        """Interleave operation kinds until `seconds` pass, each near its share of the time."""
        spent = dict.fromkeys(shares, 0.0)
        deadline = time.perf_counter() + seconds
        # every kind runs at least once, however short the measuring time
        while time.perf_counter() < deadline or not all(spent.values()):
            kind = min(shares, key=lambda k: spent[k] / shares[k])
            t0 = time.perf_counter()
            self.attempt(kind)
            spent[kind] += time.perf_counter() - t0

    # -- metrics --------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, int]]:
        """Metric name -> (value, sample count)."""
        s = self.samples
        out = {"setup_s": (median(s["setup"]), len(s["setup"]))}
        if s["warm"]:
            out["run_ms.p50"] = (median(s["warm"]) * 1e3, len(s["warm"]))
            out["runs_per_s"] = (len(s["warm"]) / sum(s["warm"]), len(s["warm"]))
            # the highest percentile with at least ten samples beyond it
            if len(s["warm"]) >= 100:
                out["run_ms.p90"] = (quantiles(s["warm"], n=10)[-1] * 1e3,
                                     len(s["warm"]))
        if s["chained"]:
            out["chained_ms.p50"] = (median(s["chained"]) * 1e3, len(s["chained"]))
        if s["cold"]:
            out["cold_run_s.p50"] = (median(s["cold"]), len(s["cold"]))
            out["cold_peak_rss_mb"] = (median(s["cold_rss_mb"]), len(s["cold_rss_mb"]))
        out["failed_frac"] = (len(self.failures) / max(self.attempted, 1), self.attempted)
        return out

    def per_layer(self) -> dict[str, tuple[float, int]]:
        """Per-layer metric name -> (value, sample count), from the traced operations.

        A layer time is the median over traced warm runs of that span's self
        time; spans that only chained runs make (the handoff readers) come
        from traced chained runs instead.
        """
        warm_ops = self.ok_ops["traced_warm"]
        chained_ops = self.ok_ops["traced_chained"]
        if not warm_ops or not chained_ops:
            return {}
        selfs = self.tracer.self_times()
        in_warm = {name for op in warm_ops for name in selfs[op]}
        out = {}
        for name in {*selfs[warm_ops[0]], *selfs[chained_ops[0]]}:
            ops = warm_ops if name in in_warm else chained_ops
            suffix = ".self_ms" if name == "cli.run" else ".ms"
            out[name + suffix] = (median(selfs[op].get(name, 0.0) for op in ops), len(ops))
        for layer in LAYERS:
            totals = [sum(v for k, v in selfs[op].items() if k.split(".")[0] == layer)
                      for op in warm_ops]
            out[f"{layer}.total_ms"] = (median(totals), len(warm_ops))
        for name in COUNTS:
            out[name] = (median(self.counts[op][name] for op in warm_ops), len(warm_ops))
        out["cli.import_s"] = (median(self.samples["import"]), len(self.samples["import"]))
        out["trace.overhead_ms"] = (
            (median(self.samples["traced_warm"]) - median(self.samples["warm"])) * 1e3,
            min(len(self.samples["traced_warm"]), len(self.samples["warm"])))
        return out


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> int:
    import inputs
    from spans import Tracer

    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, inputs.GENERATORS[workload](ROOT, seed, work), work)
    bench.setup()
    bench.warm_up()
    if trace:
        bench.tracer = Tracer(watch={*LOADERS, "pca.eigendecompose"})
        bench.measure(TRACED_SHARES, seconds)
        bench.tracer.write(work / "spans.json")
        measured = bench.per_layer()
        wanted = spec["per_layer"]
    else:
        bench.measure(UNTRACED_SHARES, seconds)
        measured = bench.end_to_end()
        wanted = spec["end_to_end"]

    # metrics outside BENCHMARK.json are span self times in ms, the p90 and failed_frac
    units = defaultdict(lambda: "ms", {m["name"]: m["unit"]
                                       for m in spec["end_to_end"] + spec["per_layer"]})
    units["failed_frac"] = "ratio"
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    failed = len(bench.failures)
    env = environment()
    print(f"smi benchmark  workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
          f"shape={bench.data.rows}x{bench.data.indicators}")
    print("  " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, n) in sorted(measured.items()):
        print(f"  {name:<38} {value:>14.6g} {units[name]:<6} (n={n})")
    if trace and measured:
        run_ms = median(bench.samples["traced_warm"]) * 1e3
        shares = "  ".join(f"{layer} {measured[f'{layer}.total_ms'][0] / run_ms:.0%}"
                           for layer in LAYERS)
        print(f"  share of a traced warm run: {shares}")
    for message in bench.failures[:10]:
        print(f"  FAILED {message}", file=sys.stderr)
    if missing:
        print(f"  not measured: {', '.join(missing)}", file=sys.stderr)

    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "shape": {"rows": bench.data.rows, "indicators": bench.data.indicators},
        "environment": env, "attempted": bench.attempted, "failed": failed,
        "failures": bench.failures,
        "metrics": {name: {"value": value, "unit": units[name], "samples": n}
                    for name, (value, n) in sorted(measured.items())},
    }
    with open(work / f"result-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in wanted if m["name"] in measured},
    }))
    return 0 if failed == 0 and not missing else 1


def run_all(spec: dict, seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process; record the table."""
    status = 0
    results: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, check=False).returncode
            status = status or code
            with open(WORK / workload / f"result-trace{trace}.json", encoding="utf-8") as fh:
                results.setdefault(workload, {})[f"trace{trace}"] = json.load(fh)

    names = [m["name"] for m in spec["end_to_end"]] + ["run_ms.p90", "failed_frac"]
    print(f"\n{'metric':<26}" + "".join(f"{w:>22}" for w in results))
    for name in names:
        cells = []
        for w in results:
            m = results[w]["trace0"]["metrics"].get(name)
            cells.append(f"{m['value']:>11.4g} {m['unit']:<4}(n={m['samples']})" if m else "-")
        print(f"{name:<26}" + "".join(f"{c:>22}" for c in cells))

    first = next(iter(results.values()))["trace0"]
    baseline = {
        "seed": seed,
        "seconds": seconds,
        "environment": first["environment"],
        "workloads": {w["name"]: {"why": w["why"], "shape": results[w["name"]]["trace0"]["shape"]}
                      for w in spec["workloads"]},
        "layer_map": LAYER_MAP,
        "results": {w: {t: {k: r[k] for k in ("attempted", "failed", "metrics")}
                        for t, r in by_trace.items()}
                    for w, by_trace in results.items()},
    }
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    print(f"wrote {BASELINE.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="fixture, counties, wide, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads(SPEC.read_text(encoding="utf-8"))
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        require_source()
        if args.workload == "all":
            return run_all(spec, args.seed, seconds)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        return run_one(spec, args.workload, args.seed, seconds, bool(args.trace))
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
