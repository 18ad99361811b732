"""The benchmark's measurement loop, metrics and run record; run.py drives it.

One closed-loop client: a single process runs the workload's CLI commands
one at a time, each started only after the previous one exits, and times
each from outside as a child process whose peak RSS comes from its own
rusage. A run writes the workload's inputs from the seed (timed as
set-up), then repeats the workload's command sequence, checking every
output, until the run's seconds have passed; further set-ups between the
first repetitions give ``setup_s`` at least three samples.

The traced run repeats passes of the command sequence, untraced and traced
in alternating order. Traced children run ``cli.main`` in process under
layer wrappers (see tracer.py); the set-up is traced in this process.

Importing this module pins the BLAS thread count in the environment, so
import it before numpy is loaded, with the checkout's src/ on sys.path.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_SETUPS = 3
SHORT_COMMAND_S = 2.0
STARTUP_SAMPLES = 3
COMMAND_TIMEOUT_S = 60.0

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "score_s": "s",
    "evaluate_s": "s",
    "pipeline_s": "s",
    "score_samples_per_s": "1/s",
    "fit_peak_rss_mb": "MB",
    "score_peak_rss_mb": "MB",
}
# Printed in the table, but not in the JSON result: only pipeline-large
# times simulate, and error_rate is the result's failed / attempted.
TABLE_ONLY = {"simulate_s": "s", "simulate_peak_rss_mb": "MB"}

PER_LAYER = {
    "io.parse_vcf.self_s": "s",
    "io.parse_vcf.cells": "count",
    "io.parse_vcf.bytes": "bytes",
    "io.parse_vcf.cells_per_s": "1/s",
    "io.parse_vcf.peak_rss_rise_mb": "MB",
    "io.parse_vcf.useful_ratio": "ratio",
    "io.write_vcf.self_s": "s",
    "io.write_vcf.bytes": "bytes",
    "io.write_vcf.cells_per_s": "1/s",
    "io.report_csv.self_s": "s",
    "io.small_tables.self_s": "s",
    "genotypes.filter_by_panel.self_s": "s",
    "genotypes.align_effect_alleles.self_s": "s",
    "genotypes.fill_missing_mean.self_s": "s",
    "genotypes.fill_missing_mean.cells_filled": "count",
    "pca.standardize.self_s": "s",
    "pca.fit_pca.self_s": "s",
    "pca.fit_pca.threads1.self_s": "s",
    "pca.fit_pca.peak_rss_rise_mb": "MB",
    "pca.fit_pca.flops_computed": "count",
    "pca.fit_pca.kept_ratio": "ratio",
    "pca.project.self_s": "s",
    "pca.model_io.self_s": "s",
    "pca.pca_model_fingerprint.calls": "count",
    "scoring.compute_raw_prs.self_s": "s",
    "adjust.fit_adjustment.self_s": "s",
    "adjust.apply_adjustment.self_s": "s",
    "evaluation.scores_to_report.self_s": "s",
    "evaluation.roc_auc.self_s": "s",
    "evaluation.stratify_by_population.self_s": "s",
    "evaluation.writers.self_s": "s",
    "simulate.generate_cohort.self_s": "s",
    "simulate.write_scenario.self_s": "s",
    "cli.startup_s": "s",
    "cli.fit.self_s": "s",
    "cli.score.self_s": "s",
    "cli.evaluate.self_s": "s",
    "tracing.overhead_s": "s",
}

for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread count is set)

import checker  # noqa: E402
import workloads  # noqa: E402
from prsadjust import io as pio  # noqa: E402
from tracer import Tracer, command_self_times, installed, layer_totals, self_times  # noqa: E402


@dataclass
class CommandRun:
    command: str
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    problems: list[str] = field(default_factory=list)


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures.extend(f"{label}: {p}" for p in problems)
        return not problems


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for name in BLAS_ENV:
        env[name] = str(threads)
    return env


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile above the median that leaves at least
    ten samples beyond it, with its value; None when there is none."""
    p = int(100 * (1 - 10 / len(values))) if len(values) > 20 else 0
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100)[p - 1]


class Bench:
    def __init__(self, spawner, workload, seed: int, seconds: float, work: Path):
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.env = child_env(BLAS_THREADS)
        self.ledger = Ledger()
        self.setups: list[float] = []
        self.input_hashes: dict[str, str] | None = None
        self.output_hashes: dict[str, str] = {}
        self.parsed: dict[str, object] = {}
        self.record: dict = {}

    # -- pieces ------------------------------------------------------------

    def run_child(self, argv: list[str], env: dict[str, str], log: Path):
        """Wall time (s), peak RSS (MB) and exit code of one child process."""
        return self.spawner.run(argv, env, ROOT, log, COMMAND_TIMEOUT_S)

    def startup_s(self) -> float:
        argv = [sys.executable, "-c", "import prsadjust.cli"]
        walls = []
        for i in range(STARTUP_SAMPLES):
            wall, _, code = self.run_child(argv, self.env, self.work / f"startup{i}.log")
            if code != 0:
                raise RuntimeError("importing prsadjust.cli failed")
            walls.append(wall)
        return median(walls)

    def setup(self, directory: Path, tracer=None):
        start = time.perf_counter()
        if tracer is None:
            inputs = workloads.setup(self.workload, self.seed, directory)
        else:
            with installed(tracer):
                root = tracer.begin("setup", "setup")
                try:
                    inputs = workloads.setup(self.workload, self.seed, directory)
                finally:
                    tracer.end(root)
        elapsed = time.perf_counter() - start
        hashes = {role: workloads.sha256(path) for role, path in sorted(inputs.files.items())}
        if self.input_hashes is None:
            self.input_hashes = hashes
            self.record["calibration"] = {
                "offsets": [p.offset for p in inputs.scenario.populations],
                "bmi_base": inputs.scenario.bmi_base,
                "prevalence_train": inputs.prevalence_train,
                "prevalence_test": inputs.prevalence_test,
            }
        problems = [] if hashes == self.input_hashes else ["inputs differ from the first set-up"]
        self.ledger.record(f"setup {directory.name}", problems)
        return inputs, elapsed

    def parse_once(self, path: Path):
        """Parsed VCF for the checker, cached by content hash."""
        digest = workloads.sha256(path)
        if digest not in self.parsed:
            self.parsed[digest] = pio.parse_vcf(path)[0]
        return self.parsed[digest]

    def check(self, command: str, out: Path, files, inputs, rep_dir: Path, split: str) -> list[str]:
        problems = checker.missing_files(command, out)
        if problems:
            return problems
        cohort = inputs.cohort
        expected = cohort.train_matrix() if split == "train" else cohort.test_matrix()
        if command == "simulate":
            for name, matrix in (("train_genotypes", cohort.train_matrix()), ("test_genotypes", cohort.test_matrix())):
                problems += checker.same_matrix(self.parse_once(files[name]), matrix)
            for path in sorted(out.glob("*.*")):
                if path.name == "run_config.txt":  # echoes the output path
                    continue
                digest = workloads.sha256(path)
                if self.output_hashes.setdefault(f"simulate/{path.name}", digest) != digest:
                    problems.append(f"{path.name} differs from the first repetition")
        elif command == "score":
            matrix = self.parse_once(files[f"{split}_genotypes"])
            problems += checker.same_matrix(matrix, expected)
            if not problems:
                problems += checker.check_report(
                    out / "report.csv", matrix, files["weights"], workloads.out_dir(rep_dir, "fit")
                )
        elif command == "evaluate":
            problems += checker.check_metrics(out, expected.n_samples)
            if split == "train":
                problems += checker.check_highrisk_band(out)
        return problems

    def run_commands(self, inputs, rep_dir: Path, traced: bool, label: str,
                     commands=None, threads: int | None = None, split: str = "test",
                     repeat_s: float = 0.0):
        """Run CLI commands in order; stop at the first failed one.

        A command is run again, back to back, until its runs in this call
        add up to ``repeat_s`` seconds, so short commands get more samples.
        """
        env = self.env if threads is None else child_env(threads)
        rep_dir.mkdir(parents=True, exist_ok=True)
        files = workloads.data_files(self.workload, inputs, rep_dir / "simulate")
        runs: list[CommandRun] = []
        for command in commands or self.workload.commands:
            argv = workloads.command_argv(command, files, inputs, rep_dir, split)
            out = workloads.out_dir(rep_dir, command, split)
            if traced:
                spans = rep_dir / f"spans-{out.name}-{label}.json"
                prefix = [sys.executable, str(HERE / "tracer.py"), str(spans),
                          str(self.work / "used_ids.txt"), command, "--"]
            else:
                prefix = [sys.executable, "-m", "prsadjust.cli"]
            spent = 0.0
            while True:
                wall, rss, code = self.run_child(prefix + argv, env, rep_dir / f"{out.name}-{label}.log")
                run = CommandRun(command, wall, rss, code)
                run.problems = [f"exit code {code}"] if code != 0 else self.check(
                    command, out, files, inputs, rep_dir, split
                )
                runs.append(run)
                if not self.ledger.record(f"{label} {out.name}", run.problems):
                    return runs
                spent += wall
                if spent >= repeat_s:
                    break
        return runs

    def in_sample_check(self, inputs, rep_dir: Path) -> None:
        """Score and evaluate the training cohort, untimed, as criterion 06 does."""
        self.run_commands(inputs, rep_dir, False, "in-sample", ("score", "evaluate"), split="train")

    def write_used_ids(self, inputs) -> None:
        (self.work / "used_ids.txt").write_text("\n".join(sorted(inputs.used_ids)) + "\n", encoding="utf-8")

    # -- runs --------------------------------------------------------------

    def extra_setups(self, at_most: int = MIN_SETUPS) -> None:
        """Set up again until there are MIN_SETUPS samples of setup_s, or
        ``at_most`` when that is fewer."""
        while len(self.setups) < min(MIN_SETUPS, at_most) and not self.ledger.failures:
            extra = self.work / f"setup{len(self.setups)}"
            self.setups.append(self.setup(extra)[1])
            shutil.rmtree(extra)
        self.record["setup_s"] = self.setups

    def timed(self) -> dict[str, float]:
        start = time.perf_counter()
        inputs, elapsed = self.setup(self.work / "in")
        self.setups.append(elapsed)
        reps: list[list[CommandRun]] = []
        repeat_s = SHORT_COMMAND_S
        while True:
            rep_start = time.perf_counter()
            rep_dir = self.work / f"rep{len(reps)}"
            reps.append(self.run_commands(inputs, rep_dir, False, f"rep{len(reps)}", repeat_s=repeat_s))
            if self.ledger.failures:
                break
            # Every command gets about as much time per repetition as the
            # slowest single run of the last one, so that a short command's
            # median rests on as many seconds of host load as a long one's.
            repeat_s = max(SHORT_COMMAND_S, *(run.wall_s for run in reps[-1]))
            # Further set-ups go between repetitions, inside the run's time,
            # so that they sample the same stretch of host load.
            self.extra_setups(len(self.setups) + 1)
            # Start another repetition only if its middle, judged by the
            # last one, falls within the run's seconds.
            now = time.perf_counter()
            if now - start + (now - rep_start) / 2 >= self.seconds:
                break
            shutil.rmtree(rep_dir)
        if not self.ledger.failures:
            self.in_sample_check(inputs, rep_dir)
        self.extra_setups()
        self.record["repetitions"] = [[asdict(run) for run in runs] for runs in reps]
        return self.end_to_end(reps)

    def end_to_end(self, reps: list[list[CommandRun]]) -> dict[str, float]:
        metrics = {"setup_s": median(self.setups)}
        samples: dict[str, list[CommandRun]] = {c: [] for c in self.workload.commands}
        for run in (run for runs in reps for run in runs if not run.problems):
            samples[run.command].append(run)
        self.record["samples"] = {c: len(runs) for c, runs in samples.items()}
        if not all(samples.values()):
            return metrics
        for command, runs in samples.items():
            walls = [r.wall_s for r in runs]
            metrics[f"{command}_s"] = median(walls)
            metrics[f"{command}_peak_rss_mb"] = median([r.peak_rss_mb for r in runs])
            tail = tail_percentile(walls)
            if tail is not None:
                self.record.setdefault("tails", {})[f"{command}_s"] = tail
        metrics["pipeline_s"] = sum(metrics[f"{c}_s"] for c in self.workload.commands)
        n_test = len(workloads.POPULATIONS) * self.workload.shape.n_test
        metrics["score_samples_per_s"] = n_test / metrics["score_s"]
        return metrics

    def traced_run(self) -> dict[str, float]:
        start = time.perf_counter()
        setup_tracer = Tracer("setup")
        inputs, elapsed = self.setup(self.work / "in", setup_tracer)
        self.setups.append(elapsed)
        self.write_used_ids(inputs)
        passes: list[dict[str, float]] = []
        overheads: list[float] = []
        spans_out = list(setup_tracer.spans)
        while True:
            pass_start = time.perf_counter()
            index = len(passes)
            rep_dir = self.work / f"pass{index}"
            walls = {}
            for traced in ((False, True) if index % 2 == 0 else (True, False)):
                label = "traced" if traced else "untraced"
                walls[traced] = self.run_commands(inputs, rep_dir / label, traced, f"pass{index}-{label}")
                self.record.setdefault("walls", []).append(
                    {"pass": index, "traced": traced, **{r.command: r.wall_s for r in walls[traced]}}
                )
            if self.ledger.failures:
                break
            spans = []
            for command in self.workload.commands:
                path = rep_dir / "traced" / f"spans-{command}-pass{index}-traced.json"
                loaded = json.loads(path.read_text(encoding="utf-8"))
                for span in loaded:
                    span["command"] = f"pass{index}/{command}"
                spans.extend(_renumber(loaded, len(spans_out) + len(spans)))
            spans_out.extend(spans)
            passes.append(layer_totals(setup_tracer.spans + spans))
            overheads.append(sum(r.wall_s for r in walls[True]) - sum(r.wall_s for r in walls[False]))
            self.record.setdefault("unaccounted_s", []).append(_unaccounted(spans, walls[True], index))
            # A pass is long, so start one only if it should end in time.
            now = time.perf_counter()
            if now - start + (now - pass_start) > self.seconds:
                break
            shutil.rmtree(rep_dir)
        self.record["samples"] = {"passes": len(passes)}
        self.record["spans"] = spans_out
        metrics: dict[str, float] = {}
        if self.ledger.failures:
            return metrics
        self.in_sample_check(inputs, rep_dir / "untraced")
        threads1 = self.run_commands(inputs, rep_dir / "traced", True, "threads1", ("fit",), threads=1)
        if not threads1[0].problems:
            spans = json.loads((rep_dir / "traced" / "spans-fit-threads1.json").read_text(encoding="utf-8"))
            own = self_times(spans)
            metrics["pca.fit_pca.threads1.self_s"] = sum(
                own[s["id"]] for s in spans if s["name"] == "pca.fit_pca"
            )
        for name in PER_LAYER:
            values = [p[name] for p in passes if name in p]
            if values:
                metrics[name] = median(values)
        metrics["tracing.overhead_s"] = median(overheads)
        return metrics


def _renumber(spans: list[dict], offset: int) -> list[dict]:
    for span in spans:
        span["id"] += offset
        if span["parent"] is not None:
            span["parent"] += offset
    return spans


def _unaccounted(spans, runs, index: int) -> dict[str, float]:
    """Traced wall time of each command minus the self times of its spans."""
    totals = command_self_times(spans)
    return {r.command: r.wall_s - totals.get(f"pass{index}/{r.command}", 0.0) for r in runs}


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
    }


def print_table(workload, metrics: dict, units: dict, bench: Bench) -> None:
    samples = bench.record.get("samples", {})
    print(f"workload {workload.name} seed {bench.seed}: {workload.why}")
    print(f"{'metric':44} {'value':>16} unit   n")
    for name, unit in units.items():
        if name not in metrics:
            continue
        if name == "setup_s":
            n = len(bench.setups)
        else:
            n = samples.get(name.split("_")[0], min(samples.values(), default=0))
        print(f"{name:44} {metrics[name]:16.6g} {unit:6} {n}")
    errors = bench.ledger.failed / max(bench.ledger.attempted, 1)
    print(f"{'error_rate':44} {errors:16.6g} ratio  {bench.ledger.attempted}")
    tails = bench.record.get("tails", {})
    for name, (p, value) in tails.items():
        print(f"{name + f' p{p}':44} {value:16.6g} s")
    if not tails:
        print("tail percentiles: none; each needs at least ten samples beyond it")
    for failure in bench.ledger.failures:
        print(f"FAILED {failure}")


def record_path(workload_name: str, seed: int, trace: bool) -> Path:
    return WORK / f"{workload_name}-seed{seed}-trace{int(trace)}.json"


def measure(spawner, workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, Bench]:
    """Run one workload; return the JSON result, the run record and the bench."""
    work = WORK / f"{record_path(workload.name, seed, trace).stem}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(spawner, workload, seed, seconds, work)
    try:
        startup = bench.startup_s()  # also warms the import caches before timing
        metrics = bench.traced_run() if trace else bench.timed()
        if trace:
            metrics["cli.startup_s"] = startup
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "prediction": workload.prediction,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "shape": asdict(workload.shape),
        "environment": environment(),
        "inputs_sha256": bench.input_hashes,
        "outputs_sha256": bench.output_hashes,
        "failures": bench.ledger.failures,
        "metrics": metrics,
        **bench.record,
    }
    record_path(workload.name, seed, trace).write_text(json.dumps(record, indent=1), encoding="utf-8")
    names = PER_LAYER if trace else END_TO_END
    result = {
        "correct": not bench.ledger.failures,
        "attempted": bench.ledger.attempted,
        "failed": bench.ledger.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in names.items()
            if name in metrics
        },
    }
    return result, record, bench


def report(spawner, workload, seed: int, seconds: float, trace: bool) -> None:
    """Measure, then print the table, the run's record and the JSON result."""
    result, record, bench = measure(spawner, workload, seed, seconds, trace)
    print_table(workload, record["metrics"], PER_LAYER if trace else {**END_TO_END, **TABLE_ONLY}, bench)
    env = record["environment"]
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, "
        f"{env['blas']['name']} {env['blas']['version']}, "
        f"BLAS threads {env['blas_threads']} of nproc {env['nproc']}"
    )
    print(f"shape: {record['shape']}")
    for role, digest in (record["inputs_sha256"] or {}).items():
        print(f"input {role}: sha256 {digest}")
    print(f"record: {record_path(workload.name, seed, trace).relative_to(ROOT)}")
    print(json.dumps(result))
